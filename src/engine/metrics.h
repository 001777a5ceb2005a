#ifndef DEXA_ENGINE_METRICS_H_
#define DEXA_ENGINE_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace dexa {

/// The phases of the annotation pipeline that route work through the
/// invocation engine. Wall time is accumulated per phase so a run can be
/// broken down into "where did the invocations go".
enum class EnginePhase {
  kGenerate,  ///< ExampleGenerator::Generate (Section 3.2 enumeration).
  kReplay,    ///< ExampleGenerator::ReplayInputs (Section 6 alignment).
  kCompare,   ///< ModuleMatcher comparison / discovery probing.
  kEnact,     ///< Workflow enactment (provenance capture).
  kOther,     ///< Everything else (composition search, ad-hoc callers).
};

inline constexpr size_t kNumEnginePhases = 5;

const char* EnginePhaseName(EnginePhase phase);

/// A plain, copyable snapshot of the engine's counters, safe to hand to
/// reporting code without touching atomics.
struct EngineMetricsSnapshot {
  uint64_t invocations = 0;        ///< Module invocations routed through.
  uint64_t invocation_errors = 0;  ///< Invocations that returned non-OK.
  uint64_t batches = 0;            ///< InvokeBatch / ForEach dispatches.
  uint64_t cache_hits = 0;         ///< ConceptCache hits.
  uint64_t cache_misses = 0;       ///< ConceptCache misses (computed fresh).
  uint64_t cache_queries = 0;      ///< ConceptCache lookups (hits + misses).
  uint64_t kb_image_loads = 0;     ///< Compiled KB images mapped + verified.
  uint64_t bitset_queries = 0;     ///< Cache misses answered by image bitsets.
  uint64_t retries = 0;            ///< Retry attempts after transient faults.
  uint64_t deadline_exhaustions = 0;  ///< Invocations cut off by a budget.
  uint64_t breaker_trips = 0;      ///< Circuit breakers tripped open.
  uint64_t breaker_short_circuits = 0;  ///< Invocations denied by a breaker.
  uint64_t injected_faults = 0;    ///< Faults injected by FaultInjectors.

  // -- Durability: write-ahead journal and recovery ----------------------
  uint64_t commits = 0;            ///< Ordered commit-hook invocations.
  uint64_t journal_records = 0;    ///< Records appended to a RunJournal.
  uint64_t journal_segments_sealed = 0;  ///< Journal segments sealed/rolled.
  uint64_t torn_tails_discarded = 0;  ///< Damaged journal tails discarded.
  uint64_t modules_replayed = 0;   ///< Units served from the journal.
  uint64_t modules_reinvoked = 0;  ///< Units re-run live on resume.

  uint64_t phase_nanos[kNumEnginePhases] = {0, 0, 0, 0, 0};

  uint64_t TotalPhaseNanos() const;
  std::string ToString() const;
};

/// Thread-safe run counters for the invocation engine: plain atomics bumped
/// from worker threads, snapshotted into EngineMetricsSnapshot for
/// reporting. Per-module GenerationStats is a projection of these counters
/// over one Generate() call, so bench output stays unchanged while the
/// engine-wide totals become observable.
class EngineMetrics {
 public:
  EngineMetrics() = default;

  EngineMetrics(const EngineMetrics&) = delete;
  EngineMetrics& operator=(const EngineMetrics&) = delete;

  void RecordInvocation(bool ok) {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) invocation_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBatch() { batches_.fetch_add(1, std::memory_order_relaxed); }
  void RecordRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void RecordDeadlineExhaustion() {
    deadline_exhaustions_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBreakerTrip() {
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBreakerShortCircuit() {
    breaker_short_circuits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordInjectedFault() {
    injected_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCommit(uint64_t units = 1) {
    commits_.fetch_add(units, std::memory_order_relaxed);
  }
  void RecordJournalRecord(uint64_t records = 1) {
    journal_records_.fetch_add(records, std::memory_order_relaxed);
  }
  void RecordSegmentSealed() {
    journal_segments_sealed_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordTornTailDiscard() {
    torn_tails_discarded_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordModuleReplayed() {
    modules_replayed_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordModuleReinvoked() {
    modules_reinvoked_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCacheHit() {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCacheMiss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordCacheQuery() {
    cache_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordKbImageLoad() {
    kb_image_loads_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBitsetQuery() {
    bitset_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddPhaseNanos(EnginePhase phase, uint64_t nanos) {
    phase_nanos_[static_cast<size_t>(phase)].fetch_add(
        nanos, std::memory_order_relaxed);
  }

  EngineMetricsSnapshot Snapshot() const;

  /// Zeroes every counter (between bench repetitions).
  void Reset();

 private:
  std::atomic<uint64_t> invocations_{0};
  std::atomic<uint64_t> invocation_errors_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> cache_queries_{0};
  std::atomic<uint64_t> kb_image_loads_{0};
  std::atomic<uint64_t> bitset_queries_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_exhaustions_{0};
  std::atomic<uint64_t> breaker_trips_{0};
  std::atomic<uint64_t> breaker_short_circuits_{0};
  std::atomic<uint64_t> injected_faults_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> journal_records_{0};
  std::atomic<uint64_t> journal_segments_sealed_{0};
  std::atomic<uint64_t> torn_tails_discarded_{0};
  std::atomic<uint64_t> modules_replayed_{0};
  std::atomic<uint64_t> modules_reinvoked_{0};
  std::atomic<uint64_t> phase_nanos_[kNumEnginePhases] = {};
};

/// RAII wall-clock accumulator: adds the scope's duration to the metrics'
/// per-phase counter on destruction. Null metrics are tolerated so callers
/// can time unconditionally.
///
/// This is the one sanctioned wall-clock in the deterministic layers: phase
/// timings are *reporting-only* observability (BENCH_*.json, ToString) and
/// never feed an output-affecting decision — retry schedules, deadlines and
/// breaker cooldowns all run on the VirtualClock instead.
class PhaseTimer {
 public:
  PhaseTimer(EngineMetrics* metrics, EnginePhase phase)
      : metrics_(metrics),
        phase_(phase),
        // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
        start_(std::chrono::steady_clock::now()) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (metrics_ == nullptr) return;
    // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
    auto elapsed = std::chrono::steady_clock::now() - start_;
    metrics_->AddPhaseNanos(
        phase_, static_cast<uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        elapsed)
                        .count()));
  }

 private:
  EngineMetrics* metrics_;
  EnginePhase phase_;
  // dexa-lint: allow(wall-clock) — reporting-only, see class comment.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dexa

#endif  // DEXA_ENGINE_METRICS_H_
