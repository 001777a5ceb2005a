#include "engine/metrics.h"

#include <sstream>

namespace dexa {

const char* EnginePhaseName(EnginePhase phase) {
  switch (phase) {
    case EnginePhase::kGenerate:
      return "generate";
    case EnginePhase::kReplay:
      return "replay";
    case EnginePhase::kCompare:
      return "compare";
    case EnginePhase::kEnact:
      return "enact";
    case EnginePhase::kOther:
      return "other";
  }
  return "unknown";
}

uint64_t EngineMetricsSnapshot::TotalPhaseNanos() const {
  uint64_t total = 0;
  for (uint64_t nanos : phase_nanos) total += nanos;
  return total;
}

std::string EngineMetricsSnapshot::ToString() const {
  std::ostringstream out;
  out << "invocations=" << invocations << " errors=" << invocation_errors
      << " batches=" << batches;
  if (kb_image_loads != 0) out << " kb_image_loads=" << kb_image_loads;
  if (retries != 0) out << " retries=" << retries;
  if (deadline_exhaustions != 0) {
    out << " deadline_exhaustions=" << deadline_exhaustions;
  }
  if (breaker_trips != 0) out << " breaker_trips=" << breaker_trips;
  if (breaker_short_circuits != 0) {
    out << " breaker_short_circuits=" << breaker_short_circuits;
  }
  if (injected_faults != 0) out << " injected_faults=" << injected_faults;
  if (commits != 0) out << " commits=" << commits;
  if (journal_records != 0) out << " journal_records=" << journal_records;
  if (journal_segments_sealed != 0) {
    out << " journal_segments_sealed=" << journal_segments_sealed;
  }
  if (torn_tails_discarded != 0) {
    out << " torn_tails_discarded=" << torn_tails_discarded;
  }
  if (modules_replayed != 0) out << " modules_replayed=" << modules_replayed;
  if (modules_reinvoked != 0) {
    out << " modules_reinvoked=" << modules_reinvoked;
  }
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    if (phase_nanos[p] == 0) continue;
    out << " " << EnginePhaseName(static_cast<EnginePhase>(p)) << "_ms="
        << phase_nanos[p] / 1000000;
  }
  return out.str();
}

EngineMetricsSnapshot EngineMetrics::Snapshot() const {
  EngineMetricsSnapshot snapshot;
  snapshot.invocations = invocations_.load(std::memory_order_relaxed);
  snapshot.invocation_errors =
      invocation_errors_.load(std::memory_order_relaxed);
  snapshot.batches = batches_.load(std::memory_order_relaxed);
  snapshot.kb_image_loads = kb_image_loads_.load(std::memory_order_relaxed);
  snapshot.retries = retries_.load(std::memory_order_relaxed);
  snapshot.deadline_exhaustions =
      deadline_exhaustions_.load(std::memory_order_relaxed);
  snapshot.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  snapshot.breaker_short_circuits =
      breaker_short_circuits_.load(std::memory_order_relaxed);
  snapshot.injected_faults = injected_faults_.load(std::memory_order_relaxed);
  snapshot.commits = commits_.load(std::memory_order_relaxed);
  snapshot.journal_records = journal_records_.load(std::memory_order_relaxed);
  snapshot.journal_segments_sealed =
      journal_segments_sealed_.load(std::memory_order_relaxed);
  snapshot.torn_tails_discarded =
      torn_tails_discarded_.load(std::memory_order_relaxed);
  snapshot.modules_replayed =
      modules_replayed_.load(std::memory_order_relaxed);
  snapshot.modules_reinvoked =
      modules_reinvoked_.load(std::memory_order_relaxed);
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    snapshot.phase_nanos[p] = phase_nanos_[p].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void EngineMetrics::Reset() {
  invocations_.store(0, std::memory_order_relaxed);
  invocation_errors_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  kb_image_loads_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  deadline_exhaustions_.store(0, std::memory_order_relaxed);
  breaker_trips_.store(0, std::memory_order_relaxed);
  breaker_short_circuits_.store(0, std::memory_order_relaxed);
  injected_faults_.store(0, std::memory_order_relaxed);
  commits_.store(0, std::memory_order_relaxed);
  journal_records_.store(0, std::memory_order_relaxed);
  journal_segments_sealed_.store(0, std::memory_order_relaxed);
  torn_tails_discarded_.store(0, std::memory_order_relaxed);
  modules_replayed_.store(0, std::memory_order_relaxed);
  modules_reinvoked_.store(0, std::memory_order_relaxed);
  for (size_t p = 0; p < kNumEnginePhases; ++p) {
    phase_nanos_[p].store(0, std::memory_order_relaxed);
  }
}

}  // namespace dexa
