#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

// Timing decorators over the program's public seams. They live in the
// benchmark, wrap the program's own interfaces, and forward every call
// unchanged, so a traced run must produce the same bytes as an untraced one
// (the traced workloads check that).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "modules/module.h"
#include "modules/registry.h"

namespace perfbench {

/// Counters of the I/O seam, summed over every file the decorator opened.
struct IoCounters {
  uint64_t append_calls = 0;
  uint64_t append_bytes = 0;
  uint64_t append_ns = 0;
  uint64_t sync_calls = 0;
  uint64_t sync_ns = 0;
  uint64_t rename_calls = 0;
};

/// An IoEnv that forwards to `base`, times appends and syncs, and counts
/// renames. Thread-safe: shards of one run share it.
class TimingIoEnv final : public dexa::IoEnv {
 public:
  explicit TimingIoEnv(dexa::IoEnv& base = dexa::IoEnv::Real()) : base_(base) {}

  [[nodiscard]] dexa::Result<std::unique_ptr<dexa::WritableIoFile>>
  NewWritableFile(const std::string& path) override;
  [[nodiscard]] dexa::Result<std::string> ReadFile(
      const std::string& path) override;
  [[nodiscard]] dexa::Result<dexa::MmapRegion> MapReadOnly(
      const std::string& path) override;
  [[nodiscard]] dexa::Status Rename(const std::string& from,
                                    const std::string& to) override;
  [[nodiscard]] dexa::Status RemoveFile(const std::string& path) override;
  [[nodiscard]] dexa::Status Truncate(const std::string& path,
                                      uint64_t size) override;
  [[nodiscard]] dexa::Status CreateDirs(const std::string& dir) override;

  IoCounters counters() const;
  /// Duration of every Sync, in microseconds.
  std::vector<double> sync_us() const;

  // Called by the file decorator.
  void RecordAppend(uint64_t bytes, uint64_t ns);
  void RecordSync(uint64_t ns);

 private:
  dexa::IoEnv& base_;
  std::atomic<uint64_t> append_calls_{0}, append_bytes_{0}, append_ns_{0};
  std::atomic<uint64_t> sync_calls_{0}, sync_ns_{0};
  std::atomic<uint64_t> rename_calls_{0};
  mutable std::mutex sync_mu_;
  std::vector<double> sync_us_;
};

/// Invocation counters shared by every TimingModule of one registry.
/// Engine workers add into per-thread cache-line slots, so counting does
/// not make the workers contend on one line.
class InvokeCounters {
 public:
  void Add(uint64_t ns, bool ok);
  uint64_t calls() const;
  uint64_t errors() const;
  uint64_t busy_ns() const;

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> busy_ns{0};
  };
  static constexpr size_t kSlots = 16;
  Slot slots_[kSlots];
};

/// A Module that forwards each call to the wrapped module's public
/// Invoke(inputs, context) and times it.
class TimingModule final : public dexa::Module {
 public:
  TimingModule(dexa::ModulePtr inner, InvokeCounters* counters);

  const dexa::BehaviorGroundTruth* ground_truth() const override {
    return inner_->ground_truth();
  }

 protected:
  [[nodiscard]] dexa::Result<std::vector<dexa::Value>> InvokeImpl(
      const std::vector<dexa::Value>& inputs) const override;
  [[nodiscard]] dexa::Result<std::vector<dexa::Value>> InvokeWithContext(
      const std::vector<dexa::Value>& inputs,
      dexa::InvocationContext& context) const override;

 private:
  dexa::ModulePtr inner_;
  InvokeCounters* counters_;
};

/// A registry with the modules of `source`, in registration order.
std::unique_ptr<dexa::ModuleRegistry> CopyRegistry(
    const dexa::ModuleRegistry& source);

/// A registry whose every module of `source` is wrapped in a TimingModule
/// feeding `counters`.
std::unique_ptr<dexa::ModuleRegistry> TimedRegistry(
    const dexa::ModuleRegistry& source, InvokeCounters* counters);

uint64_t NanosSince(std::chrono::steady_clock::time_point start);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
