#ifndef PERFBENCH_DISK_MODEL_H_
#define PERFBENCH_DISK_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/io_env.h"

namespace perfbench {

/// The disk the durable workloads run on: every call goes to the real file
/// system except WritableIoFile::Sync, which blocks the caller for a fixed
/// `sync_us` instead of flushing. The fsync latency of a shared virtual
/// disk drifts by tens of percent from minute to minute, which no run
/// length averages out; a fixed cost per sync keeps the figures steady
/// while still charging every sync the program asks for, so a change in
/// the number of syncs moves them. The traced runs probe the real fsync
/// latency of the host disk beside it.
class ModeledSyncIoEnv final : public dexa::IoEnv {
 public:
  explicit ModeledSyncIoEnv(uint64_t sync_us,
                            dexa::IoEnv& base = dexa::IoEnv::Real())
      : sync_us_(sync_us), base_(base) {}

  [[nodiscard]] dexa::Result<std::unique_ptr<dexa::WritableIoFile>>
  NewWritableFile(const std::string& path) override;
  [[nodiscard]] dexa::Result<std::string> ReadFile(
      const std::string& path) override {
    return base_.ReadFile(path);
  }
  [[nodiscard]] dexa::Result<dexa::MmapRegion> MapReadOnly(
      const std::string& path) override {
    return base_.MapReadOnly(path);
  }
  [[nodiscard]] dexa::Status Rename(const std::string& from,
                                    const std::string& to) override {
    return base_.Rename(from, to);
  }
  [[nodiscard]] dexa::Status RemoveFile(const std::string& path) override {
    return base_.RemoveFile(path);
  }
  [[nodiscard]] dexa::Status Truncate(const std::string& path,
                                      uint64_t size) override {
    return base_.Truncate(path, size);
  }
  [[nodiscard]] dexa::Status CreateDirs(const std::string& dir) override {
    return base_.CreateDirs(dir);
  }

 private:
  uint64_t sync_us_;
  dexa::IoEnv& base_;
};

/// Median latency, in microseconds, of `count` real appends+fsyncs of a
/// small record to a file in `dir`, through IoEnv::Real().
double ProbeFsyncUs(const std::string& dir, int count);

}  // namespace perfbench

#endif  // PERFBENCH_DISK_MODEL_H_
