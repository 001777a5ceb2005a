#include "disk_model.h"

#include <time.h>

#include <cerrno>
#include <chrono>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

/// Blocks the calling thread until `us` microseconds have passed.
void BlockFor(uint64_t us) {
  // Sleep to an absolute deadline, like a thread blocked in fsync; the
  // process sets its timer slack to 1 us (main.cc) so the wake-up is close
  // to the deadline.
  timespec deadline{};
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  deadline.tv_nsec += static_cast<long>(us * 1000);
  while (deadline.tv_nsec >= 1'000'000'000L) {
    deadline.tv_nsec -= 1'000'000'000L;
    ++deadline.tv_sec;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline, nullptr) ==
         EINTR) {
  }
}

class ModeledSyncFile final : public dexa::WritableIoFile {
 public:
  ModeledSyncFile(std::unique_ptr<dexa::WritableIoFile> inner, uint64_t sync_us)
      : inner_(std::move(inner)), sync_us_(sync_us) {}

  [[nodiscard]] dexa::Status Append(std::string_view data) override {
    return inner_->Append(data);
  }
  [[nodiscard]] dexa::Status Sync() override {
    BlockFor(sync_us_);
    return dexa::Status::OK();
  }
  [[nodiscard]] dexa::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<dexa::WritableIoFile> inner_;
  uint64_t sync_us_;
};

}  // namespace

dexa::Result<std::unique_ptr<dexa::WritableIoFile>>
ModeledSyncIoEnv::NewWritableFile(const std::string& path) {
  auto file = base_.NewWritableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<dexa::WritableIoFile>(
      std::make_unique<ModeledSyncFile>(std::move(file).value(), sync_us_));
}

double ProbeFsyncUs(const std::string& dir, int count) {
  dexa::IoEnv& io = dexa::IoEnv::Real();
  const std::string path = dir + "/fsync-probe";
  auto file = io.NewWritableFile(path);
  if (!file.ok()) return 0.0;
  std::vector<double> us;
  const std::string record(180, 'p');
  for (int i = 0; i < count; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!(*file)->Append(record).ok() || !(*file)->Sync().ok()) break;
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  (void)(*file)->Close();
  (void)io.RemoveFile(path);
  return Median(us);
}

}  // namespace perfbench
