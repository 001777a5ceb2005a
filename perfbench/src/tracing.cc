#include "tracing.h"

#include <chrono>
#include <cstdlib>
#include <cstdio>

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

class TimingFile final : public dexa::WritableIoFile {
 public:
  TimingFile(std::unique_ptr<dexa::WritableIoFile> inner, TimingIoEnv* env)
      : inner_(std::move(inner)), env_(env) {}

  [[nodiscard]] dexa::Status Append(std::string_view data) override {
    const auto start = SteadyClock::now();
    dexa::Status status = inner_->Append(data);
    env_->RecordAppend(data.size(), NanosSince(start));
    return status;
  }
  [[nodiscard]] dexa::Status Sync() override {
    const auto start = SteadyClock::now();
    dexa::Status status = inner_->Sync();
    env_->RecordSync(NanosSince(start));
    return status;
  }
  [[nodiscard]] dexa::Status Close() override { return inner_->Close(); }

 private:
  std::unique_ptr<dexa::WritableIoFile> inner_;
  TimingIoEnv* env_;
};

}  // namespace

uint64_t NanosSince(SteadyClock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                           start)
          .count());
}

dexa::Result<std::unique_ptr<dexa::WritableIoFile>>
TimingIoEnv::NewWritableFile(const std::string& path) {
  auto file = base_.NewWritableFile(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<dexa::WritableIoFile>(
      std::make_unique<TimingFile>(std::move(file).value(), this));
}

dexa::Result<std::string> TimingIoEnv::ReadFile(const std::string& path) {
  return base_.ReadFile(path);
}

dexa::Result<dexa::MmapRegion> TimingIoEnv::MapReadOnly(
    const std::string& path) {
  return base_.MapReadOnly(path);
}

dexa::Status TimingIoEnv::Rename(const std::string& from,
                                 const std::string& to) {
  rename_calls_.fetch_add(1, std::memory_order_relaxed);
  return base_.Rename(from, to);
}

dexa::Status TimingIoEnv::RemoveFile(const std::string& path) {
  return base_.RemoveFile(path);
}

dexa::Status TimingIoEnv::Truncate(const std::string& path, uint64_t size) {
  return base_.Truncate(path, size);
}

dexa::Status TimingIoEnv::CreateDirs(const std::string& dir) {
  return base_.CreateDirs(dir);
}

void TimingIoEnv::RecordAppend(uint64_t bytes, uint64_t ns) {
  append_calls_.fetch_add(1, std::memory_order_relaxed);
  append_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  append_ns_.fetch_add(ns, std::memory_order_relaxed);
}

void TimingIoEnv::RecordSync(uint64_t ns) {
  sync_calls_.fetch_add(1, std::memory_order_relaxed);
  sync_ns_.fetch_add(ns, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sync_mu_);
  sync_us_.push_back(static_cast<double>(ns) / 1e3);
}

IoCounters TimingIoEnv::counters() const {
  IoCounters c;
  c.append_calls = append_calls_.load();
  c.append_bytes = append_bytes_.load();
  c.append_ns = append_ns_.load();
  c.sync_calls = sync_calls_.load();
  c.sync_ns = sync_ns_.load();
  c.rename_calls = rename_calls_.load();
  return c;
}

std::vector<double> TimingIoEnv::sync_us() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return sync_us_;
}

void InvokeCounters::Add(uint64_t ns, bool ok) {
  static std::atomic<size_t> next_slot{0};
  thread_local const size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  slots_[slot].calls.fetch_add(1, std::memory_order_relaxed);
  slots_[slot].busy_ns.fetch_add(ns, std::memory_order_relaxed);
  if (!ok) slots_[slot].errors.fetch_add(1, std::memory_order_relaxed);
}

uint64_t InvokeCounters::calls() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.calls.load();
  return total;
}

uint64_t InvokeCounters::errors() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.errors.load();
  return total;
}

uint64_t InvokeCounters::busy_ns() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.busy_ns.load();
  return total;
}

TimingModule::TimingModule(dexa::ModulePtr inner, InvokeCounters* counters)
    : dexa::Module(inner->spec()), inner_(std::move(inner)),
      counters_(counters) {
  if (!inner_->available()) Retire();
}

dexa::Result<std::vector<dexa::Value>> TimingModule::InvokeImpl(
    const std::vector<dexa::Value>& inputs) const {
  dexa::InvocationContext context;
  return InvokeWithContext(inputs, context);
}

dexa::Result<std::vector<dexa::Value>> TimingModule::InvokeWithContext(
    const std::vector<dexa::Value>& inputs,
    dexa::InvocationContext& context) const {
  const auto start = SteadyClock::now();
  auto outputs = inner_->Invoke(inputs, context);
  counters_->Add(NanosSince(start), outputs.ok());
  return outputs;
}

std::unique_ptr<dexa::ModuleRegistry> CopyRegistry(
    const dexa::ModuleRegistry& source) {
  auto registry = std::make_unique<dexa::ModuleRegistry>();
  for (const dexa::ModulePtr& module : source.AllModules()) {
    if (!registry->Register(module).ok()) {
      std::fprintf(stderr, "perfbench: duplicate module %s\n",
                   module->spec().id.c_str());
      std::abort();
    }
  }
  return registry;
}

std::unique_ptr<dexa::ModuleRegistry> TimedRegistry(
    const dexa::ModuleRegistry& source, InvokeCounters* counters) {
  auto registry = std::make_unique<dexa::ModuleRegistry>();
  for (const dexa::ModulePtr& module : source.AllModules()) {
    if (!registry->Register(std::make_shared<TimingModule>(module, counters))
             .ok()) {
      std::fprintf(stderr, "perfbench: duplicate module %s\n",
                   module->spec().id.c_str());
      std::abort();
    }
  }
  return registry;
}

}  // namespace perfbench
