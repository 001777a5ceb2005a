#include "report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void Report::Info(const std::string& line) { info_.push_back(line); }

void Report::Metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  notes_.push_back({name, value, unit, detail});
}

void Report::Host(size_t threads_asked) {
  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream line;
  line << "host: nproc=" << cores << " compiler=\"" << PERFBENCH_COMPILER
       << "\" build_type=" << PERFBENCH_BUILD_TYPE << " workload=" << workload_
       << " seed=" << seed_ << " threads_or_shards=" << threads_asked;
  Info(line.str());
  if (cores > 0 && threads_asked > static_cast<size_t>(cores)) {
    Info("WARNING: oversubscribed: the workload asks for " +
         std::to_string(threads_asked) + " threads or shards on " +
         std::to_string(cores) +
         " cores; its numbers cannot satisfy a gate on this host");
  }
}

int Report::Emit() const {
  std::printf("== dexa benchmark: workload %s, %s run ==\n", workload_.c_str(),
              traced_ ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const std::string& line : info_) std::printf("%s\n", line.c_str());
  bool finite = true;
  std::string metrics;
  for (const auto& [name, value] : metrics_) {
    finite = finite && std::isfinite(value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": " + JsonNumber(value);
  }
  for (const Entry& entry : notes_) {
    std::printf("%-38s %18.6f %s%s%s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str(), entry.detail.empty() ? "" : "  # ",
                entry.detail.c_str());
  }
  std::printf("error_ratio %.6f (%llu failed of %llu attempted)\n",
              outcomes_.error_ratio(),
              static_cast<unsigned long long>(outcomes_.failed()),
              static_cast<unsigned long long>(outcomes_.attempted()));
  for (const std::string& failure : outcomes_.failures()) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\": ";
  const bool correct =
      finite && outcomes_.attempted() > 0 && outcomes_.failed() == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcomes_.attempted());
  json += ", \"failed\": " + std::to_string(outcomes_.failed());
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
