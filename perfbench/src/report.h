#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "reference.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);
double MsSince(Clock::time_point start);

/// Peak resident set (VmHWM) of process `pid` (0 = this process), in MB.
double PeakRssMb(pid_t pid = 0);

/// What one benchmark run prints. Human-readable lines come first; the last
/// line of standard output is one JSON object with the keys `correct`,
/// `attempted`, `failed` and `metrics`, the last a map from metric name to
/// value. BENCHMARK.json is the one list of metric names and units: run.py
/// checks the names against it and adds the units.
class Report {
 public:
  Report(std::string workload, uint64_t seed, bool traced)
      : workload_(std::move(workload)), seed_(seed), traced_(traced) {}

  /// A free-form line of the human-readable report.
  void Info(const std::string& line);

  /// Sets a metric of BENCHMARK.json: an end-to-end metric in an untraced
  /// run, a per-layer metric in a traced one.
  void Metric(const std::string& name, double value);

  /// A measurement that is printed by name but is not part of the JSON
  /// result: a workload-specific end-to-end figure, or, in a traced run,
  /// an end-to-end figure measured under tracing.
  void Note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");

  /// Prints the host fingerprint: cores, compiler, build type, the workload
  /// seed, and a warning when the workload asks for more threads or shards
  /// than the host has cores (such a number cannot satisfy a gate).
  void Host(size_t threads_asked);

  OutcomeLedger& outcomes() { return outcomes_; }

  /// Prints the report; returns the process exit code (0 when the run was
  /// measured, even if outputs were wrong — `correct` says that). A
  /// non-finite metric makes the run incorrect.
  int Emit() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
  };

  std::string workload_;
  uint64_t seed_;
  bool traced_;
  std::vector<std::string> info_;
  std::map<std::string, double> metrics_;
  std::vector<Entry> notes_;
  OutcomeLedger outcomes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
