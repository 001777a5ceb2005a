#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// One benchmark run, as given on the command line.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory of this run (journals, sockets); emptied first.
  std::string work_dir;
  /// The `dexa` binary the serve workload starts as its daemon.
  std::string dexa_bin;
  /// The serve workload's two fixed offered rates and the limit on the tail
  /// latency of its max-rate search (pinned in BENCHMARK.json's command).
  double low_rps = 0.0;
  double high_rps = 0.0;
  double tail_limit_ms = 0.0;
};

// Each returns the process exit code; all print their report to stdout.
int RunAnnotateMem(const RunArgs& args);
int RunAnnotateDurable(const RunArgs& args);
int RunAnnotateSharded(const RunArgs& args);
int RunServeMix(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
