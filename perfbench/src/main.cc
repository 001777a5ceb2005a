// dexabench: runs one workload of the dexa benchmark and prints its
// report; the last line of standard output is the JSON result.
//
//   dexabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --low-rps <r> --high-rps <r>
//             --tail-limit-ms <ms>

#include <sys/prctl.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_DEXA_BIN
#define PERFBENCH_DEXA_BIN "dexa"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dexabench --workload "
               "annotate_mem|annotate_durable|annotate_sharded|serve_mix "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> "
               "--low-rps <r> --high-rps <r> --tail-limit-ms <ms>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.dexa_bin = PERFBENCH_DEXA_BIN;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.traced = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--low-rps") {
      args.low_rps = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--high-rps") {
      args.high_rps = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--tail-limit-ms") {
      args.tail_limit_ms = std::strtod(value.c_str(), nullptr);
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.seconds <= 0.0 || args.low_rps <= 0.0 ||
      args.high_rps <= 0.0 || args.tail_limit_ms <= 0.0) {
    return Usage();
  }
  // Sleeps end close to their deadline (the modeled disk's syncs sleep);
  // threads started later inherit the slack.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  int code = 2;
  if (args.workload == "annotate_mem") {
    code = perfbench::RunAnnotateMem(args);
  } else if (args.workload == "annotate_durable") {
    code = perfbench::RunAnnotateDurable(args);
  } else if (args.workload == "annotate_sharded") {
    code = perfbench::RunAnnotateSharded(args);
  } else if (args.workload == "serve_mix") {
    code = perfbench::RunServeMix(args);
  } else {
    code = Usage();
  }
  std::filesystem::remove_all(args.work_dir, ec);
  return code;
}
