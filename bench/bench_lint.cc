// Perf harness for dexa-lint: how much does the invariant gate cost?
// Lints the live tree (src/ tests/ bench/ tools/ examples/) two ways —
// cold (empty cache: lex + index + rules for every file) and warm (every
// per-file summary served from the content-hash keyed cache) — and reports
// both, the warm/cold speedup, and the cost of the whole-program taint
// pass that runs in full either way. The acceptance bar is the tentpole
// invariant itself (the tree lints clean) plus the cache contract (warm
// at least 5x faster than cold). Emits BENCH_lint.json.

#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_env.h"
#include "common/table.h"
#include "tools/lint/lint.h"

namespace dexa {
namespace {

constexpr int kColdRepetitions = 3;
constexpr int kWarmRepetitions = 5;
constexpr double kRequiredSpeedup = 5.0;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int RunBench() {
  namespace fs = std::filesystem;
  const std::string root = DEXA_SOURCE_DIR;
  const std::vector<std::string> paths = {"src", "tests", "bench", "tools",
                                          "examples"};

  auto collect_start = std::chrono::steady_clock::now();
  std::vector<std::string> files = lint::CollectSourceFiles(root, paths);
  double collect_ms = MillisSince(collect_start);

  const fs::path cache_dir =
      fs::temp_directory_path() / "dexa_bench_lint_cache";
  const std::string cache = cache_dir.string();

  // Cold passes: the cache is emptied before each one, so every file pays
  // lex + index + per-file rules (plus the global passes).
  lint::LintReport report;
  lint::LintStats cold_stats;
  double cold_ms = 0.0;
  for (int rep = 0; rep < kColdRepetitions; ++rep) {
    fs::remove_all(cache_dir);
    lint::LintStats stats;
    auto start = std::chrono::steady_clock::now();
    report = lint::LintPaths(root, files, cache, &stats);
    double ms = MillisSince(start);
    if (rep == 0 || ms < cold_ms) {
      cold_ms = ms;
      cold_stats = stats;
    }
  }

  // Warm passes over the now-populated cache: per-file work collapses to a
  // hash check + record parse; only the whole-program passes recompute.
  lint::LintReport warm_report;
  lint::LintStats warm_stats;
  double warm_ms = 0.0;
  for (int rep = 0; rep < kWarmRepetitions; ++rep) {
    lint::LintStats stats;
    auto start = std::chrono::steady_clock::now();
    warm_report = lint::LintPaths(root, files, cache, &stats);
    double ms = MillisSince(start);
    if (rep == 0 || ms < warm_ms) {
      warm_ms = ms;
      warm_stats = stats;
    }
  }
  fs::remove_all(cache_dir);

  double warm_speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  double files_per_s =
      warm_ms > 0 ? 1000.0 * static_cast<double>(report.files_scanned) / warm_ms
                  : 0.0;

  TablePrinter table({"metric", "value", "unit"});
  table.AddRow({"files scanned", std::to_string(report.files_scanned), ""});
  table.AddRow(
      {"rules evaluated", std::to_string(report.rules_evaluated), "rule-files"});
  table.AddRow({"findings", std::to_string(report.findings.size()), ""});
  table.AddRow({"suppressed", std::to_string(report.suppressed), ""});
  table.AddRow({"collect", FormatFixed(collect_ms, 2), "ms"});
  table.AddRow({"cold pass (best)", FormatFixed(cold_ms, 2), "ms"});
  table.AddRow({"warm pass (best)", FormatFixed(warm_ms, 2), "ms"});
  table.AddRow({"warm speedup", FormatFixed(warm_speedup, 1), "x"});
  table.AddRow({"taint pass (warm)", FormatFixed(warm_stats.taint_ms, 2), "ms"});
  table.AddRow({"warm cache hits", std::to_string(warm_stats.files_cached), ""});
  table.AddRow({"warm throughput", FormatFixed(files_per_s, 0), "files/s"});
  table.Print(std::cout,
              "dexa-lint over the live tree (" +
                  std::to_string(kColdRepetitions) + " cold + " +
                  std::to_string(kWarmRepetitions) + " warm passes)");

  const bool clean = report.findings.empty();
  if (!clean) {
    for (const lint::Finding& f : report.findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  const bool cache_effective =
      warm_speedup >= kRequiredSpeedup &&
      warm_stats.files_cached == files.size() &&
      cold_stats.files_analyzed == files.size() &&
      // A cache hit must change nothing but the wall time.
      lint::ReportToJson(warm_report) == lint::ReportToJson(report);
  std::cout << "tree " << (clean ? "lints clean" : "HAS FINDINGS") << "; cache "
            << (cache_effective ? "effective" : "NOT EFFECTIVE") << " ("
            << FormatFixed(warm_speedup, 1) << "x, need "
            << FormatFixed(kRequiredSpeedup, 1) << "x)\n\n";

  bench_env::BenchReport bench("lint");
  bench.Add("files_scanned", static_cast<double>(report.files_scanned),
            "count");
  bench.Add("rules_evaluated", static_cast<double>(report.rules_evaluated),
            "count");
  bench.Add("findings", static_cast<double>(report.findings.size()), "count");
  bench.Add("suppressed", static_cast<double>(report.suppressed), "count");
  bench.Add("collect_ms", collect_ms, "ms");
  bench.Add("cold_ms", cold_ms, "ms");
  bench.Add("warm_ms", warm_ms, "ms");
  bench.Add("warm_speedup", warm_speedup, "x");
  bench.Add("taint_ms", warm_stats.taint_ms, "ms");
  bench.Add("warm_cache_hits", static_cast<double>(warm_stats.files_cached),
            "count");
  bench.Add("files_per_s", files_per_s, "files/s");
  bench.Add("accepted", clean && cache_effective ? 1.0 : 0.0, "bool");
  bench.Write();
  return clean && cache_effective ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunBench(); }
