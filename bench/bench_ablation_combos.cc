// Ablation: combination enumeration strategy (Section 3.2 invokes modules
// on *all* combinations of selected input values). Compares the full
// cartesian product against a pinned strategy on invocation cost and
// behavior-class completeness.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/example_generator.h"
#include "core/metrics.h"

namespace dexa {
namespace {

void PrintAblation(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();
  TablePrinter table({"strategy", "combinations", "skipped", "errors",
                      "examples", "avg completeness"});
  for (bool full : {true, false}) {
    GeneratorOptions options;
    options.full_cartesian = full;
    ExampleGenerator generator(env.kb, env.pool.get(),
                               options);
    size_t combinations = 0;
    size_t skipped = 0;
    size_t errors = 0;
    size_t examples = 0;
    double completeness = 0.0;
    size_t measured = 0;
    for (const std::string& id : env.corpus.available_ids) {
      ModulePtr module = *env.corpus.registry->Find(id);
      auto outcome = generator.Generate(*module);
      if (!outcome.ok()) continue;
      combinations += outcome->stats.combinations_tried;
      skipped += outcome->stats.combinations_skipped;
      errors += outcome->stats.invocation_errors;
      examples += outcome->examples.size();
      auto metrics = EvaluateBehaviorMetrics(*module, outcome->examples);
      if (metrics.ok()) {
        completeness += metrics->completeness();
        ++measured;
      }
    }
    table.AddRow({full ? "full cartesian (paper)" : "pinned tail inputs",
                  std::to_string(combinations), std::to_string(skipped),
                  std::to_string(errors), std::to_string(examples),
                  FormatFixed(completeness / static_cast<double>(measured), 4)});
    const std::string prefix = full ? "full_cartesian" : "pinned";
    report.Add(prefix + "_combinations", static_cast<double>(combinations),
               "count");
    report.Add(prefix + "_combinations_skipped", static_cast<double>(skipped),
               "count");
    report.Add(prefix + "_errors", static_cast<double>(errors), "count");
    report.Add(prefix + "_examples", static_cast<double>(examples), "count");
    report.Add(prefix + "_avg_completeness",
               completeness / static_cast<double>(measured), "ratio");
  }
  table.Print(std::cout, "Ablation: input-combination strategy.");
  std::cout << "(multi-input modules lose behavior classes when combinations "
               "are pinned; \"skipped\" counts combinations beyond "
               "max_combinations that were never invoked)\n\n";
}

void BM_FullCartesian(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());
  ModulePtr module = *env.corpus.registry->FindByName("CompareSequences");
  for (auto _ : state) {
    auto outcome = generator.Generate(*module);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_FullCartesian);

void BM_PinnedStrategy(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  GeneratorOptions options;
  options.full_cartesian = false;
  ExampleGenerator generator(env.kb, env.pool.get(),
                             options);
  ModulePtr module = *env.corpus.registry->FindByName("CompareSequences");
  for (auto _ : state) {
    auto outcome = generator.Generate(*module);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_PinnedStrategy);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("ablation_combos");
  dexa::PrintAblation(report);
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
