// Regenerates Table 2 of the paper ("Data examples conciseness"): the
// histogram of conciseness values over the 252-module corpus, then times
// the annotation pipeline as a micro-benchmark.

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/example_generator.h"
#include "core/metrics.h"

namespace dexa {
namespace {

void PrintTable2(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();
  std::map<std::string, int, std::greater<std::string>> histogram;
  double conciseness_sum = 0.0;
  size_t fully_concise = 0;
  size_t measured = 0;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    auto metrics = EvaluateBehaviorMetrics(
        *module, env.corpus.registry->DataExamplesOf(id));
    if (!metrics.ok()) continue;
    double conciseness = metrics->conciseness();
    conciseness_sum += conciseness;
    ++measured;
    if (conciseness == 1.0) ++fully_concise;
    std::string key =
        conciseness == 1.0 ? std::string("1") : FormatFixed(conciseness, 2);
    histogram[key]++;
  }
  TablePrinter table({"# of modules", "% of modules", "Conciseness"});
  const double total = static_cast<double>(env.corpus.available_ids.size());
  for (const auto& [value, count] : histogram) {
    table.AddRow({std::to_string(count),
                  FormatFixed(100.0 * count / total, 2), value});
  }
  table.Print(std::cout, "Table 2: Data examples conciseness.");
  std::cout << "(paper: 192/32/7/4/4/8/4/1 at 1/0.5/0.47/0.4/0.33/0.2/0.17/"
               "0.1)\n\n";

  report.Add("modules_measured", static_cast<double>(measured), "count");
  report.Add("fully_concise", static_cast<double>(fully_concise), "count");
  report.Add("avg_conciseness",
             measured == 0 ? 0.0 : conciseness_sum / measured, "ratio");
}

void BM_GenerateExamplesForCorpus(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());
  std::vector<ModulePtr> modules = env.corpus.registry->AvailableModules();
  for (auto _ : state) {
    size_t examples = 0;
    for (const ModulePtr& module : modules) {
      auto outcome = generator.Generate(*module);
      if (outcome.ok()) examples += outcome->examples.size();
    }
    benchmark::DoNotOptimize(examples);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(modules.size()));
}
BENCHMARK(BM_GenerateExamplesForCorpus);

void BM_GenerateSingleModule(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());
  ModulePtr module = *env.corpus.registry->FindByName("NormalizeAccession");
  for (auto _ : state) {
    auto outcome = generator.Generate(*module);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_GenerateSingleModule);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("table2_conciseness");
  dexa::PrintTable2(report);
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
