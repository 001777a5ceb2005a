// Acceptance harness for the invocation-engine layer: annotates a fresh
// corpus once with a serial engine and once with an 8-thread engine,
// asserts the two registries serialize byte-identically, and reports wall
// time for both (the determinism + speedup criterion of the engine
// refactor). Emits BENCH_annotate_registry.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/example_generator.h"
#include "corpus/scale.h"
#include "engine/invocation_engine.h"
#include "modules/registry_io.h"
#include "provenance/workflow_corpus.h"

namespace dexa {
namespace {

/// DEXA_SCALE_BENCH_MODULES=<n> swaps the 252-module paper corpus for an
/// n-module synthetic scale corpus — the opt-in for measuring the engine
/// at 10k+ modules without hardcoding a second census anywhere.
size_t ScaleBenchModules() {
  const char* env = std::getenv("DEXA_SCALE_BENCH_MODULES");
  if (env == nullptr) return 0;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

struct AnnotateRun {
  std::string annotations;  ///< SaveAnnotations() of the annotated registry.
  double elapsed_ms = 0.0;
  size_t modules_annotated = 0;
  EngineMetricsSnapshot metrics;
};

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "annotate bench failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}

/// Runs AnnotateRegistry over a fresh registry through an engine with
/// `threads` workers and captures timing + serialized annotations.
AnnotateRun Annotate(const Ontology& ontology, ModuleRegistry& registry,
                     const AnnotatedInstancePool& pool, size_t threads) {
  InvocationEngine engine(EngineOptions{.threads = threads});
  ExampleGenerator generator(kbimage::CompiledKb::CompileOrDie(ontology), &pool,
                             GeneratorOptions{}, &engine);

  AnnotateRun run;
  auto start = std::chrono::steady_clock::now();
  auto annotated = AnnotateRegistry(generator, registry);
  auto end = std::chrono::steady_clock::now();
  if (!annotated.ok()) Die("AnnotateRegistry", annotated.status());
  if (!annotated->complete()) {
    Die("AnnotateRegistry aborted", annotated->run_status);
  }
  run.modules_annotated = annotated->annotated;
  run.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  run.annotations = SaveAnnotations(registry, ontology);
  run.metrics = engine.metrics().Snapshot();
  return run;
}

/// Builds a fresh (unannotated) corpus and pool — the paper corpus by
/// default, the synthetic scale corpus under DEXA_SCALE_BENCH_MODULES —
/// then annotates it with `threads` workers.
AnnotateRun RunWithThreads(size_t threads) {
  const size_t scale_modules = ScaleBenchModules();
  if (scale_modules > 0) {
    auto corpus = BuildScaleCorpus({/*seed=*/42, scale_modules});
    if (!corpus.ok()) Die("BuildScaleCorpus", corpus.status());
    return Annotate(*corpus->ontology, *corpus->registry, *corpus->pool,
                    threads);
  }
  auto corpus = BuildCorpus();
  if (!corpus.ok()) Die("BuildCorpus", corpus.status());
  auto workflows = GenerateWorkflowCorpus(*corpus);
  if (!workflows.ok()) Die("GenerateWorkflowCorpus", workflows.status());
  auto provenance = BuildProvenanceCorpus(*corpus, *workflows);
  if (!provenance.ok()) Die("BuildProvenanceCorpus", provenance.status());
  AnnotatedInstancePool pool =
      HarvestPool(*provenance, *corpus->registry, *corpus->ontology);
  return Annotate(*corpus->ontology, *corpus->registry, pool, threads);
}

int RunComparison() {
  const AnnotateRun serial = RunWithThreads(1);
  const AnnotateRun pooled = RunWithThreads(8);

  const bool identical = serial.annotations == pooled.annotations;
  const double speedup =
      pooled.elapsed_ms > 0.0 ? serial.elapsed_ms / pooled.elapsed_ms : 0.0;

  TablePrinter table({"engine", "modules annotated", "invocations",
                      "wall time (ms)"});
  table.AddRow({"threads=1", std::to_string(serial.modules_annotated),
                std::to_string(serial.metrics.invocations),
                FormatFixed(serial.elapsed_ms, 1)});
  table.AddRow({"threads=8", std::to_string(pooled.modules_annotated),
                std::to_string(pooled.metrics.invocations),
                FormatFixed(pooled.elapsed_ms, 1)});
  table.Print(std::cout, "AnnotateRegistry: serial vs pooled engine.");
  std::cout << "serialized annotations byte-identical: "
            << (identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n"
            << "speedup (t1/t8): " << FormatFixed(speedup, 2)
            << "x on a machine with "
            << std::thread::hardware_concurrency() << " hardware thread(s)\n\n";

  bench_env::BenchReport report("annotate_registry", 8);
  report.Add("annotate_ms_t1", serial.elapsed_ms, "ms");
  report.Add("annotate_ms_t8", pooled.elapsed_ms, "ms");
  report.Add("speedup_t8_over_t1", speedup, "ratio");
  report.Add("identical", identical ? 1.0 : 0.0, "bool");
  report.Add("modules_annotated",
             static_cast<double>(pooled.modules_annotated), "count");
  report.Add("corpus_modules",
             static_cast<double>(pooled.modules_annotated), "count");
  report.Add("invocations", static_cast<double>(pooled.metrics.invocations),
             "count");
  report.Add("hardware_threads",
             static_cast<double>(std::thread::hardware_concurrency()),
             "count");
  report.Write();

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace dexa

int main() { return dexa::RunComparison(); }
