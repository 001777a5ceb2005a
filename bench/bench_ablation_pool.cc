// Ablation: what the annotated-instance pool contributes. Sweeps the pool
// down to fractions of its harvested content and reports how input-partition
// coverage degrades; also ablates realization semantics.

#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_env.h"
#include "common/table.h"
#include "core/coverage.h"
#include "core/example_generator.h"
#include "corpus/synthetic_module.h"

namespace dexa {
namespace {

/// Rebuilds a pool keeping only the first `keep_per_concept` values of each
/// concept.
AnnotatedInstancePool ShrinkPool(const AnnotatedInstancePool& pool,
                                 const Ontology& ontology,
                                 size_t keep_per_concept) {
  AnnotatedInstancePool out(&ontology);
  for (ConceptId concept_id : pool.PopulatedConcepts()) {
    const auto& values = pool.InstancesOf(concept_id);
    for (size_t i = 0; i < values.size() && i < keep_per_concept; ++i) {
      out.Add(concept_id, values[i]);
    }
  }
  return out;
}

/// Drops every k-th populated concept entirely (simulating an impoverished
/// provenance corpus).
AnnotatedInstancePool DropConcepts(const AnnotatedInstancePool& pool,
                                   const Ontology& ontology, size_t drop_mod) {
  AnnotatedInstancePool out(&ontology);
  std::vector<ConceptId> concepts = pool.PopulatedConcepts();
  for (size_t c = 0; c < concepts.size(); ++c) {
    if (drop_mod != 0 && c % drop_mod == 0) continue;
    for (const Value& value : pool.InstancesOf(concepts[c])) {
      out.Add(concepts[c], value);
    }
  }
  return out;
}

void PrintAblation(bench_env::BenchReport& report) {
  const auto& env = bench_env::GetEnvironment();
  const Ontology& ontology = *env.corpus.ontology;

  TablePrinter table({"pool variant", "pool size",
                      "modules w/ all inputs covered", "examples"});
  auto evaluate = [&](const char* label, const AnnotatedInstancePool& pool) {
    std::string slug = label;
    for (char& c : slug) {
      if (c == ' ' || c == '/') c = '_';
    }
    ExampleGenerator generator(env.kb, &pool);
    CoverageAnalyzer analyzer(env.kb);
    size_t fully = 0;
    size_t examples = 0;
    for (const std::string& id : env.corpus.available_ids) {
      ModulePtr module = *env.corpus.registry->Find(id);
      auto outcome = generator.Generate(*module);
      if (!outcome.ok()) continue;
      examples += outcome->examples.size();
      CoverageReport report =
          analyzer.Analyze(module->spec(), outcome->examples);
      if (report.inputs_fully_covered()) ++fully;
    }
    table.AddRow({label, std::to_string(pool.size()),
                  std::to_string(fully) + "/252", std::to_string(examples)});
    report.Add(slug + "_inputs_covered", static_cast<double>(fully), "count");
    report.Add(slug + "_examples", static_cast<double>(examples), "count");
  };

  evaluate("full harvested pool", *env.pool);
  AnnotatedInstancePool one = ShrinkPool(*env.pool, ontology, 1);
  evaluate("1 instance per concept", one);
  AnnotatedInstancePool drop2 = DropConcepts(*env.pool, ontology, 2);
  evaluate("every 2nd concept dropped", drop2);
  AnnotatedInstancePool drop4 = DropConcepts(*env.pool, ontology, 4);
  evaluate("every 4th concept dropped", drop4);
  table.Print(std::cout,
              "Ablation: pool richness vs input-partition coverage.");
  std::cout << "\n";

  // Realization semantics on/off. On the main corpus this is vacuous (the
  // harvested pool annotates at leaf level and every interior concept is
  // covered), so the semantics are demonstrated on a micro-scenario: a
  // realizable interior concept whose pool only holds sub-concept
  // instances. Under the paper's rule its partition stays uncovered; with
  // the rule disabled a (mis-representative) sub-concept instance is used.
  TablePrinter realization(
      {"generator", "examples for AnalyzeSequence", "Sequence partition"});
  {
    Ontology micro("micro");
    ConceptId sequence = *micro.AddRoot("Sequence");  // Realizable interior.
    (void)*micro.AddConcept("DNA", {"Sequence"});
    (void)*micro.AddConcept("RNA", {"Sequence"});
    AnnotatedInstancePool micro_pool(&micro);
    micro_pool.Add(micro.Find("DNA"), Value::Str("ACGT"));
    micro_pool.Add(micro.Find("RNA"), Value::Str("ACGU"));

    ModuleSpec spec;
    spec.id = "micro";
    spec.name = "AnalyzeSequence";
    Parameter in;
    in.name = "seq";
    in.semantic_type = sequence;
    spec.inputs = {in};
    Parameter out = in;
    out.name = "len";
    out.structural_type = StructuralType::Integer();
    spec.outputs = {out};
    auto module = std::make_shared<SyntheticModule>(
        spec, [](const std::vector<Value>& inputs) -> Result<std::vector<Value>> {
          return std::vector<Value>{
              Value::Int(static_cast<int64_t>(inputs[0].AsString().size()))};
        });

    for (bool use_realization : {true, false}) {
      GeneratorOptions options;
      options.use_realization = use_realization;
      ExampleGenerator generator(kbimage::CompiledKb::CompileOrDie(micro),
                                 &micro_pool, options);
      auto outcome = generator.Generate(*module);
      size_t examples = outcome.ok() ? outcome->examples.size() : 0;
      realization.AddRow(
          {use_realization ? "realization (paper)" : "any instance",
           std::to_string(examples),
           use_realization ? "uncovered (no realization pooled)"
                           : "covered by a DNA stand-in"});
    }
  }
  realization.Print(std::cout, "Ablation: realization semantics (Section 3.2).");
  std::cout << "(on the main corpus the rule is vacuous: the harvested pool "
               "annotates at leaf level)\n\n";
}

void BM_HarvestPool(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  for (auto _ : state) {
    AnnotatedInstancePool pool = HarvestPool(
        env.provenance, *env.corpus.registry, *env.corpus.ontology);
    benchmark::DoNotOptimize(pool.size());
  }
}
BENCHMARK(BM_HarvestPool);

void BM_PoolLookup(benchmark::State& state) {
  const auto& env = bench_env::GetEnvironment();
  ConceptId concept_id = env.corpus.ontology->Find("UniprotAccession");
  for (auto _ : state) {
    auto value = env.pool->GetInstance(concept_id);
    benchmark::DoNotOptimize(value);
  }
}
BENCHMARK(BM_PoolLookup);

}  // namespace
}  // namespace dexa

int main(int argc, char** argv) {
  dexa::bench_env::BenchReport report("ablation_pool");
  dexa::PrintAblation(report);
  report.Write();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
