// Quickstart: annotate one scientific module with data examples.
//
// Builds the evaluation corpus (ontology + knowledge base + modules),
// harvests the annotated instance pool from a freshly enacted provenance
// corpus, generates the data examples for a module the paper discusses
// (GetRecord-style retrieval), and prints them.

#include <cstdio>
#include <iostream>

#include "core/coverage.h"
#include "core/example_generator.h"
#include "corpus/corpus.h"
#include "provenance/workflow_corpus.h"

int main() {
  using namespace dexa;

  // 1. Build the corpus: myGrid-style ontology, synthetic knowledge base,
  //    252 available + 72 decayed scientific modules.
  auto corpus = BuildCorpus();
  if (!corpus.ok()) {
    std::cerr << "BuildCorpus failed: " << corpus.status() << "\n";
    return 1;
  }
  std::cout << "Corpus: " << corpus->available_ids.size()
            << " available modules, " << corpus->retired_ids.size()
            << " decayed modules, ontology of " << corpus->ontology->size()
            << " concepts\n";

  // 2. Enact the workflow corpus and harvest the annotated instance pool
  //    from its provenance (Section 4.1 of the paper).
  auto workflows = GenerateWorkflowCorpus(*corpus);
  if (!workflows.ok()) {
    std::cerr << "GenerateWorkflowCorpus failed: " << workflows.status() << "\n";
    return 1;
  }
  auto provenance = BuildProvenanceCorpus(*corpus, *workflows);
  if (!provenance.ok()) {
    std::cerr << "BuildProvenanceCorpus failed: " << provenance.status() << "\n";
    return 1;
  }
  //    All ontology reasoning, the pool's classification included, reads
  //    the ontology compiled into a KB image.
  auto kb = kbimage::CompiledKb::CompileOrDie(*corpus->ontology);
  AnnotatedInstancePool pool =
      HarvestPool(*provenance, *corpus->registry, *corpus->ontology, kb);
  std::cout << "Provenance: " << provenance->num_traces() << " traces, "
            << provenance->num_invocations() << " invocations; pool holds "
            << pool.size() << " annotated instances\n\n";

  // 3. Generate data examples for a module (Section 3.2's heuristic).
  ExampleGenerator generator(kb, &pool);
  auto module = corpus->registry->FindByName("EBI_GetBiologicalSequence");
  if (!module.ok()) {
    std::cerr << module.status() << "\n";
    return 1;
  }
  auto outcome = generator.Generate(**module);
  if (!outcome.ok()) {
    std::cerr << "Generate failed: " << outcome.status() << "\n";
    return 1;
  }
  std::cout << "Data examples for " << (*module)->spec().name << " ("
            << outcome->stats.combinations_tried << " combinations tried, "
            << outcome->stats.invocation_errors << " discarded):\n";
  for (const DataExample& example : outcome->examples) {
    std::string rendered = RenderDataExample(example);
    if (rendered.size() > 100) rendered = rendered.substr(0, 97) + "...";
    std::cout << "  " << rendered << "\n";
  }

  // 4. Coverage of the module's parameter partitions (Section 4.2).
  CoverageAnalyzer analyzer(kb);
  CoverageReport report =
      analyzer.Analyze((*module)->spec(), outcome->examples);
  std::printf(
      "\nCoverage: %zu/%zu input partitions, %zu/%zu output partitions "
      "(coverage %.2f)\n",
      report.covered_input_partitions, report.input_partitions,
      report.covered_output_partitions, report.output_partitions,
      report.coverage());
  return 0;
}
