// Annotation pipeline: the curator-side path of the paper's architecture
// (Figure 3). Annotates every available module in the registry with data
// examples, then reports corpus-wide quality metrics (coverage,
// completeness, conciseness — Section 4).

#include <cstdio>
#include <iostream>
#include <map>

#include "common/table.h"
#include "core/coverage.h"
#include "core/example_generator.h"
#include "core/metrics.h"
#include "corpus/corpus.h"
#include "provenance/workflow_corpus.h"

int main() {
  using namespace dexa;

  auto corpus = BuildCorpus();
  if (!corpus.ok()) {
    std::cerr << corpus.status() << "\n";
    return 1;
  }
  auto workflows = GenerateWorkflowCorpus(*corpus);
  auto provenance = BuildProvenanceCorpus(*corpus, *workflows);
  if (!provenance.ok()) {
    std::cerr << provenance.status() << "\n";
    return 1;
  }
  AnnotatedInstancePool pool =
      HarvestPool(*provenance, *corpus->registry, *corpus->ontology);

  auto kb = kbimage::CompiledKb::CompileOrDie(*corpus->ontology);
  ExampleGenerator generator(kb, &pool);
  auto annotated = AnnotateRegistry(generator, *corpus->registry);
  if (!annotated.ok()) {
    std::cerr << annotated.status() << "\n";
    return 1;
  }
  if (!annotated->complete()) {
    std::cerr << "annotation aborted: " << annotated->run_status << "\n";
    return 1;
  }
  std::cout << "Annotated " << annotated->annotated << " modules with data examples\n\n";

  CoverageAnalyzer analyzer(kb);
  size_t inputs_covered = 0;
  size_t outputs_covered = 0;
  std::map<std::string, int> completeness;
  std::map<std::string, int> conciseness;
  size_t total_examples = 0;

  for (const std::string& id : corpus->available_ids) {
    ModulePtr module = *corpus->registry->Find(id);
    const DataExampleSet& examples = corpus->registry->DataExamplesOf(id);
    total_examples += examples.size();
    CoverageReport report = analyzer.Analyze(module->spec(), examples);
    if (report.inputs_fully_covered()) ++inputs_covered;
    if (report.outputs_fully_covered()) ++outputs_covered;
    auto metrics = EvaluateBehaviorMetrics(*module, examples);
    if (metrics.ok()) {
      completeness[FormatFixed(metrics->completeness(), 2)]++;
      conciseness[FormatFixed(metrics->conciseness(), 2)]++;
    }
  }

  std::printf("Total data examples generated: %zu\n", total_examples);
  std::printf("Input partitions fully covered : %zu / %zu modules\n",
              inputs_covered, corpus->available_ids.size());
  std::printf("Output partitions fully covered: %zu / %zu modules\n\n",
              outputs_covered, corpus->available_ids.size());

  TablePrinter completeness_table({"Completeness", "# of modules"});
  for (auto it = completeness.rbegin(); it != completeness.rend(); ++it) {
    completeness_table.AddRow({it->first, std::to_string(it->second)});
  }
  completeness_table.Print(std::cout, "Completeness histogram:");

  std::cout << "\n";
  TablePrinter conciseness_table({"Conciseness", "# of modules"});
  for (auto it = conciseness.rbegin(); it != conciseness.rend(); ++it) {
    conciseness_table.AddRow({it->first, std::to_string(it->second)});
  }
  conciseness_table.Print(std::cout, "Conciseness histogram:");
  return 0;
}
