// Module comparison (Section 6 of the paper): compare the behavior of
// modules through data examples generated over identical input values, and
// demonstrate the Figure 7 case where a more general module substitutes a
// more specific one.

#include <iostream>

#include "core/matcher.h"
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
  ModuleMatcher matcher(kb, &generator);

  auto compare = [&](const char* left, const char* right) {
    auto a = corpus->registry->FindByName(left);
    auto b = corpus->registry->FindByName(right);
    if (!a.ok() || !b.ok()) {
      std::cerr << "lookup failed\n";
      return;
    }
    auto result = matcher.Compare(**a, **b);
    if (!result.ok()) {
      std::cerr << result.status() << "\n";
      return;
    }
    std::cout << left << "  vs  " << right << "\n    -> "
              << BehaviorRelationName(result->relation) << " ("
              << result->examples_agreeing << "/" << result->examples_compared
              << " aligned examples agree"
              << (result->mapping.contextual ? ", contextual mapping" : "")
              << ")\n";
  };

  std::cout << "-- Equivalent behavior: two providers of the same service\n";
  compare("EBI_GetUniprotRecord", "DDBJ_GetUniprotRecord");

  std::cout << "\n-- Disjoint behavior: same signature, different function\n";
  compare("EBI_ComputeGcContent", "EBI_ComputeAtContent");

  std::cout << "\n-- Figure 7: a retired module matched by a more general "
               "available one\n";
  compare("GetGeneSequence", "EBI_GetBiologicalSequence");

  std::cout << "\n-- Incomparable: no 1-to-1 parameter mapping exists\n";
  compare("EBI_GetUniprotRecord", "Identify");
  return 0;
}
