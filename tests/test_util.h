#ifndef DEXA_TESTS_TEST_UTIL_H_
#define DEXA_TESTS_TEST_UTIL_H_

// Shared fixtures for the dexa test suites. The full evaluation pipeline
// (corpus -> workflow corpus -> provenance -> pool -> annotations) is
// expensive to rebuild per test, so suites share one lazily-built
// environment.

#include <memory>

#include <gtest/gtest.h>

#include "core/example_generator.h"
#include "corpus/corpus.h"
#include "kbimage/compiled_kb.h"
#include "provenance/workflow_corpus.h"

namespace dexa {
namespace testing_env {

/// The fully-built evaluation environment (built once per process).
struct Environment {
  Corpus corpus;
  WorkflowCorpus workflows;
  ProvenanceCorpus provenance;
  std::unique_ptr<AnnotatedInstancePool> pool;
  /// The corpus ontology compiled in memory: what every component reasons
  /// over.
  std::shared_ptr<const kbimage::CompiledKb> kb;
  // Registry annotated with generated data examples; modules retired.
};

/// Builds (once) and returns the shared environment: corpus built, workflow
/// corpus generated and enacted, pool harvested, data examples generated
/// into the registry, decayed modules retired.
inline const Environment& GetEnvironment() {
  static Environment* env = [] {
    auto* out = new Environment();
    auto corpus = BuildCorpus();
    if (!corpus.ok()) {
      ADD_FAILURE() << "BuildCorpus: " << corpus.status();
      std::abort();
    }
    out->corpus = std::move(corpus).value();

    auto workflows = GenerateWorkflowCorpus(out->corpus);
    if (!workflows.ok()) {
      ADD_FAILURE() << "GenerateWorkflowCorpus: " << workflows.status();
      std::abort();
    }
    out->workflows = std::move(workflows).value();

    auto provenance = BuildProvenanceCorpus(out->corpus, out->workflows);
    if (!provenance.ok()) {
      ADD_FAILURE() << "BuildProvenanceCorpus: " << provenance.status();
      std::abort();
    }
    out->provenance = std::move(provenance).value();

    out->pool = std::make_unique<AnnotatedInstancePool>(
        HarvestPool(out->provenance, *out->corpus.registry,
                    *out->corpus.ontology));

    out->kb = kbimage::CompiledKb::CompileOrDie(*out->corpus.ontology);
    ExampleGenerator generator(out->kb, out->pool.get());
    auto annotated = AnnotateRegistry(generator, *out->corpus.registry);
    if (!annotated.ok()) {
      ADD_FAILURE() << "AnnotateRegistry: " << annotated.status();
      std::abort();
    }
    if (!annotated->complete()) {
      ADD_FAILURE() << "AnnotateRegistry aborted: " << annotated->run_status;
      std::abort();
    }

    Status retired = RetireDecayedModules(out->corpus);
    if (!retired.ok()) {
      ADD_FAILURE() << "RetireDecayedModules: " << retired;
      std::abort();
    }
    return out;
  }();
  return *env;
}

}  // namespace testing_env
}  // namespace dexa

#endif  // DEXA_TESTS_TEST_UTIL_H_
