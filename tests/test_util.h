#ifndef DEXA_TESTS_TEST_UTIL_H_
#define DEXA_TESTS_TEST_UTIL_H_

// Shared fixtures for the dexa test suites. The full evaluation pipeline
// (corpus -> workflow corpus -> provenance -> pool -> annotations) is
// expensive to rebuild per test, so suites share one lazily-built
// environment.

#include <cstdlib>
#include <utility>

#include <gtest/gtest.h>

#include "core/example_generator.h"
#include "provenance/environment.h"

namespace dexa {
namespace testing_env {

/// Builds (once) and returns the shared environment: BuildEnvironment's
/// corpus, workflow corpus, provenance, pool and compiled KB, plus data
/// examples generated into the registry and the decayed modules retired.
inline const Environment& GetEnvironment() {
  static Environment* env = [] {
    auto built = BuildEnvironment();
    if (!built.ok()) {
      ADD_FAILURE() << "BuildEnvironment: " << built.status();
      std::abort();
    }
    auto* out = new Environment(std::move(built).value());

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
