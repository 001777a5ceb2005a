#ifndef DEXA_BENCH_BENCH_ENV_H_
#define DEXA_BENCH_BENCH_ENV_H_

// Shared setup for the benchmark harnesses: builds the full evaluation
// environment once per binary (corpus, workflow corpus, provenance, pool,
// registry annotations; decayed modules retired).

#include <memory>
#include <string>
#include <vector>

#include "core/example_generator.h"
#include "corpus/corpus.h"
#include "kbimage/compiled_kb.h"
#include "provenance/workflow_corpus.h"

namespace dexa {
namespace bench_env {

struct Environment {
  Corpus corpus;
  WorkflowCorpus workflows;
  ProvenanceCorpus provenance;
  std::unique_ptr<AnnotatedInstancePool> pool;
  /// The corpus ontology compiled in memory: what every component reasons
  /// over.
  std::shared_ptr<const kbimage::CompiledKb> kb;
};

/// Builds the environment on first use; aborts with a diagnostic on any
/// pipeline failure (the benches cannot run without it).
const Environment& GetEnvironment();

/// Machine-readable side channel of a bench run: every harness emits a
/// `BENCH_<name>.json` next to its stdout tables so successive PRs have a
/// perf/result trajectory to diff against. Schema:
///
///   {"bench": "<name>", "threads": N,
///    "metrics": [{"name": "...", "value": 1.5, "unit": "..."}]}
class BenchReport {
 public:
  /// `threads` is the invocation-engine thread count the bench ran with
  /// (1 for the serial harnesses).
  explicit BenchReport(std::string name, size_t threads = 1)
      : name_(std::move(name)), threads_(threads) {}

  void Add(const std::string& metric, double value, const std::string& unit);

  /// Writes BENCH_<name>.json into the working directory; complains on
  /// stderr (but does not abort) if the file cannot be written.
  void Write() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::string name_;
  size_t threads_;
  std::vector<Metric> metrics_;
};

}  // namespace bench_env
}  // namespace dexa

#endif  // DEXA_BENCH_BENCH_ENV_H_
