#ifndef DEXA_PROVENANCE_ENVIRONMENT_H_
#define DEXA_PROVENANCE_ENVIRONMENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/example_generator.h"
#include "corpus/corpus.h"
#include "pool/instance_pool.h"
#include "provenance/workflow_corpus.h"

namespace dexa {

/// The evaluation setting of Section 4.1: the module corpus, the workflow
/// corpus enacted over it, the provenance that enactment left behind, the
/// annotated-instance pool harvested from that provenance, and the one
/// compiled KB every component reasons over. The CLI, the serve daemon,
/// the test and bench fixtures and the examples all start from it.
struct Environment {
  Corpus corpus;
  WorkflowCorpus workflows;
  ProvenanceCorpus provenance;
  /// Heap-held so generators can keep a pointer to it across moves of the
  /// environment.
  std::unique_ptr<AnnotatedInstancePool> pool;
  /// The KB image file, or the corpus ontology compiled in memory.
  std::shared_ptr<const kbimage::CompiledKb> kb;
  /// Seal of the KB image file, pinned into durable run headers; 0 when no
  /// image file was given.
  uint64_t kb_checksum = 0;
};

/// Builds the evaluation environment. With `kb_image_path` set, the image
/// file is loaded and the corpus adopts its ontology, its knowledge base
/// and its KB seed instead of rebuilding them, so a run over the image is
/// byte-identical to one over the in-memory corpus. Without it, the corpus
/// ontology is compiled in memory, once. The registry comes back
/// unannotated, with the decayed modules still available: callers annotate
/// and retire as their run needs.
[[nodiscard]] Result<Environment> BuildEnvironment(
    const std::string& kb_image_path = "");

}  // namespace dexa

#endif  // DEXA_PROVENANCE_ENVIRONMENT_H_
