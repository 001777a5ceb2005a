#include "provenance/environment.h"

#include <utility>

namespace dexa {

Result<Environment> BuildEnvironment(const std::string& kb_image_path) {
  Environment env;
  CorpusOptions corpus_options;
  if (!kb_image_path.empty()) {
    DEXA_ASSIGN_OR_RETURN(env.kb, kbimage::CompiledKb::Load(kb_image_path));
    env.kb_checksum = env.kb->checksum();
    // Concept ids are dense insertion indices in both the image and the
    // ontology materialized from it, so the two agree on every ConceptId.
    DEXA_ASSIGN_OR_RETURN(Ontology ontology, env.kb->MaterializeOntology());
    corpus_options.prebuilt_ontology =
        std::make_shared<Ontology>(std::move(ontology));
    DEXA_ASSIGN_OR_RETURN(corpus_options.prebuilt_kb,
                          env.kb->MaterializeKnowledgeBase());
    corpus_options.seed = env.kb->kb_seed();
  }
  DEXA_ASSIGN_OR_RETURN(env.corpus, BuildCorpus(corpus_options));
  if (env.kb == nullptr) {
    DEXA_ASSIGN_OR_RETURN(env.kb,
                          kbimage::CompiledKb::Compile(*env.corpus.ontology));
  }
  DEXA_ASSIGN_OR_RETURN(env.workflows, GenerateWorkflowCorpus(env.corpus));
  DEXA_ASSIGN_OR_RETURN(env.provenance,
                        BuildProvenanceCorpus(env.corpus, env.workflows));
  env.pool = std::make_unique<AnnotatedInstancePool>(HarvestPool(
      env.provenance, *env.corpus.registry, *env.corpus.ontology, env.kb));
  return env;
}

}  // namespace dexa
