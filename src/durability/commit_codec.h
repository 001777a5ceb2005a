#ifndef DEXA_DURABILITY_COMMIT_CODEC_H_
#define DEXA_DURABILITY_COMMIT_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/example_generator.h"
#include "modules/data_example.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "workflow/enactor.h"

namespace dexa {

/// The payload grammar of journal records. Every record is a small
/// line-oriented text document whose first line names the record kind;
/// the journal framing (length + CRC32) guarantees each decoded payload is
/// byte-exact, so the codec never has to defend against truncation — only
/// against records from a different run (fingerprint mismatch).

/// First record of every annotation journal: identifies the run so a resume
/// against a different registry or generator configuration is rejected
/// instead of silently replaying foreign results.
struct AnnotateRunHeader {
  uint64_t modules = 0;      ///< AvailableModules() count at run start.
  uint64_t fingerprint = 0;  ///< AnnotateConfigFingerprint of the run.
  /// Seal of the KB image file the run reasons over, or 0 when no image
  /// file was given (an image compiled in memory is never pinned). A
  /// resume whose checksum differs refuses to replay: the journal's
  /// commits were derived from a different KB. Encoded only when nonzero,
  /// so journals of runs without an image file are byte-identical to the
  /// pre-image format (old journals decode with checksum 0).
  uint64_t kb_checksum = 0;
};

/// Stable hash of everything the journal's replay semantics depend on: the
/// available module ids in registration order and the generator options.
/// Two runs with equal fingerprints produce identical per-module outcomes,
/// so one may replay the other's journal.
uint64_t AnnotateConfigFingerprint(const ModuleRegistry& registry,
                                   const GeneratorOptions& options);

std::string EncodeAnnotateRunHeader(const AnnotateRunHeader& header);
[[nodiscard]] Result<AnnotateRunHeader> DecodeAnnotateRunHeader(const std::string& payload);

/// One committed module annotation: everything AnnotateRegistry writes into
/// the registry and folds into its report for that module.
struct ModuleCommit {
  std::string module_id;
  bool decayed = false;
  uint64_t transient_exhausted = 0;
  DataExampleSet examples;
};

std::string EncodeModuleCommit(const ModuleCommit& commit,
                               const Ontology& ontology);
[[nodiscard]] Result<ModuleCommit> DecodeModuleCommit(const std::string& payload,
                                        const Ontology& ontology);

/// First record of every enactment journal.
struct EnactRunHeader {
  std::string workflow_id;
  uint64_t processors = 0;
  uint64_t fingerprint = 0;  ///< Hash of workflow id + input values.
};

uint64_t EnactConfigFingerprint(const std::string& workflow_id,
                                const std::vector<Value>& inputs);

std::string EncodeEnactRunHeader(const EnactRunHeader& header);
[[nodiscard]] Result<EnactRunHeader> DecodeEnactRunHeader(const std::string& payload);

/// One committed enactment step: the processor index in the workflow's
/// processor list plus the full invocation record, so a resumed enactment
/// serves the outputs (and re-emits the provenance) without re-invoking.
struct StepCommit {
  int processor = -1;
  InvocationRecord record;
};

std::string EncodeStepCommit(const StepCommit& commit);
[[nodiscard]] Result<StepCommit> DecodeStepCommit(const std::string& payload);

}  // namespace dexa

#endif  // DEXA_DURABILITY_COMMIT_CODEC_H_
