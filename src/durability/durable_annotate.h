#ifndef DEXA_DURABILITY_DURABLE_ANNOTATE_H_
#define DEXA_DURABILITY_DURABLE_ANNOTATE_H_

#include "common/result.h"
#include "core/example_generator.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "modules/registry.h"
#include "obs/run_observability.h"
#include "ontology/ontology.h"

namespace dexa {

/// Resume marker for the durable AnnotateRegistry overload: wraps the
/// JournalRecovery of a crashed run's journal, making the call read as
/// `AnnotateRegistry(generator, registry, ontology, journal,
/// ResumeFrom(recovery))`.
struct ResumeFrom {
  explicit ResumeFrom(const JournalRecovery& r) : recovery(&r) {}
  const JournalRecovery* recovery;
};

/// Knobs of a durable annotation run.
struct DurableAnnotateOptions {
  /// When set, the run replays this recovery's committed prefix (modules
  /// served from the journal, not re-invoked) and resumes generation from
  /// the first uncommitted module. The recovery must come from a journal
  /// of the same run configuration (module list + generator options) —
  /// checked via the run-header fingerprint.
  const JournalRecovery* resume = nullptr;

  /// In-process crash injection: the run stops (Status kCancelled in
  /// AnnotateReport::run_status) at the chosen commit, optionally tearing
  /// the journal tail. Inert when the plan is unarmed.
  CrashPlan crash;

  /// Seal of the KB image file this run reasons over (CompiledKb
  /// checksum), or 0 = no image file; reasoning used an image compiled in
  /// memory. Recorded in the run header and enforced on resume: a journal
  /// pinned to a different image file (or to none) is refused instead of
  /// silently replaying commits derived from different knowledge.
  uint64_t kb_checksum = 0;

  /// Optional run observability. The durable run records the same
  /// run → phase → batch tree as plain AnnotateRegistry plus a "replay"
  /// phase whose batch spans are marked replayed — served from the journal,
  /// not live work.
  obs::RunObservability obs;
};

/// DEPRECATED: legacy entry point, kept as a thin shim over the RunRequest
/// facade (core/run_api.h). New call sites must build a
/// RunKind::kAnnotateDurable request and call SubmitRun instead — dexa-lint
/// rule `legacy-run-entry` bans direct calls outside the durability layer.
///
/// AnnotateRegistry with a write-ahead journal: every module's annotation
/// is appended to `journal` (through a per-run ordered CommitStream) in
/// registration order, in group commits of about one journal segment each,
/// and reaches the registry only once its group is durable — so a process
/// that dies mid-run can resume from the last committed module.
///
/// Determinism: generation outcomes are schedule-independent (retry jitter
/// and fault draws are keyed on stable hashes, never thread ids or wall
/// time), so a resumed run — replaying the committed prefix and generating
/// only the remainder — produces a registry, pool and provenance state
/// byte-identical to an uninterrupted run at any thread count.
///
/// An injected crash (options.crash) does not produce an error Result: the
/// report comes back with run_status = kCancelled and its counters covering
/// the committed prefix, mirroring what a monitoring process would read
/// from the journal after a real crash.
[[nodiscard]] Result<AnnotateReport> AnnotateRegistryDurable(
    const ExampleGenerator& generator, ModuleRegistry& registry,
    const Ontology& ontology, RunJournal& journal,
    const DurableAnnotateOptions& options = {});

/// DEPRECATED sugar: the resume spelling from the durability design notes;
/// same shim status as AnnotateRegistryDurable above.
[[nodiscard]] inline Result<AnnotateReport> AnnotateRegistry(
    const ExampleGenerator& generator, ModuleRegistry& registry,
    const Ontology& ontology, RunJournal& journal, ResumeFrom resume) {
  DurableAnnotateOptions options;
  options.resume = resume.recovery;
  return AnnotateRegistryDurable(generator, registry, ontology, journal,
                                 options);
}

}  // namespace dexa

#endif  // DEXA_DURABILITY_DURABLE_ANNOTATE_H_
