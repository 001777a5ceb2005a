#ifndef DEXA_CORE_RUN_API_H_
#define DEXA_CORE_RUN_API_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/example_generator.h"
#include "modules/registry.h"
#include "obs/run_observability.h"
#include "workflow/enactor.h"
#include "workflow/workflow.h"

namespace dexa {

// Durability machinery, forward-declared: a RunRequest carries these by
// pointer so the facade header stays includable from layers below
// durability (the definitions live in durability/journal.h and
// corpus/fault_injector.h).
class RunJournal;
struct JournalRecovery;
struct CrashPlan;

/// Which of the four run families a RunRequest describes. The facade
/// subsumes the historical entry points one-to-one:
///   kAnnotate        — AnnotateRegistry
///   kAnnotateDurable — AnnotateRegistryDurable
///   kEnact           — EnactResilient
///   kEnactDurable    — EnactResilientDurable
enum class RunKind {
  kAnnotate = 0,
  kAnnotateDurable = 1,
  kEnact = 2,
  kEnactDurable = 3,
};

const char* RunKindName(RunKind kind);

/// One run, fully described: the single struct the CLI, the serve daemon's
/// RunManager, and tests hand to SubmitRun() instead of picking among four
/// entry points with options scattered across DurableAnnotateOptions,
/// DurableEnactOptions and EnactHooks. All pointers are non-owning and must
/// outlive the SubmitRun call; which fields are required depends on `kind`
/// (SubmitRun validates and fails with kInvalidArgument on a mismatch).
struct RunRequest {
  RunKind kind = RunKind::kAnnotate;

  // -- Annotate family (kAnnotate, kAnnotateDurable) ---------------------
  /// Generator to run over every available module of `registry`; the run
  /// executes on the generator's engine.
  const ExampleGenerator* generator = nullptr;
  ModuleRegistry* registry = nullptr;
  /// Required for kAnnotateDurable (journal codec needs it for concepts).
  const Ontology* ontology = nullptr;

  // -- Enact family (kEnact, kEnactDurable) ------------------------------
  const Workflow* workflow = nullptr;
  /// One value per workflow input.
  std::vector<Value> inputs;
  /// Engine the enactment's invocations route through. Enact runs take the
  /// registry via `registry` as well (const access only).
  InvocationEngine* engine = nullptr;

  // -- Durability (the two durable kinds) --------------------------------
  RunJournal* journal = nullptr;
  /// Resume from a crashed run's recovered journal; null starts fresh.
  const JournalRecovery* resume = nullptr;
  /// In-process crash injection; null means no crash plan.
  const CrashPlan* crash = nullptr;
  /// Seal of the KB image file pinned into durable annotate run headers
  /// (0 = no image file; reasoning used an image compiled in memory).
  uint64_t kb_checksum = 0;

  // -- Observability (all kinds) -----------------------------------------
  /// Where the run's span tree and metrics go. When `obs.metrics` is set,
  /// SubmitRun imports the engine snapshot (and the trace, when `obs.tracer`
  /// is also set) into it after the run finishes.
  obs::RunObservability obs;
};

/// What a run produced. Exactly one of the two payloads is meaningful,
/// selected by `kind`; `run_status` mirrors the payload's completion status
/// so callers can triage without dispatching on the kind first.
struct RunResult {
  RunKind kind = RunKind::kAnnotate;

  /// Payload of the annotate family (kAnnotate, kAnnotateDurable).
  AnnotateReport annotate;

  /// Payload of the enact family (kEnact, kEnactDurable).
  ResilientEnactmentResult enact;

  /// OK for runs that ran to completion; the abort cause otherwise
  /// (kCancelled for an injected crash of a durable annotate run — crashed
  /// annotate runs still return a partial report, exactly like the legacy
  /// entry point did).
  Status run_status;

  bool complete() const { return run_status.ok(); }
};

/// Runs one RunRequest to completion and returns what it produced. This is
/// THE run entry point: the legacy signatures (AnnotateRegistryDurable,
/// EnactResilientDurable) are thin shims over it, and new call sites —
/// including the serve daemon's RunManager and every CLI command — must not
/// call them directly (dexa-lint rule `legacy-run-entry`).
///
/// Semantics are exactly those of the subsumed entry points, byte for byte
/// (enforced by the facade-equivalence suite in run_api_test.cc):
/// deterministic at any thread count, durable kinds journal through a
/// per-run CommitStream, injected crashes surface as run_status=kCancelled
/// (annotate) or an error Result (enact).
///
/// Defined in the durability layer (durability/run_api.cc): the facade must
/// reach the journal and crash machinery, which core cannot depend on.
[[nodiscard]] Result<RunResult> SubmitRun(const RunRequest& request);

// -- Convenience builders --------------------------------------------------
// Fill the required fields of each kind; callers tweak the optional ones
// (resume/crash/kb_checksum/obs) on the returned struct.

RunRequest MakeAnnotateRun(const ExampleGenerator& generator,
                           ModuleRegistry& registry);

RunRequest MakeDurableAnnotateRun(const ExampleGenerator& generator,
                                  ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  RunJournal& journal);

RunRequest MakeEnactRun(const Workflow& workflow, ModuleRegistry& registry,
                        std::vector<Value> inputs, InvocationEngine& engine);

RunRequest MakeDurableEnactRun(const Workflow& workflow,
                               ModuleRegistry& registry,
                               std::vector<Value> inputs,
                               InvocationEngine& engine, RunJournal& journal);

}  // namespace dexa

#endif  // DEXA_CORE_RUN_API_H_
