#include "core/run_api.h"

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "corpus/fault_injector.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace dexa {

namespace {

/// Checks the fields `kind` requires. Pointer presence only — the run
/// implementations validate semantics (arity, fingerprints, ...).
Status ValidateRequest(const RunRequest& request) {
  auto require = [&](const void* field, const char* name) -> Status {
    if (field != nullptr) return Status::OK();
    return Status::InvalidArgument(std::string(RunKindName(request.kind)) +
                                   " run requires " + name);
  };
  switch (request.kind) {
    case RunKind::kAnnotate:
      DEXA_RETURN_IF_ERROR(require(request.generator, "generator"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      return Status::OK();
    case RunKind::kAnnotateDurable:
      DEXA_RETURN_IF_ERROR(require(request.generator, "generator"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      DEXA_RETURN_IF_ERROR(require(request.ontology, "ontology"));
      DEXA_RETURN_IF_ERROR(require(request.journal, "journal"));
      return Status::OK();
    case RunKind::kEnact:
      DEXA_RETURN_IF_ERROR(require(request.workflow, "workflow"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      DEXA_RETURN_IF_ERROR(require(request.engine, "engine"));
      return Status::OK();
    case RunKind::kEnactDurable:
      DEXA_RETURN_IF_ERROR(require(request.workflow, "workflow"));
      DEXA_RETURN_IF_ERROR(require(request.registry, "registry"));
      DEXA_RETURN_IF_ERROR(require(request.engine, "engine"));
      DEXA_RETURN_IF_ERROR(require(request.journal, "journal"));
      return Status::OK();
  }
  return Status::InvalidArgument("unknown run kind");
}

/// Exports the finished run into `obs.metrics` when the caller attached a
/// registry: the engine snapshot, and the trace when one was recorded.
void ExportObservability(const obs::RunObservability& obs,
                         const EngineMetricsSnapshot& snapshot) {
  if (obs.metrics == nullptr) return;
  obs.metrics->ImportEngineSnapshot(snapshot);
  if (obs.tracer != nullptr) obs.metrics->ImportTrace(*obs.tracer);
}

/// The request's crash plan; a null `request.crash` is an unarmed plan.
const CrashPlan& CrashPlanOf(const RunRequest& request) {
  static const CrashPlan kUnarmed;
  return request.crash != nullptr ? *request.crash : kUnarmed;
}

/// Parses and validates the committed prefix of a recovered journal against
/// the run about to resume: header fingerprint must match, and the commit
/// records must be a prefix of the registration order (the sequential
/// commit phase guarantees they were written that way).
Result<std::vector<ModuleCommit>> ValidateAnnotateResume(
    const JournalRecovery& recovery, const std::vector<ModulePtr>& modules,
    const ModuleRegistry& registry, const GeneratorOptions& options,
    const Ontology& ontology, uint64_t kb_checksum) {
  if (recovery.records.empty()) {
    // Nothing committed (the crash beat even the header): resume is just a
    // fresh run.
    return std::vector<ModuleCommit>{};
  }
  auto header = DecodeAnnotateRunHeader(recovery.records[0]);
  if (!header.ok()) {
    return Status::Corrupted("journal's first record is not a run header: " +
                             header.status().message());
  }
  const uint64_t fingerprint = AnnotateConfigFingerprint(registry, options);
  if (header->fingerprint != fingerprint ||
      header->modules != modules.size()) {
    return Status::InvalidArgument(
        "journal belongs to a different run configuration (fingerprint " +
        std::to_string(header->fingerprint) + " vs " +
        std::to_string(fingerprint) + ")");
  }
  if (header->kb_checksum != kb_checksum) {
    return Status::InvalidArgument(
        "journal is pinned to a different knowledge base (kb_checksum " +
        std::to_string(header->kb_checksum) + " vs " +
        std::to_string(kb_checksum) +
        "); resume with the same KB image the run started with");
  }
  std::vector<ModuleCommit> committed;
  committed.reserve(recovery.records.size() - 1);
  for (size_t r = 1; r < recovery.records.size(); ++r) {
    auto commit = DecodeModuleCommit(recovery.records[r], ontology);
    if (!commit.ok()) {
      return Status::Corrupted("journal record " + std::to_string(r) +
                               " is not a module commit: " +
                               commit.status().message());
    }
    const size_t index = committed.size();
    if (index >= modules.size() ||
        commit->module_id != modules[index]->spec().id) {
      return Status::Corrupted(
          "journal commit order diverges from registration order at record " +
          std::to_string(r) + " ('" + commit->module_id + "')");
    }
    committed.push_back(std::move(commit).value());
  }
  return committed;
}

/// The kAnnotateDurable body: AnnotateRegistry with a write-ahead journal.
/// Every module's annotation is appended to the journal (through a per-run
/// ordered CommitStream) in registration order, in group commits of about
/// one journal segment each, and reaches the registry only once its group
/// is durable — so a process that dies mid-run can resume from the last
/// committed module.
///
/// Determinism: generation outcomes are schedule-independent (retry jitter
/// and fault draws are keyed on stable hashes, never thread ids or wall
/// time), so a resumed run — replaying the committed prefix and generating
/// only the remainder — produces a registry, pool and provenance state
/// byte-identical to an uninterrupted run at any thread count.
///
/// An injected crash does not produce an error Result: the report comes
/// back with run_status = kCancelled and its counters covering the
/// committed prefix, mirroring what a monitoring process would read from
/// the journal after a real crash.
Result<AnnotateReport> RunDurableAnnotate(const RunRequest& request) {
  const ExampleGenerator& generator = *request.generator;
  ModuleRegistry& registry = *request.registry;
  const Ontology& ontology = *request.ontology;
  RunJournal& journal = *request.journal;
  const CrashPlan& crash = CrashPlanOf(request);
  const std::vector<ModulePtr> modules = registry.AvailableModules();
  InvocationEngine& engine = generator.engine();

  std::vector<ModuleCommit> committed;
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated = ValidateAnnotateResume(*request.resume, modules, registry,
                                           generator.options(), ontology,
                                           request.kb_checksum);
    if (!validated.ok()) return validated.status();
    committed = std::move(validated).value();
    // A recovered journal with any records already carries its header —
    // even when zero commits follow it (crash before the first commit).
    fresh = request.resume->records.empty();
  }

  // Route commits through this run's own ordered stream into the journal:
  // streams are per-run state, so concurrent durable runs sharing one
  // engine cannot interleave each other's journals.
  CommitStream commits(engine,
                       [&journal](uint64_t,
                                  std::span<const std::string> payloads) {
                         return journal.Append(payloads);
                       });

  obs::Tracer* tracer = request.obs.tracer;
  obs::ScopedSpan run(tracer, obs::SpanKind::kRun,
                      "annotate_registry_durable");
  const EngineMetricsSnapshot run_before = engine.metrics().Snapshot();

  AnnotateReport report;
  if (fresh) {
    AnnotateRunHeader header;
    header.modules = modules.size();
    header.fingerprint =
        AnnotateConfigFingerprint(registry, generator.options());
    header.kb_checksum = request.kb_checksum;
    Status appended = commits.Commit(EncodeAnnotateRunHeader(header));
    if (!appended.ok()) return appended;
  }

  // Replay the committed prefix: served from the journal, not re-invoked.
  // Replay spans are marked `replayed` and carry only the counters the
  // journal preserves — no live invocation deltas, because no invocation
  // happened.
  {
    obs::ScopedSpan replay(tracer, obs::SpanKind::kPhase, "replay", run.id());
    for (const ModuleCommit& commit : committed) {
      obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch,
                                  commit.module_id, replay.id());
      module_span.MarkReplayed();
      std::vector<std::pair<std::string, uint64_t>> counters;
      counters.reserve(3);
      if (!commit.examples.empty()) {
        counters.emplace_back("examples", commit.examples.size());
      }
      if (commit.decayed) counters.emplace_back("decayed", 1);
      if (commit.transient_exhausted != 0) {
        counters.emplace_back("transient_exhausted", commit.transient_exhausted);
      }
      module_span.Counters(std::move(counters));
      size_t examples = commit.examples.size();
      DEXA_RETURN_IF_ERROR(
          registry.SetDataExamples(commit.module_id, commit.examples));
      report.transient_exhausted += commit.transient_exhausted;
      report.examples += examples;
      if (commit.decayed) {
        ++report.decayed;
        report.decayed_ids.push_back(commit.module_id);
      } else {
        ++report.annotated;
      }
      ++report.replayed;
      engine.metrics().RecordModuleReplayed();
    }
  }

  // Generate the remainder concurrently; outcomes are schedule-independent
  // so this fan-out cannot perturb the byte-identical-resume contract.
  const size_t start = committed.size();
  std::vector<std::optional<Result<GenerationOutcome>>> outcomes(
      modules.size());
  {
    obs::ScopedSpan generate(tracer, obs::SpanKind::kPhase, "generate",
                             run.id());
    const EngineMetricsSnapshot before = engine.metrics().Snapshot();
    engine.ForEach(modules.size() - start, [&](size_t k) {
      outcomes[start + k] = generator.Generate(*modules[start + k]);
    });
    generate.CounterDeltas(before, engine.metrics().Snapshot());
  }

  // Sequential commit phase, registration order, in groups: each module's
  // record is encoded into the open group, and the group is committed —
  // written and synced once — when it fills the journal segment it lands
  // in. Only then do the group's modules reach the registry and the report,
  // so a module is acknowledged only once its bytes are durable. The crash
  // plan is consulted at each module the way a real crash would interleave
  // with the appends: a crash before X commits the group staged before X;
  // a crash after X (or a torn write of X) commits X's group first.
  obs::ScopedSpan commit_phase(tracer, obs::SpanKind::kPhase, "commit",
                               run.id());
  std::vector<std::string> group;
  std::vector<ModuleCommit> staged;
  size_t group_bytes = 0;
  auto commit_group = [&]() -> Status {
    Status durable = commits.CommitGroup(group);
    group.clear();
    group_bytes = 0;
    std::vector<ModuleCommit> acknowledged = std::move(staged);
    staged.clear();
    DEXA_RETURN_IF_ERROR(durable);
    for (ModuleCommit& commit : acknowledged) {
      const size_t examples = commit.examples.size();
      DEXA_RETURN_IF_ERROR(registry.SetDataExamples(
          commit.module_id, std::move(commit.examples)));
      report.transient_exhausted += commit.transient_exhausted;
      report.examples += examples;
      if (commit.decayed) {
        ++report.decayed;
        report.decayed_ids.push_back(commit.module_id);
      } else {
        ++report.annotated;
      }
      engine.metrics().RecordModuleReinvoked();
    }
    return Status::OK();
  };

  for (size_t i = start; i < modules.size(); ++i) {
    const std::string& id = modules[i]->spec().id;
    if (crash.point == CrashPoint::kCrashBeforeCommit && crash.Matches(id)) {
      report.run_status = commit_group();
      if (report.run_status.ok()) {
        report.run_status = Status::Cancelled(
            "crash injected before commit of module '" + id + "'");
      }
      break;
    }

    Result<GenerationOutcome>& outcome = *outcomes[i];
    if (!outcome.ok()) {
      report.run_status = commit_group();
      if (report.run_status.ok()) report.run_status = outcome.status();
      break;
    }

    obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch, id,
                                commit_phase.id());
    {
      // Same omit-zero, single-locked-call shape as the plain annotate
      // path, so a resumed run's live suffix traces identically.
      std::vector<std::pair<std::string, uint64_t>> counters;
      counters.reserve(5);
      auto add = [&counters](const char* name, uint64_t value) {
        if (value != 0) counters.emplace_back(name, value);
      };
      add("combinations_tried", outcome->stats.combinations_tried);
      add("invocation_errors", outcome->stats.invocation_errors);
      add("transient_exhausted", outcome->stats.transient_exhausted);
      add("decayed", outcome->stats.decayed ? 1 : 0);
      add("examples", outcome->examples.size());
      module_span.Counters(std::move(counters));
    }

    ModuleCommit& commit = staged.emplace_back();
    commit.module_id = id;
    commit.decayed = outcome->stats.decayed;
    commit.transient_exhausted = outcome->stats.transient_exhausted;
    commit.examples = std::move(outcome->examples);
    group.push_back(EncodeModuleCommit(commit, ontology));
    group_bytes += kJournalFrameOverhead + group.back().size();

    const bool crash_here =
        crash.Matches(id) && (crash.point == CrashPoint::kCrashAfterCommit ||
                              crash.point == CrashPoint::kTornWrite);
    if (crash_here || group_bytes >= journal.bytes_until_roll()) {
      report.run_status = commit_group();
      if (!report.run_status.ok()) break;
    }
    if (!crash_here) continue;
    if (crash.point == CrashPoint::kCrashAfterCommit) {
      report.run_status = Status::Cancelled(
          "crash injected after commit of module '" + id + "'");
    } else {
      // The record for `id` lands half-written: seal the stream, then
      // damage the tail the way an interrupted flush would.
      DEXA_RETURN_IF_ERROR(journal.Seal());
      DEXA_RETURN_IF_ERROR(TearJournalTail(journal.dir(), crash.seed,
                                           crash.torn_flips,
                                           crash.torn_truncate_bytes));
      report.run_status = Status::Cancelled(
          "torn-write crash injected at commit of module '" + id + "'");
    }
    break;
  }
  // Every early exit above set a failed run_status; a run that got through
  // the whole registry still has its last, partial group open.
  if (report.run_status.ok()) report.run_status = commit_group();

  commit_phase.End();
  report.metrics = engine.metrics().Snapshot();
  run.CounterDeltas(run_before, report.metrics);
  return report;
}

/// Decodes the committed steps of a recovered enactment journal into a
/// per-processor replay vector, validating the header against this run.
Result<std::vector<std::optional<InvocationRecord>>> ValidateEnactResume(
    const JournalRecovery& recovery, const Workflow& workflow,
    const std::vector<Value>& inputs) {
  std::vector<std::optional<InvocationRecord>> replayed(
      workflow.processors.size());
  if (recovery.records.empty()) return replayed;

  auto header = DecodeEnactRunHeader(recovery.records[0]);
  if (!header.ok()) {
    return Status::Corrupted("journal's first record is not a run header: " +
                             header.status().message());
  }
  const uint64_t fingerprint = EnactConfigFingerprint(workflow.id, inputs);
  if (header->fingerprint != fingerprint ||
      header->processors != workflow.processors.size()) {
    return Status::InvalidArgument(
        "journal belongs to a different enactment (workflow '" +
        header->workflow_id + "')");
  }
  for (size_t r = 1; r < recovery.records.size(); ++r) {
    auto commit = DecodeStepCommit(recovery.records[r]);
    if (!commit.ok()) {
      return Status::Corrupted("journal record " + std::to_string(r) +
                               " is not a step commit: " +
                               commit.status().message());
    }
    if (commit->processor < 0 ||
        static_cast<size_t>(commit->processor) >= replayed.size()) {
      return Status::Corrupted("journal step commit names processor " +
                               std::to_string(commit->processor) +
                               ", out of range");
    }
    replayed[static_cast<size_t>(commit->processor)] =
        std::move(commit->record);
  }
  return replayed;
}

/// The kEnactDurable body: EnactResilient with a write-ahead journal.
/// Every completed step is appended to the journal before its outputs feed
/// downstream processors, so a killed enactment resumes from the last
/// committed step. Outputs and provenance of a resumed enactment are
/// byte-identical to an uninterrupted one (module outcomes are
/// deterministic given their inputs; replayed steps carry their recorded
/// outputs). An injected crash, keyed on the module id of the step being
/// committed, fails the call with kCancelled (for the torn variant, after
/// damaging the journal tail).
Result<ResilientEnactmentResult> RunDurableEnact(const RunRequest& request) {
  const Workflow& workflow = *request.workflow;
  const std::vector<Value>& inputs = request.inputs;
  InvocationEngine& engine = *request.engine;
  RunJournal& journal = *request.journal;
  const CrashPlan& crash = CrashPlanOf(request);
  std::vector<std::optional<InvocationRecord>> replayed(
      workflow.processors.size());
  bool fresh = true;
  if (request.resume != nullptr) {
    auto validated = ValidateEnactResume(*request.resume, workflow, inputs);
    if (!validated.ok()) return validated.status();
    replayed = std::move(validated).value();
    fresh = request.resume->records.empty();
  }
  for (const std::optional<InvocationRecord>& slot : replayed) {
    if (slot.has_value()) engine.metrics().RecordModuleReplayed();
  }

  // Per-run commit stream: see RunDurableAnnotate — concurrent durable
  // runs sharing one engine must not interleave journals.
  CommitStream commits(engine,
                       [&journal](uint64_t,
                                  std::span<const std::string> payloads) {
                         return journal.Append(payloads);
                       });

  if (fresh) {
    EnactRunHeader header;
    header.workflow_id = workflow.id;
    header.processors = workflow.processors.size();
    header.fingerprint = EnactConfigFingerprint(workflow.id, inputs);
    DEXA_RETURN_IF_ERROR(commits.Commit(EncodeEnactRunHeader(header)));
  }

  EnactHooks hooks;
  hooks.replayed = &replayed;
  hooks.obs = request.obs;
  hooks.on_commit = [&](int processor,
                        const InvocationRecord& record) -> Status {
    if (crash.point == CrashPoint::kCrashBeforeCommit &&
        crash.Matches(record.module_id)) {
      return Status::Cancelled("crash injected before commit of step '" +
                               record.processor_name + "'");
    }
    StepCommit commit;
    commit.processor = processor;
    commit.record = record;
    DEXA_RETURN_IF_ERROR(commits.Commit(EncodeStepCommit(commit)));
    engine.metrics().RecordModuleReinvoked();
    if (crash.Matches(record.module_id)) {
      if (crash.point == CrashPoint::kCrashAfterCommit) {
        return Status::Cancelled("crash injected after commit of step '" +
                                 record.processor_name + "'");
      }
      if (crash.point == CrashPoint::kTornWrite) {
        DEXA_RETURN_IF_ERROR(journal.Seal());
        DEXA_RETURN_IF_ERROR(TearJournalTail(journal.dir(), crash.seed,
                                             crash.torn_flips,
                                             crash.torn_truncate_bytes));
        return Status::Cancelled("torn-write crash injected at step '" +
                                 record.processor_name + "'");
      }
    }
    return Status::OK();
  };

  return EnactResilient(workflow, *request.registry, inputs, engine, hooks);
}

/// Completion status of an enactment: OK when every processor ran, else a
/// typed kUnavailable naming the processors the run skipped (their module
/// decayed, or a transient fault outlasted the retry policy).
Status EnactRunStatus(const Workflow& workflow,
                      const ResilientEnactmentResult& enact) {
  if (enact.complete()) return Status::OK();
  std::string message = "enactment of workflow '";
  message += workflow.id;
  message += "' skipped ";
  message += std::to_string(enact.skipped_processors.size());
  message += " processor(s): ";
  message += Join(enact.skipped_processors, ", ");
  return Status::Unavailable(message);
}

}  // namespace

const char* RunKindName(RunKind kind) {
  switch (kind) {
    case RunKind::kAnnotate:
      return "annotate";
    case RunKind::kAnnotateDurable:
      return "annotate_durable";
    case RunKind::kEnact:
      return "enact";
    case RunKind::kEnactDurable:
      return "enact_durable";
  }
  return "unknown";
}

Result<RunResult> SubmitRun(const RunRequest& request) {
  DEXA_RETURN_IF_ERROR(ValidateRequest(request));

  RunResult result;
  result.kind = request.kind;

  switch (request.kind) {
    case RunKind::kAnnotate: {
      auto report = AnnotateRegistry(*request.generator, *request.registry,
                                     request.obs.tracer);
      if (!report.ok()) return report.status();
      result.annotate = std::move(report).value();
      result.run_status = result.annotate.run_status;
      ExportObservability(request.obs, result.annotate.metrics);
      return result;
    }
    case RunKind::kAnnotateDurable: {
      auto report = RunDurableAnnotate(request);
      if (!report.ok()) return report.status();
      result.annotate = std::move(report).value();
      result.run_status = result.annotate.run_status;
      ExportObservability(request.obs, result.annotate.metrics);
      return result;
    }
    case RunKind::kEnact: {
      EnactHooks hooks;
      hooks.obs = request.obs;
      auto enacted = EnactResilient(*request.workflow, *request.registry,
                                    request.inputs, *request.engine, hooks);
      if (!enacted.ok()) return enacted.status();
      result.enact = std::move(enacted).value();
      result.run_status = EnactRunStatus(*request.workflow, result.enact);
      ExportObservability(request.obs, request.engine->metrics().Snapshot());
      return result;
    }
    case RunKind::kEnactDurable: {
      auto enacted = RunDurableEnact(request);
      if (!enacted.ok()) return enacted.status();
      result.enact = std::move(enacted).value();
      result.run_status = EnactRunStatus(*request.workflow, result.enact);
      ExportObservability(request.obs, request.engine->metrics().Snapshot());
      return result;
    }
  }
  return Status::InvalidArgument("unknown run kind");
}

RunRequest MakeAnnotateRun(const ExampleGenerator& generator,
                           ModuleRegistry& registry) {
  RunRequest request;
  request.kind = RunKind::kAnnotate;
  request.generator = &generator;
  request.registry = &registry;
  return request;
}

RunRequest MakeDurableAnnotateRun(const ExampleGenerator& generator,
                                  ModuleRegistry& registry,
                                  const Ontology& ontology,
                                  RunJournal& journal) {
  RunRequest request;
  request.kind = RunKind::kAnnotateDurable;
  request.generator = &generator;
  request.registry = &registry;
  request.ontology = &ontology;
  request.journal = &journal;
  return request;
}

RunRequest MakeEnactRun(const Workflow& workflow, ModuleRegistry& registry,
                        std::vector<Value> inputs, InvocationEngine& engine) {
  RunRequest request;
  request.kind = RunKind::kEnact;
  request.workflow = &workflow;
  request.registry = &registry;
  request.inputs = std::move(inputs);
  request.engine = &engine;
  return request;
}

RunRequest MakeDurableEnactRun(const Workflow& workflow,
                               ModuleRegistry& registry,
                               std::vector<Value> inputs,
                               InvocationEngine& engine, RunJournal& journal) {
  RunRequest request = MakeEnactRun(workflow, registry, std::move(inputs),
                                    engine);
  request.kind = RunKind::kEnactDurable;
  request.journal = &journal;
  return request;
}

}  // namespace dexa
