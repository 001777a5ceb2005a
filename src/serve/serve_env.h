#ifndef DEXA_SERVE_SERVE_ENV_H_
#define DEXA_SERVE_SERVE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine_config.h"
#include "corpus/corpus.h"
#include "kbimage/compiled_kb.h"
#include "pool/instance_pool.h"
#include "provenance/workflow_corpus.h"
#include "serve/run_manager.h"

namespace dexa::serve {

/// Configuration of the shared serving environment.
struct ServeEnvOptions {
  /// Compiled KB image to serve from; "" builds the in-memory corpus.
  std::string kb_image_path;

  /// Directory durable runs journal under (one `run-<n>` subdirectory per
  /// run). "" disables the durable kinds.
  std::string journal_root;

  /// Worker threads of the shared engine (0 = hardware concurrency).
  size_t threads = 1;

  /// Engine seed — per-task RNG streams fork from it, so it pins the whole
  /// run output.
  uint64_t seed = 0x5eed;
};

/// Everything the daemon shares across runs — corpus, ontology, concept
/// cache, workflow corpus, instance pool, and ONE pooled InvocationEngine —
/// plus the factories that turn protocol-level submissions into
/// PreparedRuns. The recipe mirrors the CLI's BuildEnv, so every run the
/// daemon executes is byte-identical to the same run issued one-shot from
/// the command line (the serve equivalence suite pins this).
///
/// Isolation model: runs share the immutable state (KB, ontology, cache,
/// pool, modules) and the engine, but each PreparedRun gets its own
/// ModuleRegistry (annotations land per-run), its own ExampleGenerator,
/// journal, tracer and MetricsRegistry — concurrent tenants cannot observe
/// each other's annotations or journals.
class ServeEnv {
 public:
  [[nodiscard]] static Result<std::unique_ptr<ServeEnv>> Create(
      ServeEnvOptions options);

  ServeEnv(const ServeEnv&) = delete;
  ServeEnv& operator=(const ServeEnv&) = delete;

  // -- Run factories -------------------------------------------------------

  /// Annotation of `count` available modules starting at `offset` (count 0
  /// = through the end), in a per-run subset registry. Example generation
  /// is module-local, so each module's annotation is byte-identical to the
  /// one a full-registry run produces. `traced` attaches a per-run Tracer.
  [[nodiscard]] Result<PreparedRun> PrepareAnnotate(size_t offset,
                                                    size_t count, bool traced);

  /// Durable full-registry annotation journaled under a fresh
  /// `run-<n>` directory. The per-run registry is a full copy in
  /// registration order, so the journal fingerprint matches across daemon
  /// restarts. `crash` (optional) arms in-process crash injection;
  /// `io_fault` (optional) arms a per-run FaultyIoEnv the journal, RUN
  /// descriptor, and DONE marker all route through — injected disk faults
  /// fail the run typed while the daemon and other tenants carry on.
  [[nodiscard]] Result<PreparedRun> PrepareDurableAnnotate(
      const CrashPlan* crash, const IoFaultProfile* io_fault = nullptr);

  /// Sharded durable full-registry annotation (serve kind "shard"): the
  /// registry is partitioned across `shards` deterministic shards, each
  /// journaled under `run-<n>/shard-<k>`, and the per-shard journals are
  /// merged into the canonical `run-<n>/merged` journal — byte-identical to
  /// a one-shot durable run. `crash` arms per-module crash injection (only
  /// the owning shard crashes); resubmitting after a crash resumes the
  /// unfinished shard subset.
  [[nodiscard]] Result<PreparedRun> PrepareShardedAnnotate(
      uint32_t shards, const CrashPlan* crash = nullptr);

  /// Resilient enactment of workflow `workflow_index` of the generated
  /// corpus on its recorded seeds; `durable` journals every step.
  /// `io_fault` as in PrepareDurableAnnotate (durable runs only).
  [[nodiscard]] Result<PreparedRun> PrepareEnact(
      size_t workflow_index, bool durable,
      const IoFaultProfile* io_fault = nullptr);

  /// Resumes the durable run journaled in `dir`: recovers the journal,
  /// reads the run's RUN descriptor, and rebuilds the same request with
  /// `resume` pointing at the recovered records.
  [[nodiscard]] Result<PreparedRun> PrepareResume(const std::string& dir);

  /// Journal directories under journal_root holding an unfinished durable
  /// run (RUN descriptor present, DONE marker absent), sorted. These are
  /// the runs a restarted daemon resumes at startup.
  std::vector<std::string> UnfinishedJournalDirs() const;

  // -- Shared state --------------------------------------------------------

  InvocationEngine& engine() { return *engine_; }
  const Corpus& corpus() const { return corpus_; }
  size_t workflow_count() const { return workflows_.items.size(); }
  size_t available_modules() const { return corpus_.available_ids.size(); }
  uint64_t kb_checksum() const { return kb_checksum_; }
  const std::string& journal_root() const { return options_.journal_root; }

  /// Stable digest of a run registry's annotations — what clients compare
  /// against a one-shot run to check byte-identical results.
  uint64_t AnnotationsDigest(const ModuleRegistry& registry) const;

  /// Stable digest of an enactment's outputs.
  static uint64_t EnactDigest(const ResilientEnactmentResult& result);

 private:
  ServeEnv() = default;

  /// Allocates the next `run-<n>` journal directory name.
  std::string NextRunDir();

  /// Per-run registry holding available modules [offset, offset+count).
  [[nodiscard]] Result<std::unique_ptr<ModuleRegistry>> SubsetRegistry(
      size_t offset, size_t count) const;

  /// Per-run full copy of the corpus registry, registration order
  /// preserved (durable runs: the journal fingerprint covers it).
  [[nodiscard]] Result<std::unique_ptr<ModuleRegistry>> FullRegistry() const;

  std::unique_ptr<ExampleGenerator> MakeGenerator() const;

  ServeEnvOptions options_;
  Corpus corpus_;
  WorkflowCorpus workflows_;
  ProvenanceCorpus provenance_;
  std::unique_ptr<AnnotatedInstancePool> pool_;
  /// The KB every run reasons over: the loaded image file, or the corpus
  /// ontology compiled in memory.
  std::shared_ptr<const kbimage::CompiledKb> kb_;
  /// Seal of the image file, or 0 when none was given; pinned into
  /// durable runs.
  uint64_t kb_checksum_ = 0;
  EngineConfig config_;
  std::unique_ptr<InvocationEngine> engine_;
  uint64_t next_run_dir_ = 0;
};

}  // namespace dexa::serve

#endif  // DEXA_SERVE_SERVE_ENV_H_
