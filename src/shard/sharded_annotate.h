#ifndef DEXA_SHARD_SHARDED_ANNOTATE_H_
#define DEXA_SHARD_SHARDED_ANNOTATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "core/engine_config.h"
#include "core/example_generator.h"
#include "corpus/fault_injector.h"
#include "durability/journal.h"
#include "modules/registry.h"
#include "ontology/ontology.h"
#include "pool/instance_pool.h"
#include "shard/manifest.h"

namespace dexa {

/// The sharded annotation runner: partitions a registry deterministically
/// by stable module-id hash, executes each shard as an independent durable
/// annotate RunRequest (own journal segment directory, own engine, own
/// tracer), and merges the per-shard journals into one canonical output
/// that is byte-identical to an equivalent single-process durable run —
/// regardless of shard count, thread count, or shard completion order.
///
/// Why the bytes line up (docs/SHARDING.md spells this out):
///  * annotation is module-local, so a sub-registry of any subset yields
///    exactly the one-shot per-module commits;
///  * journal framing is a pure function of the record payload sequence
///    and the segment-size cap, both pinned in the manifest;
///  * the merge re-frames the commit payloads verbatim in full-registry
///    registration order under a synthesized one-shot run header, so even
///    a crash-resumed shard — whose own segment files were renumbered by
///    recovery — contributes the identical record sequence.

/// Stable assignment of a module to a shard. Pure function of
/// (module id, shards, salt): independent of registration order, corpus
/// census, and process — the property resume-after-crash rests on.
uint32_t ShardOfModule(const std::string& module_id, uint32_t shards,
                       uint64_t salt);

/// Module ids of each shard, in full-registry registration order (the order
/// each shard annotates in, and the order the merge interleaves by).
std::vector<std::vector<std::string>> PartitionRegistry(
    const ModuleRegistry& registry, uint32_t shards, uint64_t salt);

/// Configuration of a sharded run. The per-shard engine/generator settings
/// ride in the EngineConfig passed alongside (its generator options are
/// part of the pinned fingerprint).
struct ShardOptions {
  uint32_t shards = 1;
  /// Run root: holds MANIFEST, one `shard-<k>` journal directory per
  /// shard, and the `merged` canonical journal.
  std::string root;
  uint64_t partition_salt = 0x5A17;
  /// Pinned into every run header (0 = no KB image file).
  uint64_t kb_checksum = 0;
  /// Journal framing every shard and the merge share.
  JournalOptions journal;
  /// Crash injection, keyed by module id — only the owning shard crashes.
  const CrashPlan* crash = nullptr;
  /// Engine to fan the shard runs out on; nullptr runs shards sequentially.
  /// Each shard still builds its own inner engine from the EngineConfig.
  InvocationEngine* orchestrator = nullptr;
  /// Attach a per-shard tracer and return its Chrome trace JSON.
  bool traced = false;
};

/// What one shard run produced.
struct ShardRunReport {
  uint32_t shard = 0;
  AnnotateReport report;
  std::string journal_dir;
  /// True when the shard resumed from a prior journal instead of starting
  /// fresh.
  bool resumed = false;
  /// Chrome trace JSON of the shard's run (only when ShardOptions::traced).
  std::string chrome_trace;
};

/// What MergeShards produced.
struct MergeReport {
  /// The canonical one-shot-equivalent report (metrics are not synthesized:
  /// engine counters live in the per-shard reports).
  AnnotateReport merged;
  /// Records in the merged journal (modules_total + 1 header).
  uint64_t records = 0;
  std::string merged_dir;
};

/// Everything a full sharded run produced.
struct ShardedAnnotateReport {
  /// Merged canonical report. When a shard aborted (injected crash, IO
  /// fault), no merge happens and `merged.run_status` carries the first
  /// failing shard's status instead — re-submit to resume.
  AnnotateReport merged;
  std::vector<ShardRunReport> shards;
  std::string merged_dir;
  uint64_t merged_records = 0;
};

/// Computes the partition and pins the manifest at `<root>/MANIFEST`.
/// When a manifest already exists (resume), it is validated against the
/// registry + config instead — any mismatch fails kInvalidArgument rather
/// than merging foreign journals.
[[nodiscard]] Result<ShardManifest> InitShardedRun(
    const ModuleRegistry& registry, const EngineConfig& config,
    const ShardOptions& options, IoEnv* io = nullptr);

/// Runs one shard to completion as a durable annotate RunRequest. Resumes
/// automatically when the shard's journal directory holds a valid prefix
/// (crash-resume); starts fresh otherwise. The registry is the FULL
/// registry — the shard's sub-registry is derived internally from the
/// pinned manifest.
[[nodiscard]] Result<ShardRunReport> RunShard(const ModuleRegistry& registry,
                                              const Ontology& ontology,
                                              const AnnotatedInstancePool& pool,
                                              const EngineConfig& config,
                                              const ShardOptions& options,
                                              uint32_t shard, IoEnv* io = nullptr);

/// Merges the completed shard journals into `<root>/merged` (byte-identical
/// to the one-shot durable journal) and installs every module's examples
/// into `registry`. Fails kUnavailable when any shard's journal is missing
/// or incomplete (run or resume it first), kCorrupted on record damage or
/// cross-run mixups.
[[nodiscard]] Result<MergeReport> MergeShards(ModuleRegistry& registry,
                                              const Ontology& ontology,
                                              const EngineConfig& config,
                                              const ShardOptions& options,
                                              IoEnv* io = nullptr);

/// The whole protocol: init (or validate) the manifest, run every shard —
/// fanned out on `options.orchestrator` when set — and merge. Shards that
/// already completed in a previous attempt replay from their journals, so
/// calling this again after a crash resumes exactly the unfinished subset.
[[nodiscard]] Result<ShardedAnnotateReport> RunShardedAnnotate(
    ModuleRegistry& registry, const Ontology& ontology,
    const AnnotatedInstancePool& pool, const EngineConfig& config,
    const ShardOptions& options, IoEnv* io = nullptr);

}  // namespace dexa

#endif  // DEXA_SHARD_SHARDED_ANNOTATE_H_
