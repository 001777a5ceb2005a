#ifndef DEXA_SHARD_MANIFEST_H_
#define DEXA_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"

namespace dexa {

/// Per-shard row of a manifest: how many modules the partition function
/// assigned to the shard, and the AnnotateConfigFingerprint of exactly that
/// sub-registry (what the shard's own journal run-header must carry).
struct ShardManifestEntry {
  uint64_t modules = 0;
  uint64_t fingerprint = 0;
};

/// The top-level description of a sharded annotation run, pinned to disk at
/// `<root>/MANIFEST` before any shard starts. It freezes everything the
/// merge step must agree on with every shard — partition arity and salt,
/// the full-registry fingerprint, the KB checksum, and the journal framing
/// options — so that resume-after-crash of any shard subset either
/// reproduces the byte-identical one-shot output or is rejected as a
/// configuration mismatch, never silently merged wrong.
///
/// Text format (strict: exact line order, lf-separated, no extras):
///
///   DEXASHARD1
///   shards <u32>
///   modules <u64>
///   fingerprint <u64>
///   kb_checksum <u64>
///   salt <u64>
///   segment_bytes <u64>
///   entry <k> <modules> <fingerprint>     (for k = 0 .. shards-1, in order)
///   end
struct ShardManifest {
  uint32_t shards = 0;
  /// Total modules across all shards (the one-shot run-header count).
  uint64_t modules_total = 0;
  /// AnnotateConfigFingerprint of the full registry + generator options.
  uint64_t fingerprint = 0;
  /// Seal of the KB image file the shards reason over (0 = no image file;
  /// reasoning used an image compiled in memory).
  uint64_t kb_checksum = 0;
  /// Salt of the stable-hash partition function.
  uint64_t partition_salt = 0;
  /// Journal segment-size cap every shard and the merge must share (framing
  /// is part of the byte-equality contract).
  uint64_t segment_bytes = 0;
  std::vector<ShardManifestEntry> entries;
};

/// Canonical encoding; DecodeShardManifest(EncodeShardManifest(m)) == m and
/// re-encoding a decoded manifest is a byte fixed point.
std::string EncodeShardManifest(const ShardManifest& manifest);

/// Strict decode: anything other than a canonical encoding — wrong magic,
/// missing/duplicated/reordered lines, non-numeric or overflowing counts,
/// entry index gaps, trailing bytes — fails kCorrupted. Never crashes on
/// arbitrary input.
[[nodiscard]] Result<ShardManifest> DecodeShardManifest(std::string_view text);

/// Writes the manifest atomically to `<root>/MANIFEST` through `io`
/// (nullptr = real filesystem).
[[nodiscard]] Status WriteShardManifest(const std::string& root,
                                        const ShardManifest& manifest,
                                        IoEnv* io = nullptr);

/// Reads and decodes `<root>/MANIFEST`; kNotFound when absent.
[[nodiscard]] Result<ShardManifest> ReadShardManifest(const std::string& root,
                                                      IoEnv* io = nullptr);

/// Path helpers shared by the runner, the serve layer and tests.
std::string ShardManifestPath(const std::string& root);
std::string ShardDir(const std::string& root, uint32_t shard);
std::string MergedDir(const std::string& root);

}  // namespace dexa

#endif  // DEXA_SHARD_MANIFEST_H_
