#ifndef DEXA_KBIMAGE_FORMAT_H_
#define DEXA_KBIMAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace dexa::kbimage {

/// On-disk layout of a compiled KB image (see docs/KB_IMAGE.md).
///
/// A single relocatable file, mapped read-only:
///
///   [ ImageHeader       | 64 bytes, fixed                       ]
///   [ SectionEntry[n]   | 24 bytes each, n = header.sections    ]
///   [ section payloads  | each 8-byte aligned, zero-padded gaps ]
///
/// Integers are fixed-width little-endian (the only byte order dexa
/// targets; the loader rejects a foreign-endian image through its magic).
/// Every section payload carries a CRC-32 in its table entry, and the
/// whole byte range after the header is sealed with SealHash64 (seal.h) in
/// `header.seal` — the same two-tier damage taxonomy as the write-ahead
/// journal: any mismatch is a typed kCorrupted, never undefined behavior.
///
/// All variable-size structures inside payloads are offset-based (no
/// pointers), so the image is position-independent and can be shared
/// between processes.

/// "DEXAKBI1" — distinct from the journal magic "DEXAWAL1".
inline constexpr char kMagic[8] = {'D', 'E', 'X', 'A', 'K', 'B', 'I', '1'};

inline constexpr uint32_t kFormatVersion = 1;

/// Section payload alignment; lets the loader hand out typed
/// uint32/uint64 array views without unaligned reads (the UBSan leg of
/// check_static.sh runs with -fno-sanitize-recover).
inline constexpr size_t kSectionAlign = 8;

enum SectionId : uint32_t {
  /// u64 kb_seed, u32 ontology_name_ref, u32 concept_count,
  /// u32 subsumption_words_per_row, u32 reserved.
  kMeta = 1,
  /// u32 count; count × {u32 offset, u32 length} (into the blob that
  /// follows the pair array); blob bytes. Strings are interned: every
  /// name, accession, sequence, ... in the image is one table entry.
  kStrings = 2,
  /// u32 count; name_ref[count]; covered[count] (u32 0/1);
  /// parent_offsets[count+1]; child_offsets[count+1]; parent ids (u32);
  /// child ids (u32). Concept ids are the ontology insertion indices,
  /// already dense — the image preserves them verbatim.
  kConcepts = 3,
  /// concept_count rows × words_per_row u64 words. Row `a`, bit `b` is
  /// set iff a ⊑ b (IsSubsumedBy(a, b)). A subsumption check is a single
  /// word load + mask.
  kSubsumption = 4,
  /// u32 offsets[count+1]; flat u32 concept ids. Row `c` is the
  /// precomputed Ontology::Descendants(c), byte-for-byte in its
  /// deterministic pre-order child-rank order.
  kDescendants = 5,
  /// Same shape as kDescendants for Ontology::Partitions(c).
  kPartitions = 6,
  /// concept_count × concept_count u32 matrix, row-major:
  /// lcs[a * count + b] = LeastCommonSubsumer(a, b).
  kLcs = 7,
  /// u32 depth[count] (longest parent chain to a root).
  kDepths = 8,
  /// Serialized KnowledgeBase entity vectors: a byte stream of u32
  /// string refs / u32 counts / u64 bit-cast doubles, decoded with
  /// memcpy (no alignment requirement). Materialized into a real
  /// KnowledgeBase once at load; entity lookups stay single-source.
  kEntities = 9,
};

struct ImageHeader {
  char magic[8];
  uint32_t version = 0;
  uint32_t sections = 0;
  uint64_t file_size = 0;
  /// SealHash64 (seal.h) over bytes [sizeof(ImageHeader), file_size).
  uint64_t seal = 0;
  uint8_t reserved[32] = {};
};
static_assert(sizeof(ImageHeader) == 64, "header layout is part of the format");

struct SectionEntry {
  uint32_t id = 0;
  uint32_t crc32 = 0;   ///< CRC-32 (IEEE) of the payload bytes.
  uint64_t offset = 0;  ///< From file start; kSectionAlign-aligned.
  uint64_t size = 0;    ///< Payload size in bytes.
};
static_assert(sizeof(SectionEntry) == 24,
              "section table layout is part of the format");

}  // namespace dexa::kbimage

#endif  // DEXA_KBIMAGE_FORMAT_H_
