#ifndef DEXA_KBIMAGE_COMPILED_KB_H_
#define DEXA_KBIMAGE_COMPILED_KB_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/io_env.h"
#include "common/result.h"
#include "kb/knowledge_base.h"
#include "kbimage/string_table.h"
#include "ontology/ontology.h"

namespace dexa::kbimage {

/// The one reasoner of the annotation pipeline: a read-only view over a
/// compiled KB image (format.h), answering the reasoning primitives the
/// pipeline needs (Section 3 of the paper) keyed exclusively by dense
/// ConceptId. Names cross this boundary only at the edges — FindConcept to
/// intern a name once, ConceptName to render output.
///
/// The image comes from a file (Load, memory-mapped) or is compiled from an
/// in-process Ontology (Compile, heap-owned); both validate the bytes with
/// the same parser and the whole damage ladder — magic, version, size,
/// SealHash64 seal, per-section CRC-32, structural bounds — and any
/// mismatch is a typed kCorrupted (never undefined behavior; fuzz_test
/// pins this the same way it pins journal recovery). After that, every
/// query is an in-place read of the image:
///
///   * IsSubsumedBy / Comparable — one bitset word load + mask each;
///   * Descendants / Partitions — a span over a precomputed id list, in
///     the Ontology's exact deterministic order;
///   * LeastCommonSubsumer / Depth — matrix / array lookup.
///
/// Every answer equals the Ontology's own reasoning (the equivalence
/// kbimage_test pins query by query), so a run reasons identically over a
/// compiled and a loaded image. The reasoning queries are total: an id
/// outside the image (kInvalidConcept included, e.g. an unset query
/// concept) is subsumed only by itself and has no descendants, partitions
/// or common subsumer. ConceptName, Covered and Depth take ids of the
/// image.
///
/// Thread safety: deep-immutable after construction; concurrent readers
/// need no synchronization.
class CompiledKb {
 public:
  [[nodiscard]] static Result<std::unique_ptr<CompiledKb>> Load(
      const std::string& path, IoEnv* io = nullptr);

  /// Compiles `ontology` (with an empty entity section) into a heap-owned
  /// image and parses it exactly as Load would. Fails only for an empty
  /// ontology.
  [[nodiscard]] static Result<std::unique_ptr<CompiledKb>> Compile(
      const Ontology& ontology);

  /// Compile for callers that cannot return a Status (value-returning
  /// factories, fixtures): aborts with the status on stderr. Every
  /// non-empty Ontology compiles, so a failure here is a bug.
  static std::shared_ptr<const CompiledKb> CompileOrDie(
      const Ontology& ontology);

  ~CompiledKb();

  CompiledKb(const CompiledKb&) = delete;
  CompiledKb& operator=(const CompiledKb&) = delete;

  /// SealHash64 seal of the image. Durable runs pin the seal of an image
  /// *file* in their run header so a resume refuses a swapped KB.
  uint64_t checksum() const { return seal_; }

  size_t ConceptCount() const { return concept_count_; }

  /// Name of `c`; the image owns the storage for its own lifetime.
  std::string_view ConceptName(ConceptId c) const;

  /// Interns a concept name; kInvalidConcept when absent. Boundary-only.
  ConceptId FindConcept(std::string_view name) const;

  /// True if `c`'s domain is covered by its sub-concepts (Section 3.2).
  bool Covered(ConceptId c) const;

  /// a ⊑ b, reflexive (Ontology::IsSubsumedBy semantics).
  bool IsSubsumedBy(ConceptId a, ConceptId b) const;

  /// a ⊑ b or b ⊑ a.
  bool Comparable(ConceptId a, ConceptId b) const {
    return IsSubsumedBy(a, b) || IsSubsumedBy(b, a);
  }

  /// Descendants of `c` including `c`, in the Ontology's deterministic
  /// pre-order child-rank order. The span lives as long as the image.
  std::span<const ConceptId> Descendants(ConceptId c) const;

  /// Partition set of `c` (realizable descendants, Section 3.1), in
  /// Ontology::Partitions order. The span lives as long as the image.
  std::span<const ConceptId> Partitions(ConceptId c) const;

  /// Deterministic least common subsumer (max depth, ties → smallest id).
  ConceptId LeastCommonSubsumer(ConceptId a, ConceptId b) const;

  /// Longest parent-chain length to a root.
  int Depth(ConceptId c) const;

  // -- Image metadata ------------------------------------------------
  uint64_t kb_seed() const { return kb_seed_; }
  std::string_view ontology_name() const;
  size_t image_bytes() const { return map_.size(); }

  /// Rebuilds a full in-memory Ontology from the concept section. The
  /// reconstruction inserts concepts in stored id order, so it
  /// reproduces the original ids, names, edge order, and covered flags
  /// exactly (kbimage_test recompiles it to the same bytes).
  [[nodiscard]] Result<Ontology> MaterializeOntology() const;

  /// Decodes the entity section into a KnowledgeBase (deserialization +
  /// index build only — the expensive generative build is skipped; this
  /// is where the compiled image wins its cold-start budget).
  [[nodiscard]] Result<std::shared_ptr<KnowledgeBase>>
  MaterializeKnowledgeBase() const;

 private:
  CompiledKb() = default;

  /// Takes ownership of `image` (at least header-sized) and parses it.
  [[nodiscard]] static Result<std::unique_ptr<CompiledKb>> Adopt(
      MmapRegion image);

  [[nodiscard]] Status Parse();

  const char* Section(uint32_t id, size_t* size) const;

  /// True when `c` names a concept of this image.
  bool Has(ConceptId c) const {
    return static_cast<uint32_t>(c) < concept_count_;
  }

  // Mapping.
  MmapRegion map_;

  // Parsed views into the mapping.
  struct SectionView {
    const char* data = nullptr;
    size_t size = 0;
  };
  std::unordered_map<uint32_t, SectionView> sections_;
  StringTableView strings_;
  uint64_t seal_ = 0;
  uint64_t kb_seed_ = 0;
  uint32_t ontology_name_ref_ = 0;
  uint32_t concept_count_ = 0;
  uint32_t words_per_row_ = 0;

  const uint32_t* concept_name_refs_ = nullptr;
  const uint32_t* concept_covered_ = nullptr;
  const uint64_t* subsumption_ = nullptr;
  const uint32_t* descendant_offsets_ = nullptr;
  const uint32_t* descendant_ids_ = nullptr;
  const uint32_t* partition_offsets_ = nullptr;
  const uint32_t* partition_ids_ = nullptr;
  const uint32_t* lcs_ = nullptr;
  const uint32_t* depths_ = nullptr;
  const uint32_t* parent_offsets_ = nullptr;
  const uint32_t* parent_ids_ = nullptr;
  const uint32_t* child_offsets_ = nullptr;
  const uint32_t* child_ids_ = nullptr;

  /// Name → id index for the FindConcept boundary; views point into the
  /// mapped string table.
  std::unordered_map<std::string_view, ConceptId> by_name_;
};

}  // namespace dexa::kbimage

#endif  // DEXA_KBIMAGE_COMPILED_KB_H_
