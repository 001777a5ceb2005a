#include "kbimage/builder.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "kbimage/entity_codec.h"
#include "kbimage/format.h"
#include "kbimage/seal.h"
#include "kbimage/string_table.h"

namespace dexa::kbimage {

namespace {

void AppendU32(std::string& out, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

void AppendU64(std::string& out, uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  out.append(bytes, sizeof(bytes));
}

void AppendIdVec(std::string& out, const std::vector<ConceptId>& ids) {
  for (ConceptId id : ids) AppendU32(out, static_cast<uint32_t>(id));
}

std::string BuildConceptsSection(const Ontology& ontology,
                                 StringTable& strings) {
  const size_t n = ontology.size();
  std::string out;
  AppendU32(out, static_cast<uint32_t>(n));
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, strings.Intern(ontology.NameOf(static_cast<ConceptId>(c))));
  }
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, ontology.Get(static_cast<ConceptId>(c)).covered ? 1 : 0);
  }
  uint32_t offset = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, offset);
    offset +=
        static_cast<uint32_t>(ontology.Get(static_cast<ConceptId>(c)).parents.size());
  }
  AppendU32(out, offset);
  offset = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, offset);
    offset +=
        static_cast<uint32_t>(ontology.Get(static_cast<ConceptId>(c)).children.size());
  }
  AppendU32(out, offset);
  for (size_t c = 0; c < n; ++c) {
    AppendIdVec(out, ontology.Get(static_cast<ConceptId>(c)).parents);
  }
  for (size_t c = 0; c < n; ++c) {
    AppendIdVec(out, ontology.Get(static_cast<ConceptId>(c)).children);
  }
  return out;
}

std::string BuildSubsumptionSection(const Ontology& ontology,
                                    uint32_t words_per_row) {
  const size_t n = ontology.size();
  std::string out;
  out.reserve(n * words_per_row * 8);
  for (size_t a = 0; a < n; ++a) {
    std::vector<uint64_t> row(words_per_row, 0);
    // Precompute via Ancestors (one DFS) rather than n subsumption
    // probes; bit b of row a means a ⊑ b.
    for (ConceptId b : ontology.Ancestors(static_cast<ConceptId>(a))) {
      row[static_cast<size_t>(b) / 64] |= uint64_t{1}
                                          << (static_cast<size_t>(b) % 64);
    }
    for (uint64_t word : row) AppendU64(out, word);
  }
  return out;
}

std::string BuildIdListSection(const Ontology& ontology,
                               std::vector<ConceptId> (Ontology::*fn)(ConceptId)
                                   const) {
  const size_t n = ontology.size();
  std::string offsets;
  std::string flat;
  uint32_t total = 0;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(offsets, total);
    const std::vector<ConceptId> ids =
        (ontology.*fn)(static_cast<ConceptId>(c));
    total += static_cast<uint32_t>(ids.size());
    AppendIdVec(flat, ids);
  }
  AppendU32(offsets, total);
  return offsets + flat;
}

std::string BuildLcsSection(const Ontology& ontology) {
  // Ontology::LeastCommonSubsumer's own scan — the common ancestor of
  // maximal depth, ties to the smallest id — over ancestor sets and depths
  // computed once per concept instead of once per pair (the per-pair DFS
  // was ~95% of compiling myGrid).
  const size_t n = ontology.size();
  std::vector<std::vector<ConceptId>> ancestors(n);
  std::vector<std::vector<bool>> is_ancestor(n, std::vector<bool>(n, false));
  std::vector<int> depths(n);
  for (size_t c = 0; c < n; ++c) {
    ancestors[c] = ontology.Ancestors(static_cast<ConceptId>(c));
    for (ConceptId x : ancestors[c]) {
      is_ancestor[c][static_cast<size_t>(x)] = true;
    }
    depths[c] = ontology.Depth(static_cast<ConceptId>(c));
  }
  std::string out;
  out.reserve(n * n * 4);
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      ConceptId best = kInvalidConcept;
      int best_depth = -1;
      for (ConceptId x : ancestors[b]) {
        if (!is_ancestor[a][static_cast<size_t>(x)]) continue;
        const int d = depths[static_cast<size_t>(x)];
        if (d > best_depth || (d == best_depth && x < best)) {
          best = x;
          best_depth = d;
        }
      }
      AppendU32(out, static_cast<uint32_t>(best));
    }
  }
  return out;
}

std::string BuildDepthsSection(const Ontology& ontology) {
  const size_t n = ontology.size();
  std::string out;
  for (size_t c = 0; c < n; ++c) {
    AppendU32(out, static_cast<uint32_t>(ontology.Depth(static_cast<ConceptId>(c))));
  }
  return out;
}

std::string BuildEntitiesSection(const KnowledgeBase& kb,
                                 StringTable& strings) {
  std::string out;
  EntityWriter ar(&strings, &out);
  WriteEntityVec(ar, kb.proteins(),
                 [](EntityWriter& w, const ProteinEntity& e) { ProteinFields(w, e); });
  WriteEntityVec(ar, kb.genes(),
                 [](EntityWriter& w, const GeneEntity& e) { GeneFields(w, e); });
  WriteEntityVec(ar, kb.pathways(),
                 [](EntityWriter& w, const PathwayEntity& e) { PathwayFields(w, e); });
  WriteEntityVec(ar, kb.go_terms(),
                 [](EntityWriter& w, const GoTermEntity& e) { GoTermFields(w, e); });
  WriteEntityVec(ar, kb.enzymes(),
                 [](EntityWriter& w, const EnzymeEntity& e) { EnzymeFields(w, e); });
  WriteEntityVec(ar, kb.glycans(),
                 [](EntityWriter& w, const GlycanEntity& e) { GlycanFields(w, e); });
  WriteEntityVec(ar, kb.ligands(),
                 [](EntityWriter& w, const LigandEntity& e) { LigandFields(w, e); });
  WriteEntityVec(ar, kb.compounds(),
                 [](EntityWriter& w, const CompoundEntity& e) { CompoundFields(w, e); });
  WriteEntityVec(ar, kb.diseases(),
                 [](EntityWriter& w, const DiseaseEntity& e) { DiseaseFields(w, e); });
  WriteEntityVec(ar, kb.interpro(),
                 [](EntityWriter& w, const InterProEntity& e) { InterProFields(w, e); });
  WriteEntityVec(ar, kb.pfam(),
                 [](EntityWriter& w, const PfamEntity& e) { PfamFields(w, e); });
  WriteEntityVec(ar, kb.documents(),
                 [](EntityWriter& w, const DocumentEntity& e) { DocumentFields(w, e); });
  return out;
}

}  // namespace

Result<std::string> CompileKbImage(const Ontology& ontology,
                                   const KnowledgeBase& kb) {
  const size_t n = ontology.size();
  if (n == 0) {
    return Status::InvalidArgument("cannot compile an empty ontology");
  }
  const uint32_t words_per_row = static_cast<uint32_t>((n + 63) / 64);

  StringTable strings;
  // Intern in a fixed order (meta, concepts, entities) so recompiling
  // identical inputs reproduces identical refs, bytes, and seal.
  const uint32_t ontology_name_ref = strings.Intern(ontology.name());

  struct Payload {
    uint32_t id;
    std::string bytes;
  };
  std::vector<Payload> payloads;
  payloads.push_back({kConcepts, BuildConceptsSection(ontology, strings)});
  payloads.push_back(
      {kSubsumption, BuildSubsumptionSection(ontology, words_per_row)});
  payloads.push_back(
      {kDescendants, BuildIdListSection(ontology, &Ontology::Descendants)});
  payloads.push_back(
      {kPartitions, BuildIdListSection(ontology, &Ontology::Partitions)});
  payloads.push_back({kLcs, BuildLcsSection(ontology)});
  payloads.push_back({kDepths, BuildDepthsSection(ontology)});
  payloads.push_back({kEntities, BuildEntitiesSection(kb, strings)});

  std::string meta;
  AppendU64(meta, kb.seed());
  AppendU32(meta, ontology_name_ref);
  AppendU32(meta, static_cast<uint32_t>(n));
  AppendU32(meta, words_per_row);
  AppendU32(meta, 0);  // reserved
  payloads.insert(payloads.begin(), {kMeta, std::move(meta)});
  // The string table serializes after every other section interned into
  // it; its position in the file is still right after kMeta.
  payloads.insert(payloads.begin() + 1, {kStrings, strings.Serialize()});

  const size_t table_bytes = payloads.size() * sizeof(SectionEntry);
  size_t cursor = sizeof(ImageHeader) + table_bytes;
  cursor = (cursor + kSectionAlign - 1) & ~(kSectionAlign - 1);

  std::vector<SectionEntry> table;
  table.reserve(payloads.size());
  for (const Payload& p : payloads) {
    SectionEntry entry;
    entry.id = p.id;
    entry.crc32 = Crc32(p.bytes);
    entry.offset = cursor;
    entry.size = p.bytes.size();
    table.push_back(entry);
    cursor += p.bytes.size();
    cursor = (cursor + kSectionAlign - 1) & ~(kSectionAlign - 1);
  }

  ImageHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.sections = static_cast<uint32_t>(payloads.size());
  header.file_size = cursor;

  std::string image;
  image.reserve(cursor);
  image.append(reinterpret_cast<const char*>(&header), sizeof(header));
  for (const SectionEntry& entry : table) {
    image.append(reinterpret_cast<const char*>(&entry), sizeof(entry));
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    image.append(table[i].offset - image.size(), '\0');
    image += payloads[i].bytes;
  }
  image.append(cursor - image.size(), '\0');

  // Seal everything after the header, then patch the header in place.
  header.seal = SealHash64(
      std::string_view(image).substr(sizeof(ImageHeader)));
  std::memcpy(image.data(), &header, sizeof(header));
  return image;
}

Status WriteKbImage(const Ontology& ontology, const KnowledgeBase& kb,
                    const std::string& path, IoEnv* io) {
  auto image = CompileKbImage(ontology, kb);
  if (!image.ok()) return image.status();
  return WriteFileAtomic(io != nullptr ? *io : IoEnv::Real(), path, *image);
}

}  // namespace dexa::kbimage
