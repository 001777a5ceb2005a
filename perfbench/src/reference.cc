#include "reference.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "modules/registry_io.h"

namespace perfbench {

namespace fs = std::filesystem;

void OutcomeLedger::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

bool OutcomeLedger::CheckEqual(uint64_t expected, uint64_t actual,
                               const std::string& what) {
  const bool ok = expected == actual;
  Record(ok, what + ": expected " + std::to_string(expected) + ", got " +
                 std::to_string(actual));
  return ok;
}

double OutcomeLedger::error_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

uint64_t AnnotationDigest(const dexa::ModuleRegistry& registry,
                          const dexa::Ontology& ontology) {
  return dexa::StableHash64(dexa::SaveAnnotations(registry, ontology));
}

uint64_t JournalDigest(const std::string& dir) {
  std::vector<fs::path> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  uint64_t digest = dexa::StableHash64("journal");
  for (const fs::path& path : segments) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    digest = dexa::HashCombine(digest,
                               dexa::StableHash64(path.filename().string()));
    digest = dexa::HashCombine(digest, dexa::StableHash64(bytes.str()));
  }
  return digest;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

}  // namespace perfbench
