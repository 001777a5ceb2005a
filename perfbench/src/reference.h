#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "modules/registry.h"
#include "ontology/ontology.h"

namespace perfbench {

/// Counts the operations a workload attempted and those that failed. An
/// operation fails when the program returns an error, refuses it, or
/// produces output that differs from the reference; `error_ratio` is failed
/// over attempted.
class OutcomeLedger {
 public:
  /// Records one operation; `what` describes a failure (the first few are
  /// kept for the report).
  void Record(bool ok, const std::string& what = "");

  /// Records one operation that succeeds only when `actual` equals the
  /// reference `expected`.
  bool CheckEqual(uint64_t expected, uint64_t actual, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  double error_ratio() const;
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Digest of every data example committed to `registry`, in the program's
/// own canonical serialization (the one the serve daemon's `digest` field
/// hashes).
uint64_t AnnotationDigest(const dexa::ModuleRegistry& registry,
                          const dexa::Ontology& ontology);

/// Digest of the journal segment files (`wal-*`) of `dir`: names and bytes,
/// in sorted name order.
uint64_t JournalDigest(const std::string& dir);

/// Total size of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
