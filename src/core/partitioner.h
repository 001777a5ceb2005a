#ifndef DEXA_CORE_PARTITIONER_H_
#define DEXA_CORE_PARTITIONER_H_

#include <memory>
#include <utility>
#include <vector>

#include "kbimage/compiled_kb.h"
#include "modules/module.h"
#include "ontology/ontology.h"

namespace dexa {

/// The equivalence partitions of one parameter's domain (Section 3.1):
/// derived from the ontology by dividing the domain of the annotating
/// concept `sem(p)` into the sub-domains of its realizable sub-concepts.
struct ParameterPartitions {
  ConceptId annotated_concept = kInvalidConcept;
  std::vector<ConceptId> partitions;
};

/// Partition structure of a whole module: one entry per input and output
/// parameter, in spec order.
struct ModulePartitions {
  std::vector<ParameterPartitions> inputs;
  std::vector<ParameterPartitions> outputs;

  /// `#partitions(m)`: total over inputs and outputs (Section 4.2).
  size_t TotalCount() const;
  size_t InputCount() const;
  size_t OutputCount() const;
};

/// Ontology-based domain partitioner (Section 3.1). Every partition set is
/// a precomputed row of the compiled KB image, so partitioning the same
/// concepts again (every module of a corpus shares a handful of annotation
/// concepts) costs one span read each. Kept as a class so ablations can
/// subclass/parameterize the strategy.
class DomainPartitioner {
 public:
  explicit DomainPartitioner(std::shared_ptr<const kbimage::CompiledKb> kb)
      : kb_(std::move(kb)) {}

  /// Partitions of a single parameter: the realizable concepts subsumed by
  /// `param.semantic_type` (covered concepts are represented by their
  /// sub-concepts and contribute no partition of their own).
  ParameterPartitions Partition(const Parameter& param) const;

  /// Partitions of every parameter of `spec`.
  ModulePartitions PartitionModule(const ModuleSpec& spec) const;

  /// The compiled KB every reasoning query reads.
  const std::shared_ptr<const kbimage::CompiledKb>& kb() const { return kb_; }

 private:
  std::shared_ptr<const kbimage::CompiledKb> kb_;
};

}  // namespace dexa

#endif  // DEXA_CORE_PARTITIONER_H_
