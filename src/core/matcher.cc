#include "core/matcher.h"

#include <vector>

namespace dexa {

const char* BehaviorRelationName(BehaviorRelation relation) {
  switch (relation) {
    case BehaviorRelation::kEquivalent:
      return "equivalent";
    case BehaviorRelation::kOverlapping:
      return "overlapping";
    case BehaviorRelation::kDisjoint:
      return "disjoint";
    case BehaviorRelation::kIncomparable:
      return "incomparable";
  }
  return "unknown";
}

Result<ParameterMapping> ModuleMatcher::MapParameters(
    const ModuleSpec& reference, const ModuleSpec& candidate,
    bool allow_contextual) const {
  if (reference.inputs.size() != candidate.inputs.size() ||
      reference.outputs.size() != candidate.outputs.size()) {
    return Status::NotFound("parameter arities differ");
  }

  ParameterMapping mapping;

  // Greedy 1-to-1 assignment: for each reference parameter, the first
  // unused compatible candidate parameter. Parameter lists are short (<= 4
  // in all corpora), so greedy assignment with exact-match preference is
  // adequate.
  auto assign = [&](const std::vector<Parameter>& from,
                    const std::vector<Parameter>& to, bool inputs,
                    std::vector<int>& out) -> Status {
    std::vector<bool> used(to.size(), false);
    for (const Parameter& param : from) {
      int chosen = -1;
      bool chosen_contextual = false;
      for (size_t j = 0; j < to.size(); ++j) {
        if (used[j]) continue;
        if (!param.structural_type.IsCompatibleWith(to[j].structural_type)) {
          continue;
        }
        if (param.semantic_type == to[j].semantic_type) {
          chosen = static_cast<int>(j);
          chosen_contextual = false;
          break;  // Exact concept match: best possible.
        }
        if (!allow_contextual || chosen != -1) continue;
        if (inputs) {
          // Candidate input may be more general: it then accepts every
          // value the reference input accepted (Figure 7).
          if (kb_->IsSubsumedBy(param.semantic_type,
                                   to[j].semantic_type)) {
            chosen = static_cast<int>(j);
            chosen_contextual = true;
          }
        } else {
          // Output concepts need only be comparable; behavior equality is
          // established on the values themselves.
          if (kb_->Comparable(param.semantic_type,
                                 to[j].semantic_type)) {
            chosen = static_cast<int>(j);
            chosen_contextual = true;
          }
        }
      }
      if (chosen == -1) {
        return Status::NotFound("no compatible parameter for '" + param.name +
                                "'");
      }
      used[static_cast<size_t>(chosen)] = true;
      out.push_back(chosen);
      if (chosen_contextual) mapping.contextual = true;
    }
    return Status::OK();
  };

  DEXA_RETURN_IF_ERROR(
      assign(reference.inputs, candidate.inputs, /*inputs=*/true,
             mapping.input_mapping));
  DEXA_RETURN_IF_ERROR(
      assign(reference.outputs, candidate.outputs, /*inputs=*/false,
             mapping.output_mapping));
  return mapping;
}

Result<MatchResult> ModuleMatcher::CompareAgainstExamples(
    const DataExampleSet& reference_examples, const Module& candidate,
    const ParameterMapping& mapping) const {
  MatchResult result;
  result.mapping = mapping;

  // Collect the alignable reference examples and their permuted candidate
  // inputs, then fan the replays through the engine as one batch.
  std::vector<size_t> reference_index;
  std::vector<std::vector<Value>> batch_inputs;
  for (size_t r = 0; r < reference_examples.size(); ++r) {
    const DataExample& reference = reference_examples[r];
    if (reference.inputs.size() != mapping.input_mapping.size()) continue;

    // Permute reference inputs into candidate parameter order.
    std::vector<Value> candidate_inputs(candidate.spec().inputs.size());
    bool arity_ok = true;
    for (size_t i = 0; i < reference.inputs.size(); ++i) {
      int j = mapping.input_mapping[i];
      if (j < 0 || static_cast<size_t>(j) >= candidate_inputs.size()) {
        arity_ok = false;
        break;
      }
      candidate_inputs[static_cast<size_t>(j)] = reference.inputs[i];
    }
    if (!arity_ok) continue;

    reference_index.push_back(r);
    batch_inputs.push_back(std::move(candidate_inputs));
  }

  auto replays =
      engine_->InvokeBatch(candidate, batch_inputs, EnginePhase::kCompare);

  for (size_t b = 0; b < replays.size(); ++b) {
    const DataExample& reference = reference_examples[reference_index[b]];
    Result<std::vector<Value>>& outputs = replays[b];
    if (!outputs.ok()) {
      if (outputs.status().IsInvalidArgument() ||
          outputs.status().IsNotFound()) {
        // The candidate rejects this input: it disagrees on this example.
        ++result.examples_compared;
        continue;
      }
      return outputs.status();
    }

    ++result.examples_compared;
    bool agree = true;
    for (size_t o = 0; o < reference.outputs.size(); ++o) {
      int j = mapping.output_mapping[o];
      if (j < 0 || static_cast<size_t>(j) >= outputs->size() ||
          !reference.outputs[o].Equals((*outputs)[static_cast<size_t>(j)])) {
        agree = false;
        break;
      }
    }
    if (agree) ++result.examples_agreeing;
  }

  if (result.examples_compared == 0) {
    result.relation = BehaviorRelation::kIncomparable;
  } else if (result.examples_agreeing == result.examples_compared) {
    result.relation = BehaviorRelation::kEquivalent;
  } else if (result.examples_agreeing > 0) {
    result.relation = BehaviorRelation::kOverlapping;
  } else {
    result.relation = BehaviorRelation::kDisjoint;
  }
  return result;
}

Result<MatchResult> ModuleMatcher::Compare(const Module& reference,
                                           const Module& candidate,
                                           bool allow_contextual) const {
  auto mapping =
      MapParameters(reference.spec(), candidate.spec(), allow_contextual);
  if (!mapping.ok()) {
    MatchResult result;
    result.relation = BehaviorRelation::kIncomparable;
    return result;
  }
  auto outcome = generator_->Generate(reference);
  if (!outcome.ok()) return outcome.status();
  return CompareAgainstExamples(outcome->examples, candidate, *mapping);
}

}  // namespace dexa
