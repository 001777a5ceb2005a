#include "core/composition.h"

#include <algorithm>
#include <deque>

namespace dexa {

namespace {

/// A partial chain during search.
struct SearchNode {
  std::vector<std::string> module_ids;
  ConceptId concept_id;
  StructuralType type;
};

}  // namespace

Result<std::vector<CompositionCandidate>> ExampleGuidedComposer::Compose(
    const CompositionRequest& request) const {
  if (request.source_concept == kInvalidConcept ||
      request.target_concept == kInvalidConcept) {
    return Status::InvalidArgument("composition endpoints must be concepts");
  }

  // Pre-compute, per module, whether its side inputs (all but the first)
  // are seedable from the pool and which seed values to use.
  struct Step {
    ModulePtr module;
    std::vector<Value> side_inputs;  // Values for inputs 1..n-1.
  };
  std::vector<Step> steps;
  for (const ModulePtr& module : registry_->AvailableModules()) {
    const ModuleSpec& spec = module->spec();
    if (spec.inputs.empty() || spec.outputs.empty()) continue;
    Step step;
    step.module = module;
    bool seedable = true;
    for (size_t i = 1; i < spec.inputs.size(); ++i) {
      const Parameter& param = spec.inputs[i];
      Result<Value> seed = Status::NotFound("unset");
      for (ConceptId partition : kb_->Partitions(param.semantic_type)) {
        seed = pool_->GetInstanceCompatible(partition, param.structural_type);
        if (seed.ok()) break;
      }
      if (!seed.ok()) {
        if (param.optional) {
          step.side_inputs.push_back(Value::Null());
          continue;
        }
        seedable = false;
        break;
      }
      step.side_inputs.push_back(std::move(seed).value());
    }
    if (seedable) steps.push_back(std::move(step));
  }
  // Deterministic expansion order.
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    return a.module->spec().name < b.module->spec().name;
  });

  // Replays `chain` on a pool realization of the source; returns the
  // validated candidate or an error if any step rejects the value.
  auto validate = [&](const std::vector<std::string>& chain)
      -> Result<CompositionCandidate> {
    Result<Value> source = Status::NotFound("unset");
    for (ConceptId partition : kb_->Partitions(request.source_concept)) {
      source = pool_->GetInstanceCompatible(partition, request.source_type);
      if (source.ok()) break;
    }
    if (!source.ok()) return source.status();
    CompositionCandidate candidate;
    candidate.module_ids = chain;
    candidate.witness_input = *source;
    Value current = std::move(source).value();
    for (const std::string& module_id : chain) {
      auto module = registry_->Find(module_id);
      if (!module.ok()) return module.status();
      // Rebuild the side inputs recorded for this module.
      std::vector<Value> inputs = {current};
      for (const Step& step : steps) {
        if (step.module->spec().id == module_id) {
          inputs.insert(inputs.end(), step.side_inputs.begin(),
                        step.side_inputs.end());
          break;
        }
      }
      auto outputs = engine_->Invoke(**module, inputs, EnginePhase::kOther);
      if (!outputs.ok()) return outputs.status();
      current = (*outputs)[0];
    }
    // The final value must actually instantiate the target concept.
    ConceptId produced =
        classifier_.Classify(current, request.target_concept);
    if (produced == kInvalidConcept) {
      return Status::InvalidArgument(
          "chain output does not instantiate the target concept");
    }
    candidate.witness_output = std::move(current);
    return candidate;
  };

  // Breadth-first search over (concept, type) states, shortest chains
  // first; validated goals are collected in discovery order.
  std::vector<CompositionCandidate> results;
  std::deque<SearchNode> queue;
  queue.push_back(SearchNode{{}, request.source_concept, request.source_type});
  size_t expansions = 0;

  while (!queue.empty() && results.size() < request.max_results) {
    SearchNode node = std::move(queue.front());
    queue.pop_front();
    if (node.module_ids.size() >= request.max_depth) continue;

    for (const Step& step : steps) {
      if (++expansions > request.max_expansions) {
        queue.clear();
        break;
      }
      const ModuleSpec& spec = step.module->spec();
      const Parameter& head = spec.inputs[0];
      if (!node.type.IsCompatibleWith(head.structural_type)) continue;
      if (!kb_->IsSubsumedBy(node.concept_id, head.semantic_type)) {
        continue;
      }
      // No module twice in a chain (prevents trivial cycles).
      if (std::find(node.module_ids.begin(), node.module_ids.end(),
                    spec.id) != node.module_ids.end()) {
        continue;
      }
      SearchNode next{node.module_ids, spec.outputs[0].semantic_type,
                      spec.outputs[0].structural_type};
      next.module_ids.push_back(spec.id);

      bool reaches_target =
          next.type.IsCompatibleWith(request.target_type) &&
          kb_->Comparable(next.concept_id, request.target_concept);
      if (reaches_target) {
        auto candidate = validate(next.module_ids);
        if (candidate.ok()) {
          results.push_back(std::move(candidate).value());
          if (results.size() >= request.max_results) break;
        }
      }
      queue.push_back(std::move(next));
    }
  }
  return results;
}

}  // namespace dexa
