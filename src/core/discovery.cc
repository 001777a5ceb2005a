#include "core/discovery.h"

#include <algorithm>

namespace dexa {

std::vector<DiscoveryHit> BehaviorDiscovery::Search(
    const DiscoveryQuery& query, size_t top_k) const {
  std::vector<DiscoveryHit> hits;

  for (const ModulePtr& module : registry_->AvailableModules()) {
    const ModuleSpec& spec = module->spec();
    if (spec.inputs.empty() || spec.outputs.empty()) continue;
    const Parameter& in = spec.inputs[0];
    const Parameter& out = spec.outputs[0];
    if (!in.structural_type.IsCompatibleWith(query.input_type)) continue;
    if (!out.structural_type.IsCompatibleWith(query.output_type)) continue;

    DiscoveryHit hit;
    hit.module_id = spec.id;
    hit.module_name = spec.name;
    bool exact = in.semantic_type == query.input_concept &&
                 out.semantic_type == query.output_concept;
    bool contextual =
        kb_->IsSubsumedBy(query.input_concept, in.semantic_type) &&
        kb_->Comparable(out.semantic_type, query.output_concept);
    if (exact) {
      hit.score = 1.0;
      hit.why = "exact signature";
    } else if (contextual) {
      hit.score = 0.6;
      hit.why = "contextual signature";
    } else {
      continue;
    }

    if (query.example.has_value() &&
        query.example->inputs.size() == spec.inputs.size()) {
      auto outputs = engine_->Invoke(*module, query.example->inputs,
                                     EnginePhase::kCompare);
      if (!outputs.ok()) {
        hit.score -= 0.5;
        hit.why += "; rejects the example inputs";
      } else if (!query.example->outputs.empty() &&
                 outputs->size() == query.example->outputs.size()) {
        bool equal = true;
        for (size_t o = 0; o < outputs->size(); ++o) {
          if (!(*outputs)[o].Equals(query.example->outputs[o])) {
            equal = false;
            break;
          }
        }
        if (equal) {
          hit.score += 1.0;
          hit.why += "; reproduces the example";
        } else if (classifier_.Classify((*outputs)[0], query.output_concept) !=
                   kInvalidConcept) {
          hit.score += 0.3;
          hit.why += "; answers in the requested concept";
        }
      }
    }
    hits.push_back(std::move(hit));
  }

  std::sort(hits.begin(), hits.end(),
            [](const DiscoveryHit& a, const DiscoveryHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.module_name < b.module_name;
            });
  if (hits.size() > top_k) hits.resize(top_k);
  return hits;
}

}  // namespace dexa
