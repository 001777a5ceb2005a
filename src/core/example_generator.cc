#include "core/example_generator.h"

#include <limits>
#include <optional>
#include <utility>

#include "obs/trace.h"

namespace dexa {

namespace {

/// Annotates a module's commit-phase span with its per-module generation
/// counters. These are projections of the module's own Generate() call, so
/// they are schedule-independent even though the fan-out was concurrent.
/// Zero-valued counters are omitted (mirroring StableCounterDeltas) and the
/// batch lands in one locked call — this runs once per module on the
/// sequential commit path, so it must stay cheap.
void AnnotateBatchSpan(obs::ScopedSpan& span, const GenerationStats& stats) {
  std::vector<std::pair<std::string, uint64_t>> counters;
  counters.reserve(5);
  auto add = [&counters](const char* name, uint64_t value) {
    if (value != 0) counters.emplace_back(name, value);
  };
  add("combinations_tried", stats.combinations_tried);
  add("invocation_errors", stats.invocation_errors);
  add("transient_exhausted", stats.transient_exhausted);
  add("decayed", stats.decayed ? 1 : 0);
  add("examples", stats.examples);
  span.Counters(std::move(counters));
}

}  // namespace

namespace {

/// A candidate value for one input parameter: the partition it covers plus
/// the selected instance.
struct Candidate {
  ConceptId partition;
  Value value;
};

/// Saturating product, for counting the full combination space without
/// overflowing on wide modules.
size_t SaturatingMul(size_t a, size_t b) {
  if (a != 0 && b > std::numeric_limits<size_t>::max() / a) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

}  // namespace

Result<GenerationOutcome> ExampleGenerator::Generate(
    const Module& module) const {
  const ModuleSpec& spec = module.spec();
  const kbimage::CompiledKb& kb = *partitioner_.kb();
  GenerationOutcome outcome;

  // Step 1 + 2: partition every input domain and select one instance per
  // coverable partition.
  std::vector<std::vector<Candidate>> candidates(spec.inputs.size());
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    const Parameter& param = spec.inputs[i];
    ParameterPartitions partitions = partitioner_.Partition(param);
    outcome.stats.input_partitions += partitions.partitions.size();
    for (ConceptId partition : partitions.partitions) {
      Result<Value> instance = Status::NotFound("unset");
      if (options_.use_realization) {
        instance = pool_->GetInstanceCompatible(partition,
                                                param.structural_type);
      } else {
        // Ablation: accept an instance of the partition or of any of its
        // sub-concepts (ignoring realization semantics).
        for (ConceptId d : kb.Descendants(partition)) {
          instance = pool_->GetInstanceCompatible(d, param.structural_type);
          if (instance.ok()) break;
        }
      }
      if (!instance.ok()) continue;  // Partition not coverable from the pool.
      ++outcome.stats.coverable_input_partitions;
      candidates[i].push_back(
          Candidate{partition, std::move(instance).value()});
    }
    if (param.optional && options_.include_null_for_optional) {
      candidates[i].push_back(Candidate{kInvalidConcept, Value::Null()});
    }
    if (candidates[i].empty()) {
      // A required input with no coverable partition: the module cannot be
      // invoked at all, so its annotation is empty (the paper's pool always
      // covered the inputs; this arises with impoverished pools).
      return outcome;
    }
  }

  // Step 3: enumerate the combinations (odometer order) up to the cap, then
  // fan the whole batch through the engine. Results come back in
  // enumeration order, so the example set is identical at any thread count.
  const bool pin_tail = !options_.full_cartesian;
  size_t total_combinations = 1;
  if (pin_tail) {
    total_combinations = spec.inputs.empty() ? 1 : candidates[0].size();
  } else {
    for (const std::vector<Candidate>& options : candidates) {
      total_combinations = SaturatingMul(total_combinations, options.size());
    }
  }

  std::vector<std::vector<Value>> batch_inputs;
  std::vector<std::vector<ConceptId>> batch_partitions;
  std::vector<size_t> odometer(spec.inputs.size(), 0);
  for (;;) {
    if (outcome.stats.combinations_tried >= options_.max_combinations) break;
    ++outcome.stats.combinations_tried;

    std::vector<Value> inputs;
    std::vector<ConceptId> input_partitions;
    inputs.reserve(spec.inputs.size());
    input_partitions.reserve(spec.inputs.size());
    for (size_t i = 0; i < spec.inputs.size(); ++i) {
      const Candidate& candidate = candidates[i][odometer[i]];
      inputs.push_back(candidate.value);
      input_partitions.push_back(candidate.partition);
    }
    batch_inputs.push_back(std::move(inputs));
    batch_partitions.push_back(std::move(input_partitions));

    // Advance the odometer.
    size_t wheel = 0;
    if (pin_tail) {
      // Pinned strategy: only the first input enumerates its candidates.
      if (spec.inputs.empty() || ++odometer[0] >= candidates[0].size()) break;
      continue;
    }
    for (;;) {
      if (wheel >= odometer.size()) break;
      if (++odometer[wheel] < candidates[wheel].size()) break;
      odometer[wheel] = 0;
      ++wheel;
    }
    if (wheel >= odometer.size()) break;  // Odometer wrapped: done.
    if (spec.inputs.empty()) break;       // Nullary module: one invocation.
  }
  outcome.stats.combinations_skipped =
      total_combinations > outcome.stats.combinations_tried
          ? total_combinations - outcome.stats.combinations_tried
          : 0;

  auto results = engine_->InvokeBatch(module, batch_inputs,
                                      EnginePhase::kGenerate);

  // Step 4: keep normal terminations, in enumeration order.
  for (size_t i = 0; i < results.size(); ++i) {
    Result<std::vector<Value>>& outputs = results[i];
    if (outputs.ok()) {
      DataExample example;
      example.inputs = std::move(batch_inputs[i]);
      example.input_partitions = std::move(batch_partitions[i]);
      example.outputs = std::move(outputs).value();
      outcome.examples.push_back(std::move(example));
    } else if (outputs.status().IsInvalidArgument() ||
               outputs.status().IsNotFound()) {
      // Abnormal termination: discard the combination (Section 3.2).
      ++outcome.stats.invocation_errors;
    } else if (outputs.status().IsRetryable()) {
      // Transient fault that survived the engine's retries: the
      // combination is lost to infrastructure, not to module behavior.
      ++outcome.stats.transient_exhausted;
    } else if (outputs.status().IsPermanentFailure()) {
      // The module decayed under us (provider withdrew it, backend gone,
      // breaker tripped): keep what was collected as a partial annotation
      // and flag the module as a repair candidate.
      outcome.stats.decayed = true;
    } else {
      return outputs.status();  // Internal: a real failure.
    }
  }

  outcome.stats.examples = outcome.examples.size();
  return outcome;
}

Result<DataExampleSet> ExampleGenerator::ReplayInputs(
    const Module& module, const DataExampleSet& examples) const {
  std::vector<std::vector<Value>> batch_inputs;
  batch_inputs.reserve(examples.size());
  for (const DataExample& reference : examples) {
    batch_inputs.push_back(reference.inputs);
  }
  auto results =
      engine_->InvokeBatch(module, batch_inputs, EnginePhase::kReplay);

  DataExampleSet out;
  for (size_t i = 0; i < results.size(); ++i) {
    Result<std::vector<Value>>& outputs = results[i];
    if (!outputs.ok()) {
      if (outputs.status().IsInvalidArgument() ||
          outputs.status().IsNotFound()) {
        continue;
      }
      return outputs.status();
    }
    DataExample example;
    example.inputs = examples[i].inputs;
    example.input_partitions = examples[i].input_partitions;
    example.outputs = std::move(outputs).value();
    out.push_back(std::move(example));
  }
  return out;
}

Result<AnnotateReport> AnnotateRegistry(const ExampleGenerator& generator,
                                        ModuleRegistry& registry,
                                        obs::Tracer* tracer) {
  const std::vector<ModulePtr> modules = registry.AvailableModules();
  const EngineMetrics& metrics = generator.engine().metrics();

  obs::ScopedSpan run(tracer, obs::SpanKind::kRun, "annotate_registry");
  const EngineMetricsSnapshot run_before = metrics.Snapshot();

  // Generate concurrently (modules are independent), commit sequentially in
  // registration order so the registry content is thread-count-invariant.
  std::vector<std::optional<Result<GenerationOutcome>>> outcomes(
      modules.size());
  {
    obs::ScopedSpan generate(tracer, obs::SpanKind::kPhase, "generate",
                             run.id());
    const EngineMetricsSnapshot before = metrics.Snapshot();
    generator.engine().ForEach(modules.size(), [&](size_t i) {
      outcomes[i] = generator.Generate(*modules[i]);
    });
    generate.CounterDeltas(before, metrics.Snapshot());
  }

  obs::ScopedSpan commit(tracer, obs::SpanKind::kPhase, "commit", run.id());
  AnnotateReport report;
  for (size_t i = 0; i < modules.size(); ++i) {
    obs::ScopedSpan module_span(tracer, obs::SpanKind::kBatch,
                                modules[i]->spec().id, commit.id());
    Result<GenerationOutcome>& outcome = *outcomes[i];
    if (!outcome.ok()) {
      // Generate() degrades gracefully on module faults, so a failed
      // outcome is an internal error — those still abort the run. The
      // report survives the abort: its counters cover the committed prefix
      // and run_status carries the cause.
      report.run_status = outcome.status();
      break;
    }
    // A decayed module keeps its partial example set: an incomplete
    // annotation still supports matching and repair (Sections 5-6), and the
    // module is reported as a repair candidate instead of aborting the run.
    AnnotateBatchSpan(module_span, outcome->stats);
    size_t examples = outcome->examples.size();
    Status committed = registry.SetDataExamples(
        modules[i]->spec().id, std::move(outcome->examples));
    if (!committed.ok()) {
      report.run_status = committed;
      break;
    }
    report.transient_exhausted += outcome->stats.transient_exhausted;
    report.examples += examples;
    if (outcome->stats.decayed) {
      ++report.decayed;
      report.decayed_ids.push_back(modules[i]->spec().id);
    } else {
      ++report.annotated;
    }
  }
  commit.End();
  report.metrics = metrics.Snapshot();
  run.CounterDeltas(run_before, report.metrics);
  return report;
}

}  // namespace dexa
