#ifndef DEXA_OBS_METRICS_REGISTRY_H_
#define DEXA_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "obs/trace.h"

namespace dexa::obs {

/// Whether a metric's value is schedule-independent (byte-identical across
/// thread counts for the same seed) or merely informative. Exports keep the
/// two classes in separate sections so determinism tests can compare the
/// stable section bytewise and ignore the volatile one.
enum class MetricStability {
  kStable,
  kVolatile,
};

/// A fixed-bucket histogram: `counts[i]` holds observations <= bounds[i];
/// the final slot counts overflows (> the last bound).
struct HistogramSnapshot {
  std::vector<uint64_t> bounds;  ///< Ascending upper bounds.
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 slots.
  uint64_t total = 0;            ///< Sum of all observations' values.
  uint64_t observations = 0;     ///< Number of Observe() calls.
};

/// A named snapshot store for one run's metrics: counters (monotone totals),
/// gauges (scaled ratios) and histograms, each tagged stable or volatile.
/// Unlike EngineMetrics this is not a hot-path sink — it is populated once,
/// at export time, from an EngineMetricsSnapshot and a Tracer, then
/// serialized to metrics.json. Names are kept in sorted (std::map) order so
/// the export is deterministic by construction.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  void SetCounter(const std::string& name, uint64_t value,
                  MetricStability stability = MetricStability::kStable);

  /// Gauges are fixed-point: `value` is the ratio scaled by 1e6 (ppm), so
  /// the export never touches float formatting.
  void SetGauge(const std::string& name, uint64_t ppm,
                MetricStability stability = MetricStability::kStable);

  /// Defines (or redefines, resetting counts) a histogram with the given
  /// ascending bucket upper bounds.
  void DefineHistogram(const std::string& name, std::vector<uint64_t> bounds,
                       MetricStability stability = MetricStability::kStable);

  /// Adds one observation to a defined histogram; unknown names are
  /// ignored (define first).
  void Observe(const std::string& name, uint64_t value);

  /// Imports every engine counter: the schedule-independent subset as
  /// stable counters, KB image loads and wall-clock phase timings as
  /// volatile, plus the derived (stable) invocation error rate gauge.
  void ImportEngineSnapshot(const EngineMetricsSnapshot& snapshot);

  /// Imports span statistics from a recorded trace: span/replayed-span
  /// counts per kind, and an examples-per-module histogram over batch
  /// spans' "examples" counters.
  void ImportTrace(const Tracer& tracer);

  const std::map<std::string, std::pair<uint64_t, MetricStability>>&
  counters() const {
    return counters_;
  }
  const std::map<std::string, std::pair<uint64_t, MetricStability>>& gauges()
      const {
    return gauges_;
  }
  const std::map<std::string, std::pair<HistogramSnapshot, MetricStability>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, std::pair<uint64_t, MetricStability>> counters_;
  std::map<std::string, std::pair<uint64_t, MetricStability>> gauges_;
  std::map<std::string, std::pair<HistogramSnapshot, MetricStability>>
      histograms_;
};

/// `numerator * 1e6 / denominator`, 0 when the denominator is 0 — the
/// fixed-point ratio representation used by gauges.
uint64_t RatioPpm(uint64_t numerator, uint64_t denominator);

}  // namespace dexa::obs

#endif  // DEXA_OBS_METRICS_REGISTRY_H_
