#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

/// Number of samples ranked after the nearest-rank percentile `p` of a
/// sample set of size `n`.
size_t SamplesBeyond(size_t n, double p);

/// A tail percentile chosen for a sample set: the highest of the ladder
/// 99.9, 99, 95, 90, 75 with at least `min_beyond` samples ranked beyond it.
struct TailPick {
  double percentile = 0.0;
  double value = 0.0;
  size_t beyond = 0;
};

/// The highest percentile with at least `min_beyond` samples beyond it, or
/// nothing when even p75 has too few (fewer than about 4 * min_beyond
/// samples).
std::optional<TailPick> HighestTail(const std::vector<double>& samples,
                                    size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
