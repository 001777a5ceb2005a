#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank percentile `p` among `n` samples.
size_t RankIndex(size_t n, double p) {
  // The epsilon keeps p99.9 of 1000 samples at rank 999, not 1000.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t index = RankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

std::optional<TailPick> HighestTail(const std::vector<double>& samples,
                                    size_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const size_t beyond = SamplesBeyond(samples.size(), p);
    if (beyond >= min_beyond) {
      return TailPick{p, Percentile(samples, p), beyond};
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
