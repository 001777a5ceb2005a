#include "open_loop.h"

#include <cmath>

namespace perfbench {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed) {
  std::vector<double> due;
  if (rate_per_s <= 0.0) return due;
  uint64_t state = seed;
  double t = 0.0;
  while (true) {
    // Uniform in (0, 1]: never log(0).
    const double u =
        (static_cast<double>(SplitMix64(state) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

double LatencyMs(const RequestTiming& timing) {
  return (timing.done_s - timing.due_s) * 1000.0;
}

double GeneratorLagMs(const RequestTiming& timing) {
  return (timing.sent_s - timing.due_s) * 1000.0;
}

}  // namespace perfbench
