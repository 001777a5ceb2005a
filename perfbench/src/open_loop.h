#ifndef PERFBENCH_OPEN_LOOP_H_
#define PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable generator, so one seed gives the same
/// inputs with any standard library.
uint64_t SplitMix64(uint64_t& state);

/// Due times, in seconds from the start of a phase, of an open-loop arrival
/// process: independent users whose requests arrive with exponential gaps
/// at `rate_per_s` on average, drawn from `seed`, covering [0, duration_s).
std::vector<double> PoissonArrivals(double rate_per_s, double duration_s,
                                    uint64_t seed);

/// When one open-loop request was due, actually sent, and answered, in
/// seconds on one steady clock.
struct RequestTiming {
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
};

/// Latency of a request measured from the moment it was due to be sent, so
/// a stall in the client or the daemon that delays later sends is charged
/// to every request it delayed.
double LatencyMs(const RequestTiming& timing);

/// How late the generator sent the request.
double GeneratorLagMs(const RequestTiming& timing);

}  // namespace perfbench

#endif  // PERFBENCH_OPEN_LOOP_H_
