// Unit tests of the benchmark's own logic: percentile selection, open-loop
// timing from the due time, and the reference checks that feed error_ratio.

#include <gtest/gtest.h>

#include <vector>

#include "open_loop.h"
#include "reference.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> samples;
  for (size_t i = 1; i <= n; ++i) samples.push_back(static_cast<double>(i));
  return samples;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> samples = Ramp(100);
  EXPECT_EQ(Percentile(samples, 50), 50.0);
  EXPECT_EQ(Percentile(samples, 99), 99.0);
  EXPECT_EQ(Percentile(samples, 100), 100.0);
  EXPECT_EQ(Percentile({}, 50), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(100, 99), 1u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(PercentileTest, HighestTailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
  auto tail = HighestTail(Ramp(1000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 99.0);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_EQ(tail->value, 990.0);

  // 999 samples: p99 has 9 beyond, so p95 is the highest eligible.
  tail = HighestTail(Ramp(999));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 95.0);
  EXPECT_GE(tail->beyond, 10u);

  // 10000 samples: p99.9 has 10 beyond.
  tail = HighestTail(Ramp(10000));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 99.9);

  // 39 samples: even p75 has fewer than 10 beyond.
  EXPECT_FALSE(HighestTail(Ramp(39)).has_value());
  EXPECT_EQ(HighestTail(Ramp(40))->percentile, 75.0);
}

TEST(OpenLoopTest, ArrivalsAreSeededAndAtTheRate) {
  const std::vector<double> a = PoissonArrivals(1000.0, 10.0, 7);
  const std::vector<double> b = PoissonArrivals(1000.0, 10.0, 7);
  const std::vector<double> c = PoissonArrivals(1000.0, 10.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 400.0);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 10.0);
  EXPECT_TRUE(PoissonArrivals(0.0, 10.0, 7).empty());
}

TEST(OpenLoopTest, LatencyCountsFromTheDueTime) {
  // A request sent on time and answered 2 ms later.
  RequestTiming on_time{1.000, 1.000, 1.002};
  EXPECT_NEAR(LatencyMs(on_time), 2.0, 1e-9);
  EXPECT_NEAR(GeneratorLagMs(on_time), 0.0, 1e-9);

  // The client stalled for 50 ms: three requests due at 0, 1 and 2 ms all
  // go out at 50 ms and are answered 1 ms later. Timed from the send they
  // would read 1 ms; timed from the due time they carry the stall.
  const std::vector<RequestTiming> stalled = {
      {0.000, 0.050, 0.051}, {0.001, 0.050, 0.051}, {0.002, 0.050, 0.051}};
  EXPECT_NEAR(LatencyMs(stalled[0]), 51.0, 1e-9);
  EXPECT_NEAR(LatencyMs(stalled[1]), 50.0, 1e-9);
  EXPECT_NEAR(LatencyMs(stalled[2]), 49.0, 1e-9);
  EXPECT_NEAR(GeneratorLagMs(stalled[2]), 48.0, 1e-9);
  for (const RequestTiming& timing : stalled) {
    EXPECT_GT(LatencyMs(timing), (timing.done_s - timing.sent_s) * 1e3);
  }
}

TEST(ReferenceTest, MatchingDigestsPass) {
  OutcomeLedger ledger;
  EXPECT_TRUE(ledger.CheckEqual(42, 42, "digest"));
  ledger.Record(true);
  EXPECT_EQ(ledger.attempted(), 2u);
  EXPECT_EQ(ledger.failed(), 0u);
  EXPECT_EQ(ledger.error_ratio(), 0.0);
}

TEST(ReferenceTest, CorruptedDigestCountsTowardErrorRatio) {
  OutcomeLedger ledger;
  for (int i = 0; i < 3; ++i) ledger.CheckEqual(0xABCDu, 0xABCDu, "digest");
  // One bit flipped in the program's answer.
  EXPECT_FALSE(ledger.CheckEqual(0xABCDu, 0xABCDu ^ 1u, "run 4 digest"));
  EXPECT_EQ(ledger.attempted(), 4u);
  EXPECT_EQ(ledger.failed(), 1u);
  EXPECT_DOUBLE_EQ(ledger.error_ratio(), 0.25);
  ASSERT_EQ(ledger.failures().size(), 1u);
  EXPECT_NE(ledger.failures()[0].find("run 4 digest"), std::string::npos);
}

TEST(ReferenceTest, RefusalsAndErrorsCountToo) {
  OutcomeLedger ledger;
  ledger.Record(true);
  ledger.Record(false, "refused: Overloaded");
  EXPECT_DOUBLE_EQ(ledger.error_ratio(), 0.5);
  EXPECT_EQ(OutcomeLedger().error_ratio(), 0.0);
}

}  // namespace
}  // namespace perfbench
