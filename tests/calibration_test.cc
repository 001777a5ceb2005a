// End-to-end calibration: running the paper's pipeline over the corpus must
// reproduce the Section 4.3 results — full input-partition coverage, 19
// output-coverage exceptions, and the completeness/conciseness histograms
// of Tables 1 and 2.

#include <map>

#include <gtest/gtest.h>

#include "common/table.h"
#include "core/coverage.h"
#include "core/metrics.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

TEST(CalibrationTest, Table3KindCensus) {
  const auto& env = GetEnvironment();
  std::map<ModuleKind, int> census;
  for (const std::string& id : env.corpus.available_ids) {
    census[(*env.corpus.registry->Find(id))->spec().kind]++;
  }
  EXPECT_EQ(census[ModuleKind::kFormatTransformation], 53);
  EXPECT_EQ(census[ModuleKind::kDataRetrieval], 51);
  EXPECT_EQ(census[ModuleKind::kMappingIdentifiers], 62);
  EXPECT_EQ(census[ModuleKind::kFiltering], 27);
  EXPECT_EQ(census[ModuleKind::kDataAnalysis], 59);
}

TEST(CalibrationTest, AllInputPartitionsCovered) {
  const auto& env = GetEnvironment();
  CoverageAnalyzer analyzer(env.kb);
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    CoverageReport report = analyzer.Analyze(
        module->spec(), env.corpus.registry->DataExamplesOf(id));
    EXPECT_TRUE(report.inputs_fully_covered())
        << module->spec().name << ": " << report.covered_input_partitions
        << "/" << report.input_partitions << " input partitions covered";
  }
}

TEST(CalibrationTest, Exactly19OutputCoverageExceptions) {
  const auto& env = GetEnvironment();
  CoverageAnalyzer analyzer(env.kb);
  std::vector<std::string> exceptions;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    CoverageReport report = analyzer.Analyze(
        module->spec(), env.corpus.registry->DataExamplesOf(id));
    if (!report.outputs_fully_covered()) {
      exceptions.push_back(module->spec().name);
    }
  }
  EXPECT_EQ(exceptions.size(), 19u);
  // The paper names get_genes_by_enzyme, link and binfo among them.
  auto contains = [&](const std::string& name) {
    for (const std::string& exception : exceptions) {
      if (exception == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("get_genes_by_enzyme"));
  EXPECT_TRUE(contains("link"));
  EXPECT_TRUE(contains("binfo"));
}

TEST(CalibrationTest, Table1CompletenessHistogram) {
  const auto& env = GetEnvironment();
  std::map<std::string, int> histogram;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    auto metrics = EvaluateBehaviorMetrics(
        *module, env.corpus.registry->DataExamplesOf(id));
    ASSERT_TRUE(metrics.ok()) << module->spec().name;
    histogram[FormatFixed(metrics->completeness(), 3)]++;
  }
  EXPECT_EQ(histogram["1.000"], 234) << "fully characterized modules";
  EXPECT_EQ(histogram["0.750"], 8);
  EXPECT_EQ(histogram["0.625"], 4);
  EXPECT_EQ(histogram["0.600"], 4);
  EXPECT_EQ(histogram["0.500"], 2);
}

TEST(CalibrationTest, Table2ConcisenessHistogram) {
  const auto& env = GetEnvironment();
  std::map<std::string, int> histogram;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    auto metrics = EvaluateBehaviorMetrics(
        *module, env.corpus.registry->DataExamplesOf(id));
    ASSERT_TRUE(metrics.ok()) << module->spec().name;
    histogram[FormatFixed(metrics->conciseness(), 2)]++;
  }
  EXPECT_EQ(histogram["1.00"], 192);
  EXPECT_EQ(histogram["0.50"], 32);
  EXPECT_EQ(histogram["0.47"], 7);
  EXPECT_EQ(histogram["0.40"], 4);
  EXPECT_EQ(histogram["0.33"], 4);
  EXPECT_EQ(histogram["0.20"], 8);
  EXPECT_EQ(histogram["0.17"], 4);
  EXPECT_EQ(histogram["0.10"], 1);
}

}  // namespace
}  // namespace dexa
