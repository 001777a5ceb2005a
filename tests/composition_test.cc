// Tests of example-guided composition (Section 8 future work) and
// behavior-based module discovery.

#include <gtest/gtest.h>

#include "core/composition.h"
#include "core/discovery.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class CompositionTest : public ::testing::Test {
 protected:
  CompositionTest()
      : env_(GetEnvironment()),
        composer_(env_.kb, env_.corpus.registry.get(),
                  env_.pool.get()) {}

  ConceptId C(const char* name) { return env_.corpus.ontology->Find(name); }

  std::string NameOf(const std::string& module_id) {
    return (*env_.corpus.registry->Find(module_id))->spec().name;
  }

  const testing_env::Environment& env_;
  ExampleGuidedComposer composer_;
};

TEST_F(CompositionTest, FindsSingleStepChains) {
  CompositionRequest request;
  request.source_concept = C("UniprotAccession");
  request.target_concept = C("UniprotRecord");
  request.max_depth = 1;
  auto candidates = composer_.Compose(request);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  ASSERT_FALSE(candidates->empty());
  // Every candidate is a single retrieval returning a Uniprot record.
  for (const CompositionCandidate& candidate : *candidates) {
    EXPECT_EQ(candidate.module_ids.size(), 1u);
    EXPECT_NE(NameOf(candidate.module_ids[0]).find("GetUniprotRecord"),
              std::string::npos);
    EXPECT_TRUE(candidate.witness_output.is_string());
  }
}

TEST_F(CompositionTest, FindsMultiStepChains) {
  // UniprotAccession -> ... -> AlignmentReport requires going through a
  // record (GetUniprotRecord then SearchSimple, the paper's Figure 1).
  CompositionRequest request;
  request.source_concept = C("UniprotAccession");
  request.target_concept = C("AlignmentReport");
  request.max_depth = 2;
  auto candidates = composer_.Compose(request);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  ASSERT_FALSE(candidates->empty());
  const CompositionCandidate& best = (*candidates)[0];
  ASSERT_EQ(best.module_ids.size(), 2u);
  EXPECT_NE(NameOf(best.module_ids[0]).find("GetUniprotRecord"),
            std::string::npos);
  EXPECT_NE(NameOf(best.module_ids[1]).find("SearchSimple"),
            std::string::npos);
  // The witness output is a real alignment report.
  EXPECT_NE(best.witness_output.AsString().find("PROGRAM"),
            std::string::npos);
}

TEST_F(CompositionTest, ValidationPrunesTypeOnlyChains) {
  // DNASequence -> ProteinSequence: translation works; chains through
  // RNA-only modules that would reject DNA never validate.
  CompositionRequest request;
  request.source_concept = C("DNASequence");
  request.target_concept = C("ProteinSequence");
  request.max_depth = 1;
  auto candidates = composer_.Compose(request);
  ASSERT_TRUE(candidates.ok());
  ASSERT_FALSE(candidates->empty());
  for (const CompositionCandidate& candidate : *candidates) {
    EXPECT_NE(NameOf(candidate.module_ids[0]).find("TranslateDNA"),
              std::string::npos)
        << NameOf(candidate.module_ids[0]);
  }
}

TEST_F(CompositionTest, RespectsDepthLimit) {
  CompositionRequest request;
  request.source_concept = C("UniprotAccession");
  request.target_concept = C("AlignmentReport");
  request.max_depth = 1;  // Too short: no direct accession->report module
                          // except homology search via... none at depth 1
                          // with exact output (GetHomologous yields a list).
  auto candidates = composer_.Compose(request);
  ASSERT_TRUE(candidates.ok());
  for (const CompositionCandidate& candidate : *candidates) {
    EXPECT_LE(candidate.module_ids.size(), 1u);
  }
}

TEST_F(CompositionTest, RejectsInvalidEndpoints) {
  CompositionRequest request;  // Unset concepts.
  EXPECT_TRUE(composer_.Compose(request).status().IsInvalidArgument());
}

class DiscoveryTest : public ::testing::Test {
 protected:
  DiscoveryTest()
      : env_(GetEnvironment()),
        discovery_(env_.kb, env_.corpus.registry.get()) {}

  ConceptId C(const char* name) { return env_.corpus.ontology->Find(name); }

  const testing_env::Environment& env_;
  BehaviorDiscovery discovery_;
};

TEST_F(DiscoveryTest, RanksExactSignaturesFirst) {
  DiscoveryQuery query;
  query.input_concept = C("UniprotAccession");
  query.output_concept = C("ProteinSequence");
  auto hits = discovery_.Search(query, 5);
  ASSERT_FALSE(hits.empty());
  EXPECT_NE(hits[0].module_name.find("GetProteinSequence"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(hits[0].score, 1.0);
  // The contextual GetBiologicalSequence providers follow.
  bool saw_contextual = false;
  for (const DiscoveryHit& hit : hits) {
    if (hit.module_name.find("GetBiologicalSequence") != std::string::npos) {
      saw_contextual = true;
      EXPECT_LT(hit.score, 1.0);
    }
  }
  EXPECT_TRUE(saw_contextual);
}

TEST_F(DiscoveryTest, UnsetQueryConceptsMatchNothing) {
  // Every module parameter of the corpus is annotated, so a query that
  // names no concepts has no exact or contextual signature to match (it
  // used to read outside the concept tables instead).
  DiscoveryQuery query;
  EXPECT_TRUE(discovery_.Search(query, 5).empty());
}

TEST_F(DiscoveryTest, ExampleBonusSeparatesBehaviors) {
  // Query: NucleotideSequence -> Fraction, with a GC-content example. The
  // sequence is GC/AT-asymmetric so only the GC statistic reproduces it.
  const std::string dna = "GGGCCCAT";  // GC = 0.75, AT = 0.25.
  DiscoveryQuery query;
  query.input_concept = C("NucleotideSequence");
  query.input_type = StructuralType::String();
  query.output_concept = C("Fraction");
  query.output_type = StructuralType::Double();
  DataExample example;
  example.inputs = {Value::Str(dna)};
  example.outputs = {Value::Real(0.75)};
  query.example = example;

  auto hits = discovery_.Search(query, 5);
  ASSERT_FALSE(hits.empty());
  // The GC-content providers reproduce the example and outrank the other
  // Fraction-valued statistics.
  EXPECT_NE(hits[0].module_name.find("ComputeGcContent"), std::string::npos);
  EXPECT_GT(hits[0].score, 1.5);
  EXPECT_NE(hits[0].why.find("reproduces the example"), std::string::npos);
  bool saw_other = false;
  for (const DiscoveryHit& hit : hits) {
    if (hit.module_name.find("ComputeGcContent") == std::string::npos) {
      saw_other = true;
      EXPECT_LT(hit.score, hits[0].score);
    }
  }
  EXPECT_TRUE(saw_other);
}

TEST_F(DiscoveryTest, RespectsTopK) {
  DiscoveryQuery query;
  query.input_concept = C("UniprotAccession");
  query.output_concept = C("UniprotRecord");
  auto hits = discovery_.Search(query, 2);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(DiscoveryTest, EmptyWhenNothingMatches) {
  DiscoveryQuery query;
  query.input_concept = C("GlycanId");
  query.output_concept = C("PeptideMassList");
  query.output_type = StructuralType::List(StructuralType::Double());
  auto hits = discovery_.Search(query);
  EXPECT_TRUE(hits.empty());
}

}  // namespace
}  // namespace dexa
