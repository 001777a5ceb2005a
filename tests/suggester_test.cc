// Tests of the curator-assistance annotation suggester (Figure 3, box 1).

#include <gtest/gtest.h>

#include "core/annotation_suggester.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class SuggesterTest : public ::testing::Test {
 protected:
  SuggesterTest()
      : env_(GetEnvironment()), suggester_(env_.kb) {}

  std::string TopSuggestion(const std::string& name,
                            const Value& sample = Value::Null()) {
    auto suggestions =
        suggester_.Suggest(name, StructuralType::String(), sample);
    if (suggestions.empty()) return "";
    return env_.corpus.ontology->NameOf(suggestions[0].concept_id);
  }

  const testing_env::Environment& env_;
  AnnotationSuggester suggester_;
};

TEST(TokenizeTest, SplitsIdentifiers) {
  EXPECT_EQ(TokenizeIdentifier("getProteinSequence"),
            (std::vector<std::string>{"get", "protein", "sequence"}));
  EXPECT_EQ(TokenizeIdentifier("peptide_masses"),
            (std::vector<std::string>{"peptide", "masses"}));
  EXPECT_EQ(TokenizeIdentifier("DNASequence"),
            (std::vector<std::string>{"dna", "sequence"}));
  EXPECT_EQ(TokenizeIdentifier("UniprotAccession"),
            (std::vector<std::string>{"uniprot", "accession"}));
  EXPECT_EQ(TokenizeIdentifier("GO-term id"),
            (std::vector<std::string>{"go", "term", "id"}));
  EXPECT_TRUE(TokenizeIdentifier("").empty());
}

TEST_F(SuggesterTest, LexicalMatchesParameterNames) {
  EXPECT_EQ(TopSuggestion("protein_sequence"), "ProteinSequence");
  EXPECT_EQ(TopSuggestion("dnaSequence"), "DNASequence");
  EXPECT_EQ(TopSuggestion("uniprot_accession"), "UniprotAccession");
  EXPECT_EQ(TopSuggestion("pathwayId"), "PathwayId");
}

TEST_F(SuggesterTest, SampleValueDisambiguates) {
  // "accession" alone is ambiguous across namespaces; a sample value pins
  // the namespace down.
  const KnowledgeBase& kb = *env_.corpus.kb;
  EXPECT_EQ(TopSuggestion("accession", Value::Str(kb.proteins()[0].accession)),
            "UniprotAccession");
  EXPECT_EQ(TopSuggestion("accession",
                          Value::Str(kb.proteins()[0].pdb_accession)),
            "PDBAccession");
  EXPECT_EQ(TopSuggestion("id", Value::Str(kb.genes()[0].gene_id)),
            "KEGGGeneId");
}

TEST_F(SuggesterTest, SampleContradictionDemotesLexicalHits) {
  // The name says protein sequence but the data is DNA: the instance-based
  // matcher wins.
  auto suggestions = suggester_.Suggest(
      "protein_sequence", StructuralType::String(),
      Value::Str(env_.corpus.kb->genes()[0].dna_sequence));
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(env_.corpus.ontology->NameOf(suggestions[0].concept_id),
            "DNASequence");
}

TEST_F(SuggesterTest, ListSamplesUseElementValues) {
  std::vector<Value> masses = {Value::Real(1123.5), Value::Real(980.2)};
  auto suggestions =
      suggester_.Suggest("peptide_masses",
                         StructuralType::List(StructuralType::Double()),
                         Value::ListOf(masses));
  ASSERT_FALSE(suggestions.empty());
  EXPECT_EQ(env_.corpus.ontology->NameOf(suggestions[0].concept_id),
            "PeptideMassList");
}

TEST_F(SuggesterTest, RespectsTopKAndOmitsCoveredConcepts) {
  auto suggestions =
      suggester_.Suggest("sequence", StructuralType::String(), Value::Null(), 3);
  EXPECT_LE(suggestions.size(), 3u);
  for (const ConceptSuggestion& suggestion : suggestions) {
    EXPECT_FALSE(env_.corpus.ontology->Get(suggestion.concept_id).covered);
  }
}

}  // namespace
}  // namespace dexa
