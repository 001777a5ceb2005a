// Dedicated suite for the instance classifier: the component that decides
// which partition of a declared concept a raw value instantiates (output
// coverage, pool harvesting, annotation verification all depend on it).

#include <gtest/gtest.h>

#include "core/instance_classifier.h"
#include "corpus/behaviors.h"
#include "kb/render.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

class ClassifierTest : public ::testing::Test {
 protected:
  ClassifierTest()
      : env_(GetEnvironment()), classifier_(env_.kb) {}

  ConceptId C(const char* name) { return env_.corpus.ontology->Find(name); }

  std::string Classified(const Value& value, const char* declared) {
    ConceptId c = classifier_.Classify(value, C(declared));
    return c == kInvalidConcept ? "<none>" : env_.corpus.ontology->NameOf(c);
  }

  const testing_env::Environment& env_;
  InstanceClassifier classifier_;
};

TEST_F(ClassifierTest, EveryAccessionNamespaceUnderAccession) {
  const KnowledgeBase& kb = *env_.corpus.kb;
  EXPECT_EQ(Classified(Value::Str(kb.proteins()[0].accession), "Accession"),
            "UniprotAccession");
  EXPECT_EQ(
      Classified(Value::Str(kb.proteins()[0].pdb_accession), "Accession"),
      "PDBAccession");
  EXPECT_EQ(
      Classified(Value::Str(kb.proteins()[0].embl_accession), "Accession"),
      "EMBLAccession");
  EXPECT_EQ(Classified(Value::Str(kb.genes()[0].gene_id), "Accession"),
            "KEGGGeneId");
  EXPECT_EQ(Classified(Value::Str(kb.enzymes()[0].ec_number), "Accession"),
            "EnzymeId");
  EXPECT_EQ(Classified(Value::Str(kb.glycans()[0].glycan_id), "Accession"),
            "GlycanId");
  EXPECT_EQ(Classified(Value::Str(kb.ligands()[0].ligand_id), "Accession"),
            "LigandId");
  EXPECT_EQ(Classified(Value::Str(kb.compounds()[0].compound_id), "Accession"),
            "CompoundId");
  EXPECT_EQ(Classified(Value::Str(kb.pathways()[0].pathway_id), "Accession"),
            "PathwayId");
  EXPECT_EQ(Classified(Value::Str(kb.go_terms()[0].go_id), "Accession"),
            "GOTermId");
}

TEST_F(ClassifierTest, EveryRecordFormatUnderRecord) {
  const KnowledgeBase& kb = *env_.corpus.kb;
  struct Row {
    RecordKind kind;
    std::string accession;
  };
  std::vector<Row> rows = {
      {RecordKind::kUniprot, kb.proteins()[0].accession},
      {RecordKind::kFasta, kb.proteins()[0].accession},
      {RecordKind::kEmbl, kb.proteins()[0].embl_accession},
      {RecordKind::kGenBank, kb.proteins()[0].embl_accession},
      {RecordKind::kPdb, kb.proteins()[0].pdb_accession},
      {RecordKind::kKeggGene, kb.genes()[0].gene_id},
      {RecordKind::kEnzyme, kb.enzymes()[0].ec_number},
      {RecordKind::kGlycan, kb.glycans()[0].glycan_id},
      {RecordKind::kLigand, kb.ligands()[0].ligand_id},
      {RecordKind::kCompound, kb.compounds()[0].compound_id},
      {RecordKind::kPathway, kb.pathways()[0].pathway_id},
      {RecordKind::kGo, kb.go_terms()[0].go_id},
      {RecordKind::kInterPro, kb.proteins()[0].accession},
      {RecordKind::kPfam, kb.proteins()[0].accession},
      {RecordKind::kDisease, kb.genes()[0].gene_id},
  };
  for (const Row& row : rows) {
    auto record = RetrieveRecord(kb, row.kind, row.accession);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(Classified(Value::Str(*record), "Record"),
              RecordKindConcept(row.kind));
  }
}

TEST_F(ClassifierTest, SequencesUnderBiologicalSequence) {
  EXPECT_EQ(Classified(Value::Str("ACGTACGT"), "BiologicalSequence"),
            "DNASequence");
  EXPECT_EQ(Classified(Value::Str("ACGUACGU"), "BiologicalSequence"),
            "RNASequence");
  EXPECT_EQ(Classified(Value::Str("MKWYHQ"), "BiologicalSequence"),
            "ProteinSequence");
  EXPECT_EQ(Classified(Value::Str(""), "BiologicalSequence"), "<none>");
  EXPECT_EQ(Classified(Value::Str("not a sequence!"), "BiologicalSequence"),
            "<none>");
}

TEST_F(ClassifierTest, TermsAndParameters) {
  EXPECT_EQ(Classified(Value::Str("GO:0001000 ! protein folding"),
                       "OntologyTerm"),
            "GOTerm");
  EXPECT_EQ(Classified(Value::Str("HP:0001250 ! recurrent seizures"),
                       "OntologyTerm"),
            "PhenotypeTerm");
  EXPECT_EQ(Classified(Value::Str("blastp"), "AlgorithmName"),
            "AlgorithmName");
  EXPECT_EQ(Classified(Value::Str("uniprot"), "DatabaseName"),
            "DatabaseName");
  EXPECT_EQ(Classified(Value::Real(5.0), "ErrorTolerance"), "ErrorTolerance");
  EXPECT_EQ(Classified(Value::Int(42), "Count"), "Count");
}

TEST_F(ClassifierTest, ListShapedLeafAndHomogeneousLists) {
  Value masses = Value::ListOf({Value::Real(1000.5), Value::Real(1100.25)});
  EXPECT_EQ(Classified(masses, "PeptideMassList"), "PeptideMassList");
  Value accessions = Value::ListOf(
      {Value::Str("P00001"), Value::Str("P00002")});
  EXPECT_EQ(Classified(accessions, "Accession"), "UniprotAccession");
  // Mixed lists classify as nothing (callers fall back to per-element).
  Value mixed = Value::ListOf({Value::Str("P00001"), Value::Str("G00100")});
  EXPECT_EQ(Classified(mixed, "Accession"), "<none>");
  EXPECT_EQ(Classified(Value::ListOf({}), "Accession"), "<none>");
}

TEST_F(ClassifierTest, NullAndInvalidDeclared) {
  EXPECT_EQ(classifier_.Classify(Value::Null(), C("Accession")),
            kInvalidConcept);
  EXPECT_EQ(classifier_.Classify(Value::Str("x"), kInvalidConcept),
            kInvalidConcept);
}

TEST_F(ClassifierTest, DeclaredLeafActsAsFallback) {
  // TextDocument is realizable: any free text lands on it.
  EXPECT_EQ(Classified(Value::Str("some free text here"), "TextDocument"),
            "TextDocument");
  // But structured grammars do not read as free text.
  EXPECT_EQ(Classified(Value::Str("P00001"), "TextDocument"), "<none>");
}

TEST_F(ClassifierTest, MatchesIsLeafMembership) {
  EXPECT_TRUE(classifier_.Matches(Value::Str("P00001"), C("UniprotAccession")));
  EXPECT_FALSE(classifier_.Matches(Value::Str("P00001"), C("PDBAccession")));
  EXPECT_FALSE(classifier_.Matches(Value::Null(), C("UniprotAccession")));
  EXPECT_TRUE(classifier_.Matches(
      Value::ListOf({Value::Str("P00001"), Value::Str("P00002")}),
      C("UniprotAccession")));
  EXPECT_FALSE(classifier_.Matches(
      Value::ListOf({Value::Str("P00001"), Value::Str("G00100")}),
      C("UniprotAccession")));
}

}  // namespace
}  // namespace dexa
