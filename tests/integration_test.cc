// Cross-module integration checks: the full Figure 3 architecture exercised
// end to end on the shared environment.

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/matcher.h"
#include "engine/invocation_engine.h"
#include "repair/repair.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

using testing_env::GetEnvironment;

TEST(IntegrationTest, EveryAvailableModuleIsAnnotated) {
  const auto& env = GetEnvironment();
  for (const std::string& id : env.corpus.available_ids) {
    EXPECT_TRUE(env.corpus.registry->HasDataExamples(id))
        << (*env.corpus.registry->Find(id))->spec().name;
  }
}

TEST(IntegrationTest, ExamplesReplayDeterministically) {
  // Every stored data example must reproduce exactly when the module is
  // re-invoked on its inputs — the registry stores real behavior.
  const auto& env = GetEnvironment();
  for (size_t i = 0; i < env.corpus.available_ids.size(); i += 7) {
    const std::string& id = env.corpus.available_ids[i];
    ModulePtr module = *env.corpus.registry->Find(id);
    for (const DataExample& example :
         env.corpus.registry->DataExamplesOf(id)) {
      auto outputs =
          InvocationEngine::Serial().Invoke(*module, example.inputs);
      ASSERT_TRUE(outputs.ok()) << module->spec().name;
      ASSERT_EQ(outputs->size(), example.outputs.size());
      for (size_t o = 0; o < outputs->size(); ++o) {
        EXPECT_EQ((*outputs)[o], example.outputs[o]) << module->spec().name;
      }
    }
  }
}

TEST(IntegrationTest, GenerationIsDeterministicAcrossRebuilds) {
  // Rebuild the whole pipeline from the same seed: the annotation of a
  // sample module must be identical.
  const auto& env = GetEnvironment();
  auto corpus = BuildCorpus();
  ASSERT_TRUE(corpus.ok());
  auto workflows = GenerateWorkflowCorpus(*corpus);
  ASSERT_TRUE(workflows.ok());
  auto provenance = BuildProvenanceCorpus(*corpus, *workflows);
  ASSERT_TRUE(provenance.ok());
  AnnotatedInstancePool pool =
      HarvestPool(*provenance, *corpus->registry, *corpus->ontology);
  ExampleGenerator generator(
      kbimage::CompiledKb::CompileOrDie(*corpus->ontology), &pool);

  for (const char* name : {"EBI_GetUniprotRecord", "NormalizeAccession",
                           "CompareSequences", "GetConcept"}) {
    ModulePtr fresh = *corpus->registry->FindByName(name);
    auto outcome = generator.Generate(*fresh);
    ASSERT_TRUE(outcome.ok()) << name;
    ModulePtr original = *env.corpus.registry->FindByName(name);
    const DataExampleSet& reference =
        env.corpus.registry->DataExamplesOf(original->spec().id);
    ASSERT_EQ(outcome->examples.size(), reference.size()) << name;
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(outcome->examples[i] == reference[i]) << name;
    }
  }
}

TEST(IntegrationTest, Figure1ProteinIdentificationPipeline) {
  // The paper's running example rebuilt against the library: identify a
  // protein from peptide masses, fetch its record, run a homology search.
  const auto& env = GetEnvironment();
  const KnowledgeBase& kb = *env.corpus.kb;
  const ModuleRegistry& registry = *env.corpus.registry;

  std::vector<Value> masses;
  for (double mass : kb.proteins()[5].peptide_masses) {
    masses.push_back(Value::Real(mass));
  }
  auto identify = *registry.FindByName("Identify");
  auto report = identify->Invoke({Value::ListOf(masses), Value::Real(5.0)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_NE((*report)[0].AsString().find(kb.proteins()[5].accession),
            std::string::npos);

  auto get_record = *registry.FindByName("EBI_GetUniprotRecord");
  auto record =
      get_record->Invoke({Value::Str(kb.proteins()[5].accession)});
  ASSERT_TRUE(record.ok());

  auto search = *registry.FindByName("EBI_SearchSimple");
  auto alignment = search->Invoke(
      {(*record)[0], Value::Str("blastp"), Value::Str("uniprot")});
  ASSERT_TRUE(alignment.ok()) << alignment.status();
  EXPECT_NE((*alignment)[0].AsString().find("PROGRAM  blastp"),
            std::string::npos);
}

TEST(IntegrationTest, RetiredModulesKeepSpecsButRejectInvocation) {
  const auto& env = GetEnvironment();
  for (const std::string& id : env.corpus.retired_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    EXPECT_FALSE(module->available());
    EXPECT_FALSE(module->spec().name.empty());
  }
}

TEST(IntegrationTest, BrokenWorkflowsFailBeforeRepairAndRunAfter) {
  const auto& env = GetEnvironment();
  // Find an equivalent-only workflow, check it fails, repair it by hand.
  const GeneratedWorkflow* broken = nullptr;
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (item.category == WorkflowCategory::kEquivalentOnly) {
      broken = &item;
      break;
    }
  }
  ASSERT_NE(broken, nullptr);
  auto failed = Enact(broken->workflow, *env.corpus.registry, broken->seeds);
  EXPECT_TRUE(failed.status().IsDecayed());

  auto matching = MatchRetiredModules(env.corpus, env.provenance);
  ASSERT_TRUE(matching.ok());
  Workflow repaired = broken->workflow;
  for (Processor& processor : repaired.processors) {
    auto module = *env.corpus.registry->Find(processor.module_id);
    if (module->available()) continue;
    const auto& best = matching->best.at(processor.module_id);
    ASSERT_FALSE(best.candidate_id.empty());
    processor.module_id = best.candidate_id;
  }
  auto fixed = Enact(repaired, *env.corpus.registry, broken->seeds);
  EXPECT_TRUE(fixed.ok()) << fixed.status();
}

TEST(IntegrationTest, CoverageSummaryOverWholeCorpus) {
  const auto& env = GetEnvironment();
  CoverageAnalyzer analyzer(env.kb);
  size_t fully_covered_outputs = 0;
  for (const std::string& id : env.corpus.available_ids) {
    ModulePtr module = *env.corpus.registry->Find(id);
    CoverageReport report = analyzer.Analyze(
        module->spec(), env.corpus.registry->DataExamplesOf(id));
    if (report.outputs_fully_covered()) ++fully_covered_outputs;
  }
  EXPECT_EQ(fully_covered_outputs, 233u);  // 252 - 19 exceptions.
}

}  // namespace
}  // namespace dexa
