// Facade-equivalence suite for the RunRequest/RunResult API
// (core/run_api.h): every run family submitted through SubmitRun must be
// byte-identical to the entry point it subsumes — annotations, journal
// bytes, enactment outputs — at any thread count, including crash-resume
// through the facade.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "durability/durable_annotate.h"
#include "durability/durable_enact.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "modules/registry_io.h"
#include "obs/export.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_run_api" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A fresh, unannotated registry with the environment's module ids (every
/// module wrapped in a pass-through injector).
std::unique_ptr<ModuleRegistry> FreshRegistry() {
  const auto& env = GetEnvironment();
  auto wrapped = WrapRegistryWithFaults(*env.corpus.registry, FaultProfile{});
  EXPECT_TRUE(wrapped.ok()) << wrapped.status();
  return std::move(wrapped).value();
}

/// All journal segment bytes of `dir`, concatenated in segment order — the
/// byte-identity witness for durable runs.
std::string JournalBytes(const std::string& dir) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      segments.push_back(entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  std::string bytes;
  for (const fs::path& segment : segments) {
    auto content = ReadFileToString(segment.string());
    EXPECT_TRUE(content.ok()) << content.status();
    if (content.ok()) bytes += *content;
  }
  return bytes;
}

std::string Annotations(const ModuleRegistry& registry) {
  return SaveAnnotations(registry, *GetEnvironment().corpus.ontology);
}

/// A still-enactable corpus workflow with >= 3 processors.
const GeneratedWorkflow& PickWorkflow() {
  const auto& env = GetEnvironment();
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (item.workflow.processors.size() >= 3 &&
        IsEnactable(item.workflow, *env.corpus.registry)) {
      return item;
    }
  }
  ADD_FAILURE() << "no enactable workflow with >= 3 processors";
  std::abort();
}

TEST(RunApiTest, RunKindNamesAreStable) {
  EXPECT_STREQ(RunKindName(RunKind::kAnnotate), "annotate");
  EXPECT_STREQ(RunKindName(RunKind::kAnnotateDurable), "annotate_durable");
  EXPECT_STREQ(RunKindName(RunKind::kEnact), "enact");
  EXPECT_STREQ(RunKindName(RunKind::kEnactDurable), "enact_durable");
}

TEST(RunApiTest, ValidatesRequiredFieldsPerKind) {
  RunRequest empty;  // kAnnotate with no generator/registry.
  auto result = SubmitRun(empty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());
  auto registry = FreshRegistry();

  RunRequest durable = MakeAnnotateRun(generator, *registry);
  durable.kind = RunKind::kAnnotateDurable;  // No ontology, no journal.
  auto durable_result = SubmitRun(durable);
  ASSERT_FALSE(durable_result.ok());
  EXPECT_EQ(durable_result.status().code(), StatusCode::kInvalidArgument);

  RunRequest enact;
  enact.kind = RunKind::kEnact;  // No workflow/registry/engine.
  auto enact_result = SubmitRun(enact);
  ASSERT_FALSE(enact_result.ok());
  EXPECT_EQ(enact_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunApiTest, AnnotateFacadeMatchesDirectEntry) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());

  auto direct_registry = FreshRegistry();
  auto direct = AnnotateRegistry(generator, *direct_registry);
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_TRUE(direct->complete()) << direct->run_status;

  auto facade_registry = FreshRegistry();
  auto facade = SubmitRun(MakeAnnotateRun(generator, *facade_registry));
  ASSERT_TRUE(facade.ok()) << facade.status();
  ASSERT_TRUE(facade->complete()) << facade->run_status;
  EXPECT_EQ(facade->kind, RunKind::kAnnotate);

  EXPECT_EQ(facade->annotate.annotated, direct->annotated);
  EXPECT_EQ(facade->annotate.examples, direct->examples);
  EXPECT_EQ(Annotations(*facade_registry), Annotations(*direct_registry));
}

TEST(RunApiTest, AnnotateFacadeByteIdenticalAcrossThreadCounts) {
  const auto& env = GetEnvironment();
  std::string annotations_t1, annotations_t8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineConfig config = EngineConfig().Threads(threads);
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto result = SubmitRun(MakeAnnotateRun(generator, *registry));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    (threads == 1 ? annotations_t1 : annotations_t8) = Annotations(*registry);
  }
  EXPECT_EQ(annotations_t1, annotations_t8);
  EXPECT_FALSE(annotations_t1.empty());
}

TEST(RunApiTest, DurableAnnotateFacadeMatchesLegacyShim) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());

  // Legacy entry point (its last legitimate call sites are this equivalence
  // suite and the shims themselves — dexa-lint bans it elsewhere).
  const std::string legacy_dir = FreshDir("legacy");
  auto legacy_registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(legacy_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto report = AnnotateRegistryDurable(generator, *legacy_registry,
                                          *env.corpus.ontology, *journal);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->complete()) << report->run_status;
  }

  const std::string facade_dir = FreshDir("facade");
  auto facade_registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(facade_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *facade_registry, *env.corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    EXPECT_EQ(result->kind, RunKind::kAnnotateDurable);
  }

  // Byte-for-byte: the annotations AND the journals the two paths wrote.
  EXPECT_EQ(Annotations(*facade_registry), Annotations(*legacy_registry));
  const std::string legacy_journal = JournalBytes(legacy_dir);
  EXPECT_EQ(JournalBytes(facade_dir), legacy_journal);
  EXPECT_FALSE(legacy_journal.empty());
}

TEST(RunApiTest, DurableAnnotateJournalByteIdenticalAcrossThreadCounts) {
  const auto& env = GetEnvironment();
  std::string journal_t1, journal_t8, annotations_t1, annotations_t8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EngineConfig config = EngineConfig().Threads(threads);
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    const std::string dir =
        FreshDir("threads" + std::to_string(threads));
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
    (threads == 1 ? journal_t1 : journal_t8) = JournalBytes(dir);
    (threads == 1 ? annotations_t1 : annotations_t8) = Annotations(*registry);
  }
  EXPECT_EQ(journal_t1, journal_t8);
  EXPECT_EQ(annotations_t1, annotations_t8);
}

TEST(RunApiTest, DurableAnnotateCrashResumesThroughFacade) {
  const auto& env = GetEnvironment();
  ExampleGenerator generator(env.kb, env.pool.get());

  // Uninterrupted facade run: the baseline annotations.
  const std::string baseline_dir = FreshDir("crash_baseline");
  auto baseline_registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(baseline_dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto result = SubmitRun(MakeDurableAnnotateRun(
        generator, *baseline_registry, *env.corpus.ontology, *journal));
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete()) << result->run_status;
  }

  const std::string crash_key = env.corpus.available_ids[10];
  const std::string dir = FreshDir("crash");
  auto registry = FreshRegistry();
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashBeforeCommit;
    crash.key = crash_key;
    RunRequest request = MakeDurableAnnotateRun(
        generator, *registry, *env.corpus.ontology, *journal);
    request.crash = &crash;
    auto crashed = SubmitRun(request);
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    EXPECT_FALSE(crashed->complete());
    EXPECT_EQ(crashed->run_status.code(), StatusCode::kCancelled);
    EXPECT_LT(crashed->annotate.annotated, baseline_registry->size());
  }

  // Resume through the facade on a fresh registry.
  auto resumed_registry = FreshRegistry();
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(journal.ok()) << journal.status();
  RunRequest request = MakeDurableAnnotateRun(
      generator, *resumed_registry, *env.corpus.ontology, *journal);
  request.resume = &*recovery;
  auto resumed = SubmitRun(request);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete()) << resumed->run_status;
  EXPECT_GT(resumed->annotate.replayed, 0u);

  EXPECT_EQ(Annotations(*resumed_registry), Annotations(*baseline_registry));
}

TEST(RunApiTest, EnactFacadeMatchesDirectEntry) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();

  InvocationEngine direct_engine;
  auto direct = EnactResilient(item.workflow, *env.corpus.registry,
                               item.seeds, direct_engine);
  ASSERT_TRUE(direct.ok()) << direct.status();

  InvocationEngine facade_engine;
  auto facade = SubmitRun(MakeEnactRun(item.workflow, *env.corpus.registry,
                                       item.seeds, facade_engine));
  ASSERT_TRUE(facade.ok()) << facade.status();
  ASSERT_TRUE(facade->complete()) << facade->run_status;
  EXPECT_EQ(facade->kind, RunKind::kEnact);

  ASSERT_EQ(facade->enact.outputs.size(), direct->outputs.size());
  for (size_t i = 0; i < direct->outputs.size(); ++i) {
    EXPECT_TRUE(facade->enact.outputs[i].Equals(direct->outputs[i]))
        << "output " << i << " diverged";
  }
  EXPECT_EQ(facade->enact.invocations.size(), direct->invocations.size());
  EXPECT_EQ(facade->enact.missing_outputs, direct->missing_outputs);
}

TEST(RunApiTest, DurableEnactCrashResumesThroughFacade) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();

  InvocationEngine baseline_engine;
  auto baseline = EnactResilient(item.workflow, *env.corpus.registry,
                                 item.seeds, baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact_crash");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = crash_key;
    RunRequest request = MakeDurableEnactRun(
        item.workflow, *env.corpus.registry, item.seeds, engine, *journal);
    request.crash = &crash;
    auto crashed = SubmitRun(request);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kCancelled)
        << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  RunRequest request = MakeDurableEnactRun(
      item.workflow, *env.corpus.registry, item.seeds, engine, *journal);
  request.resume = &*recovery;
  auto resumed = SubmitRun(request);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->complete()) << resumed->run_status;

  ASSERT_EQ(resumed->enact.outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->enact.outputs[i].Equals(baseline->outputs[i]))
        << "output " << i << " diverged after resume";
  }
  EXPECT_EQ(resumed->enact.invocations.size(), baseline->invocations.size());
}

TEST(RunApiTest, ExportsObservabilityIntoTheRequestRegistries) {
  const auto& env = GetEnvironment();
  EngineConfig config;
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto registry = FreshRegistry();

  obs::Tracer tracer(&engine->clock());
  obs::MetricsRegistry metrics;
  RunRequest request = MakeAnnotateRun(generator, *registry);
  request.obs.tracer = &tracer;
  request.obs.metrics = &metrics;
  auto result = SubmitRun(request);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete()) << result->run_status;

  // The run produced spans and the facade imported snapshot + trace.
  EXPECT_FALSE(tracer.spans().empty());
  obs::MetricsRegistry empty;
  EXPECT_NE(obs::WriteMetricsJson(metrics), obs::WriteMetricsJson(empty));
}

}  // namespace
}  // namespace dexa
