// Tests for the durability layer: journal framing and CRC32, segment
// rolling, torn-tail detection and discard, crash-point injection,
// crash-resume determinism (byte-identical state at any thread count),
// atomic snapshot/restore, and durable workflow enactment.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "common/crc32.h"
#include "common/io_env.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "durability/snapshot.h"
#include "durability/trace_io.h"
#include "modules/registry_io.h"
#include "pool/pool_io.h"
#include "tests/test_util.h"

namespace dexa {
namespace {

namespace fs = std::filesystem;

using testing_env::GetEnvironment;

/// A fresh directory under the test temp root, wiped on creation.
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / "dexa_durability" / name;
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

/// Forwards to the real filesystem and counts the file writes and syncs
/// that pass through it.
class CountingIoEnv final : public IoEnv {
 public:
  Result<std::unique_ptr<WritableIoFile>> NewWritableFile(
      const std::string& path) override {
    auto file = IoEnv::Real().NewWritableFile(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableIoFile>(
        std::make_unique<File>(std::move(file).value(), this));
  }
  Result<std::string> ReadFile(const std::string& path) override {
    return IoEnv::Real().ReadFile(path);
  }
  Result<MmapRegion> MapReadOnly(const std::string& path) override {
    return IoEnv::Real().MapReadOnly(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return IoEnv::Real().Rename(from, to);
  }
  Status RemoveFile(const std::string& path) override {
    return IoEnv::Real().RemoveFile(path);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    return IoEnv::Real().Truncate(path, size);
  }
  Status CreateDirs(const std::string& dir) override {
    return IoEnv::Real().CreateDirs(dir);
  }

  uint64_t appends = 0;
  uint64_t syncs = 0;

 private:
  class File final : public WritableIoFile {
   public:
    File(std::unique_ptr<WritableIoFile> base, CountingIoEnv* env)
        : base_(std::move(base)), env_(env) {}
    Status Append(std::string_view data) override {
      ++env_->appends;
      return base_->Append(data);
    }
    Status Sync() override {
      ++env_->syncs;
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableIoFile> base_;
    CountingIoEnv* env_;
  };
};

/// The bytes of every journal segment in `dir`, in segment order.
std::vector<std::string> SegmentBytes(const std::string& dir) {
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> bytes;
  for (const fs::path& path : paths) {
    auto content = IoEnv::Real().ReadFile(path.string());
    EXPECT_TRUE(content.ok()) << content.status();
    bytes.push_back(content.ok() ? *content : std::string());
  }
  return bytes;
}

TEST(Crc32Test, MatchesTheIeeeCheckVector) {
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Incremental form agrees with the one-shot form.
  uint32_t crc = Crc32Update(0, "1234");
  EXPECT_EQ(Crc32Update(crc, "56789"), Crc32("123456789"));
}

TEST(RunJournalTest, AppendRecoverRoundTrip) {
  const std::string dir = FreshDir("roundtrip");
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads = {"alpha", "beta\nwith lines",
                                       std::string(1000, 'x'), ""};
  for (const std::string& payload : payloads) {
    ASSERT_TRUE(journal->Append(payload).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_EQ(recovery->records, payloads);
}

TEST(RunJournalTest, RollsSegmentsPastTheSizeCap) {
  const std::string dir = FreshDir("rolling");
  JournalOptions options;
  options.segment_bytes = 256;
  auto journal = RunJournal::Create(dir, options);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("record-" + std::to_string(i) + "-" +
                       std::string(100, 'p'));
    ASSERT_TRUE(journal->Append(payloads.back()).ok());
  }
  ASSERT_TRUE(journal->Seal().ok());
  EXPECT_GT(journal->segments_sealed(), 3u);

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_EQ(recovery->records, payloads);
  EXPECT_GT(recovery->segments_scanned, 3u);
}

TEST(RunJournalTest, TornTailIsDetectedDiscardedAndResumable) {
  const std::string dir = FreshDir("torn");
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        journal->Append("payload-" + std::to_string(i) + std::string(64, 'q'))
            .ok());
  }
  ASSERT_TRUE(journal->Seal().ok());

  // A crash lands mid-write: the tail is truncated and bit-flipped.
  ASSERT_TRUE(TearJournalTail(dir, /*seed=*/7, /*flips=*/3,
                              /*truncate_bytes=*/5)
                  .ok());

  EngineMetrics metrics;
  auto recovery = RecoverJournal(dir, &metrics);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  EXPECT_TRUE(recovery->tail_status.IsCorrupted());
  EXPECT_GT(recovery->bytes_discarded, 0u);
  EXPECT_LT(recovery->records.size(), 8u);
  EXPECT_EQ(metrics.Snapshot().torn_tails_discarded, 1u);
  // The surviving prefix is intact.
  for (size_t i = 0; i < recovery->records.size(); ++i) {
    EXPECT_EQ(recovery->records[i],
              "payload-" + std::to_string(i) + std::string(64, 'q'));
  }

  // Resume truncates the damage; appends land behind the valid prefix.
  auto resumed = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE(resumed->Append("after-the-crash").ok());
  ASSERT_TRUE(resumed->Seal().ok());

  auto again = RecoverJournal(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->tail_discarded());
  ASSERT_EQ(again->records.size(), recovery->records.size() + 1);
  EXPECT_EQ(again->records.back(), "after-the-crash");
}

TEST(RunJournalTest, ResumeNumberingSurvivesSegmentGaps) {
  const std::string dir = FreshDir("gaps");
  {
    auto journal = RunJournal::Create(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Append("one").ok());
    ASSERT_TRUE(journal->Append("two").ok());
    ASSERT_TRUE(journal->Seal().ok());
  }
  // A crash left the next segment header-less (0 bytes): recovery drops it
  // whole, leaving a numbering gap after the resume writes wal-00002.
  { std::ofstream stub(fs::path(dir) / "wal-00001.seg", std::ios::binary); }
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  {
    auto resumed = RunJournal::Resume(dir, *recovery);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(resumed->Append("three").ok());
    ASSERT_TRUE(resumed->Seal().ok());
  }

  // Live segments are now {00000, 00002}: a clean resume must number past
  // the gap, not derive an index from the list position and truncate the
  // live wal-00002 (destroying "three").
  auto clean = RecoverJournal(dir);
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_FALSE(clean->tail_discarded());
  ASSERT_EQ(clean->records,
            (std::vector<std::string>{"one", "two", "three"}));
  {
    auto resumed = RunJournal::Resume(dir, *clean);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    ASSERT_TRUE(resumed->Append("four").ok());
    ASSERT_TRUE(resumed->Seal().ok());
  }
  auto final_pass = RecoverJournal(dir);
  ASSERT_TRUE(final_pass.ok()) << final_pass.status();
  EXPECT_FALSE(final_pass->tail_discarded());
  EXPECT_EQ(final_pass->records,
            (std::vector<std::string>{"one", "two", "three", "four"}));
}

TEST(RunJournalTest, DamagedHeaderEndsTheJournalBeforeAnyRecord) {
  SegmentScan scan = ScanSegment("GARBAGE!not a segment");
  EXPECT_TRUE(scan.status.IsCorrupted());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST(RunJournalTest, GroupAppendWritesTheSameBytesWithOneSyncPerSegment) {
  JournalOptions options;
  options.segment_bytes = 256;
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("record-" + std::to_string(i) + "-" +
                       std::string(40 + 13 * (i % 5), 'g'));
  }

  const std::string single_dir = FreshDir("group-single");
  CountingIoEnv single_io;
  {
    auto journal = RunJournal::Create(single_dir, options, nullptr, &single_io);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(journal->Append(payload).ok());
    }
  }

  // The whole sequence as one group: identical segment bytes, but one
  // write and one sync per segment instead of one per record.
  const std::string group_dir = FreshDir("group-whole");
  CountingIoEnv group_io;
  {
    auto journal = RunJournal::Create(group_dir, options, nullptr, &group_io);
    ASSERT_TRUE(journal.ok()) << journal.status();
    ASSERT_TRUE(journal->Append(payloads).ok());
    EXPECT_EQ(journal->records_appended(), payloads.size());
  }
  const std::vector<std::string> segments = SegmentBytes(single_dir);
  ASSERT_GT(segments.size(), 3u);
  EXPECT_EQ(SegmentBytes(group_dir), segments);
  // Create writes and syncs segment 0's header; the group then takes one
  // write and one sync per segment, the later headers riding along.
  EXPECT_EQ(group_io.syncs, 1 + segments.size());
  EXPECT_EQ(group_io.appends, 1 + segments.size());
  // Record at a time, every record is a group of its own.
  EXPECT_EQ(single_io.syncs, 1 + payloads.size());

  // How the records are grouped never shows on disk.
  const std::string mixed_dir = FreshDir("group-mixed");
  {
    auto journal = RunJournal::Create(mixed_dir, options);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (size_t at = 0; at < payloads.size(); at += 3) {
      const size_t n = std::min<size_t>(3, payloads.size() - at);
      ASSERT_TRUE(
          journal->Append(std::span<const std::string>(&payloads[at], n)).ok());
    }
  }
  EXPECT_EQ(SegmentBytes(mixed_dir), segments);
  auto recovery = RecoverJournal(mixed_dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_EQ(recovery->records, payloads);
}

TEST(RunJournalTest, GroupWhoseSyncFailsIsNotAcknowledged) {
  const std::string dir = FreshDir("group-fsync");
  IoFaultProfile profile;
  profile.fsync_fail_at = 3;  // 1: segment header, 2: first group.
  FaultyIoEnv faulty(profile);
  auto journal = RunJournal::Create(dir, {}, nullptr, &faulty);
  ASSERT_TRUE(journal.ok()) << journal.status();
  const std::vector<std::string> first = {"a", "b"};
  const std::vector<std::string> second = {"c", "d", "e"};
  ASSERT_TRUE(journal->Append(first).ok());
  Status failed = journal->Append(second);
  EXPECT_TRUE(failed.IsCorrupted()) << failed;
  EXPECT_EQ(journal->records_appended(), first.size());
  // The journal latches after the fault.
  EXPECT_TRUE(journal->Append("f").IsUnavailable());
}

TEST(SnapshotTest, AtomicWriteLeavesNoTemporaries) {
  const std::string dir = FreshDir("atomic");
  const std::string path = (fs::path(dir) / "artifact.txt").string();
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotTest, RunStateRoundTripAndCorruptionSafety) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("snapshot");

  ASSERT_TRUE(WriteRunStateSnapshot(dir, *env.pool, *env.corpus.registry,
                                    *env.corpus.ontology, env.provenance)
                  .ok());

  // Round trip into a fresh registry: byte-identical serialized state.
  auto restored_registry = FreshRegistry();
  auto restored =
      RestoreRunState(dir, *env.corpus.ontology, *restored_registry);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_GT(restored->modules_restored, 0u);
  EXPECT_EQ(SavePool(restored->pool), SavePool(*env.pool));
  EXPECT_EQ(SaveTraces(restored->provenance), SaveTraces(env.provenance));
  EXPECT_EQ(SaveAnnotations(*restored_registry, *env.corpus.ontology),
            SaveAnnotations(*env.corpus.registry, *env.corpus.ontology));

  // Truncate the annotations artifact mid-example: restore reports
  // kCorrupted and leaves the target registry untouched.
  const std::string annotations_path =
      (fs::path(dir) / kSnapshotAnnotationsFile).string();
  auto annotations = ReadFileToString(annotations_path);
  ASSERT_TRUE(annotations.ok());
  // Cut just before an "end" line: every surviving line is complete, but
  // the document stops inside an example — damage, not a grammar error.
  size_t cut = annotations->rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(annotations_path, std::ios::binary | std::ios::trunc);
    out << annotations->substr(0, cut + 1);
  }
  auto clean_registry = FreshRegistry();
  auto damaged =
      RestoreRunState(dir, *env.corpus.ontology, *clean_registry);
  ASSERT_FALSE(damaged.ok());
  EXPECT_TRUE(damaged.status().IsCorrupted()) << damaged.status();
  for (const ModulePtr& module : clean_registry->AllModules()) {
    EXPECT_TRUE(clean_registry->DataExamplesOf(module->spec().id).empty());
  }
}

TEST(TraceIoTest, TruncatedTraceFileIsCorruptedNotParseError) {
  const auto& env = GetEnvironment();
  std::string rendered = SaveTraces(env.provenance);
  size_t cut = rendered.rfind("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  auto result = LoadTraces(rendered.substr(0, cut + 1));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();
}

TEST(RegistryIoTest, TruncatedAnnotationsAreCorruptedAndAtomic) {
  const auto& env = GetEnvironment();
  std::string rendered =
      SaveAnnotations(*env.corpus.registry, *env.corpus.ontology);
  size_t cut = rendered.find("\nend\n");
  ASSERT_NE(cut, std::string::npos);
  auto registry = FreshRegistry();
  auto result = LoadAnnotations(rendered.substr(0, cut + 1),
                                *env.corpus.ontology, *registry);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorrupted()) << result.status();
  // Stage-then-commit: the failed load left nothing behind.
  for (const ModulePtr& module : registry->AllModules()) {
    EXPECT_TRUE(registry->DataExamplesOf(module->spec().id).empty());
  }
}

/// A durable annotate run of `generator` over `registry` into `journal`,
/// submitted through SubmitRun: `resume` continues a recovered journal and
/// `crash` injects a crash (null: neither). Returns the run's report.
Result<AnnotateReport> SubmitDurableAnnotate(
    const ExampleGenerator& generator, ModuleRegistry& registry,
    RunJournal& journal, const JournalRecovery* resume = nullptr,
    const CrashPlan* crash = nullptr) {
  RunRequest request = MakeDurableAnnotateRun(
      generator, registry, *GetEnvironment().corpus.ontology, journal);
  request.resume = resume;
  request.crash = crash;
  auto run = SubmitRun(request);
  if (!run.ok()) return run.status();
  return std::move(run->annotate);
}

/// One full durable annotation run (no crash) into `dir`; returns the
/// serialized annotations of the resulting registry.
std::string UninterruptedRunState(size_t threads, const std::string& dir) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(threads).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto journal = RunJournal::Create(dir, {}, &engine->metrics());
  EXPECT_TRUE(journal.ok()) << journal.status();
  auto report = SubmitDurableAnnotate(generator, *registry, *journal);
  EXPECT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE((*report).complete()) << (*report).run_status;
  EXPECT_GT((*report).metrics.commits, 0u);
  return SaveAnnotations(*registry, *env.corpus.ontology);
}

struct CrashCase {
  CrashPoint point;
  size_t module_index;  // Which available module the crash keys on.
};

class CrashResumeTest
    : public ::testing::TestWithParam<std::tuple<size_t, CrashCase>> {};

TEST_P(CrashResumeTest, ResumedRunIsByteIdenticalToUninterrupted) {
  const auto& env = GetEnvironment();
  const size_t threads = std::get<0>(GetParam());
  const CrashCase crash_case = std::get<1>(GetParam());

  const std::string label =
      std::string(CrashPointName(crash_case.point)) + "-t" +
      std::to_string(threads);
  const std::string baseline =
      UninterruptedRunState(threads, FreshDir("baseline-" + label));

  EngineConfig config = EngineConfig().Threads(threads).Seed(0xD0D0);

  // Phase 1: the run is killed at the chosen crash point.
  const std::string dir = FreshDir("crash-" + label);
  auto crashed_registry = FreshRegistry();
  std::string crash_module_id;
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    const auto modules = crashed_registry->AvailableModules();
    ASSERT_GT(modules.size(), crash_case.module_index);
    crash_module_id = modules[crash_case.module_index]->spec().id;

    CrashPlan crash;
    crash.point = crash_case.point;
    crash.key = crash_module_id;
    auto report = SubmitDurableAnnotate(generator, *crashed_registry,
                                        *journal, nullptr, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_FALSE(report->complete());
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
    // The aborted run's report still carries the final engine counters.
    EXPECT_GT(report->metrics.invocations, 0u);
    EXPECT_GT(report->metrics.commits, 0u);
  }

  // Phase 2: a new process recovers the journal and resumes.
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto resumed_registry = FreshRegistry();
  auto recovery = RecoverJournal(dir, &engine->metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  if (crash_case.point == CrashPoint::kTornWrite) {
    EXPECT_TRUE(recovery->tail_discarded());
    EXPECT_TRUE(recovery->tail_status.IsCorrupted());
  } else {
    EXPECT_FALSE(recovery->tail_discarded());
  }
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report = SubmitDurableAnnotate(generator, *resumed_registry, *journal,
                                      &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;

  // The committed prefix was served from the journal, never re-invoked.
  EXPECT_GT(report->replayed, 0u);
  EXPECT_EQ(report->replayed, engine->metrics().Snapshot().modules_replayed);
  switch (crash_case.point) {
    case CrashPoint::kCrashBeforeCommit:
      // The crash module's own commit did not survive.
      EXPECT_EQ(report->replayed, crash_case.module_index);
      break;
    case CrashPoint::kTornWrite:
      // The torn commit — and possibly a neighbor clipped by the damage
      // radius — was discarded and re-invoked.
      EXPECT_LE(report->replayed, crash_case.module_index);
      break;
    case CrashPoint::kCrashAfterCommit:
      EXPECT_EQ(report->replayed, crash_case.module_index + 1);
      break;
    default:
      FAIL() << "unexpected crash point";
  }

  // The acceptance bar: byte-identical final state.
  EXPECT_EQ(SaveAnnotations(*resumed_registry, *env.corpus.ontology),
            baseline)
      << "resume after " << label << " diverged from uninterrupted run";
}

INSTANTIATE_TEST_SUITE_P(
    CrashPoints, CrashResumeTest,
    ::testing::Combine(
        ::testing::Values<size_t>(1, 8),
        ::testing::Values(
            CrashCase{CrashPoint::kCrashBeforeCommit, 11},
            CrashCase{CrashPoint::kCrashAfterCommit, 101},
            CrashCase{CrashPoint::kTornWrite, 197})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, CrashCase>>& info) {
      // gtest parameter names allow only [A-Za-z0-9_].
      std::string name = CrashPointName(std::get<1>(info.param).point);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_at_" +
             std::to_string(std::get<1>(info.param).module_index) + "_t" +
             std::to_string(std::get<0>(info.param));
    });

TEST(CommitStreamTest, GroupsNumberUnitsConsecutivelyAndCountEach) {
  InvocationEngine engine(EngineOptions{.threads = 1});
  std::vector<std::pair<uint64_t, size_t>> calls;
  CommitStream stream(engine, [&calls](uint64_t first,
                                       std::span<const std::string> group) {
    calls.emplace_back(first, group.size());
    return Status::OK();
  });
  const std::vector<std::string> three = {"a", "b", "c"};
  const std::vector<std::string> two = {"e", "f"};
  ASSERT_TRUE(stream.CommitGroup(three).ok());
  ASSERT_TRUE(stream.Commit("d").ok());
  ASSERT_TRUE(stream.CommitGroup(two).ok());
  ASSERT_TRUE(stream.CommitGroup({}).ok());  // An empty group is no call.
  EXPECT_EQ(calls, (std::vector<std::pair<uint64_t, size_t>>{
                       {0, 3}, {3, 1}, {4, 2}}));
  EXPECT_EQ(stream.committed(), 6u);
  EXPECT_EQ(engine.metrics().Snapshot().commits, 6u);
}

/// A fresh durable annotation of the paper corpus into `dir` through `io`,
/// at 1 thread, crashing per `crash` (null: no crash); returns the report.
Result<AnnotateReport> DurableAnnotate(ModuleRegistry& registry,
                                       const std::string& dir,
                                       JournalOptions journal_options,
                                       IoEnv* io, const CrashPlan* crash) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto journal =
      RunJournal::Create(dir, journal_options, &engine->metrics(), io);
  if (!journal.ok()) return journal.status();
  return SubmitDurableAnnotate(generator, registry, *journal, nullptr, crash);
}

TEST(GroupCommitTest, DurableAnnotateSyncsPerSegmentNotPerModule) {
  JournalOptions options;
  options.segment_bytes = 4096;  // Many segments, so the bound bites.
  const std::string dir = FreshDir("group-count");
  CountingIoEnv io;
  auto registry = FreshRegistry();
  auto report = DurableAnnotate(*registry, dir, options, &io, nullptr);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->complete()) << report->run_status;
  const size_t modules = registry->AvailableModules().size();
  EXPECT_EQ(report->annotated + report->decayed, modules);

  // One sync per segment, plus the first segment's header and the
  // run-header record — not one per module.
  const std::vector<std::string> segments = SegmentBytes(dir);
  ASSERT_GT(segments.size(), 10u);
  EXPECT_LE(io.syncs, segments.size() + 2);
  EXPECT_LT(io.syncs * 4, modules);
  EXPECT_EQ(io.appends, io.syncs);

  // The same bytes as a record-at-a-time journal of the same payloads.
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), modules + 1);
  const std::string single_dir = FreshDir("group-count-single");
  {
    auto single = RunJournal::Create(single_dir, options);
    ASSERT_TRUE(single.ok()) << single.status();
    for (const std::string& record : recovery->records) {
      ASSERT_TRUE(single->Append(record).ok());
    }
  }
  EXPECT_EQ(SegmentBytes(single_dir), segments);
}

TEST(GroupCommitTest, FsyncFailureOnAGroupAcknowledgesNoneOfItAndResumes) {
  const auto& env = GetEnvironment();
  const std::string baseline =
      UninterruptedRunState(1, FreshDir("group-fsync-baseline"));

  JournalOptions options;
  options.segment_bytes = 4096;

  // Syncs 1 and 2 are segment 0's header and the run-header record; 3 and
  // on are module groups, one per segment. Sync 6 fails the fourth group,
  // so the acknowledged modules are those of segments 0-2 of a fault-free
  // journal.
  size_t acknowledged = 0;
  {
    const std::string clean_dir = FreshDir("group-fsync-clean");
    auto clean_registry = FreshRegistry();
    auto clean = DurableAnnotate(*clean_registry, clean_dir, options, nullptr,
                                 nullptr);
    ASSERT_TRUE(clean.ok()) << clean.status();
    const std::vector<std::string> segments = SegmentBytes(clean_dir);
    ASSERT_GT(segments.size(), 4u);
    for (size_t k = 0; k < 3; ++k) {
      acknowledged += ScanSegment(segments[k]).records.size();
    }
    --acknowledged;  // The run header.
  }

  const std::string dir = FreshDir("group-fsync");
  auto registry = FreshRegistry();
  {
    IoFaultProfile profile;
    profile.fsync_fail_at = 6;
    FaultyIoEnv faulty(profile);
    auto report = DurableAnnotate(*registry, dir, options, &faulty, nullptr);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCorrupted()) << report->run_status;
    EXPECT_EQ(faulty.faults_injected(), 1u);

    // The acknowledged prefix is the three synced groups; no module of the
    // failed group, nor any after it, reached the registry or the report.
    EXPECT_EQ(report->annotated + report->decayed, acknowledged);
    const auto modules = registry->AvailableModules();
    EXPECT_GT(acknowledged, 0u);
    EXPECT_LT(acknowledged, modules.size());
    size_t with_examples = 0;
    for (size_t i = 0; i < modules.size(); ++i) {
      const std::string& id = modules[i]->spec().id;
      if (i >= acknowledged) {
        EXPECT_TRUE(registry->DataExamplesOf(id).empty()) << id;
      } else if (!registry->DataExamplesOf(id).empty()) {
        ++with_examples;
      }
    }
    EXPECT_GT(with_examples, 0u);
  }

  // A resume on a healthy disk converges to the fault-free bytes.
  const EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto recovery = RecoverJournal(dir, &engine->metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, options, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed_registry = FreshRegistry();
  auto report = SubmitDurableAnnotate(generator, *resumed_registry, *journal,
                                      &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;
  EXPECT_GT(report->replayed, 0u);
  EXPECT_EQ(SaveAnnotations(*resumed_registry, *env.corpus.ontology),
            baseline);
}

TEST(GroupCommitTest, RecoveredRecordsEqualTheAcknowledgedAtEveryCrashPoint) {
  // The record sequence of an uninterrupted run: header, then one commit
  // per module in registration order.
  const std::string baseline_dir = FreshDir("group-crash-baseline");
  UninterruptedRunState(1, baseline_dir);
  auto baseline = RecoverJournal(baseline_dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t modules = FreshRegistry()->AvailableModules().size();
  ASSERT_EQ(baseline->records.size(), modules + 1);

  for (CrashPoint point : {CrashPoint::kCrashBeforeCommit,
                           CrashPoint::kCrashAfterCommit,
                           CrashPoint::kTornWrite}) {
    for (size_t index : {size_t{0}, size_t{37}, size_t{140}, modules - 1}) {
      const std::string label =
          std::string(CrashPointName(point)) + "@" + std::to_string(index);
      const std::string dir = FreshDir("group-crash");
      auto registry = FreshRegistry();
      CrashPlan crash;
      crash.point = point;
      crash.key = registry->AvailableModules()[index]->spec().id;
      auto report = DurableAnnotate(*registry, dir, {}, nullptr, &crash);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status();
      EXPECT_TRUE(report->run_status.IsCancelled())
          << label << ": " << report->run_status;
      const size_t acknowledged = report->annotated + report->decayed;
      EXPECT_EQ(acknowledged, point == CrashPoint::kCrashBeforeCommit
                                  ? index
                                  : index + 1)
          << label;

      auto recovery = RecoverJournal(dir);
      ASSERT_TRUE(recovery.ok()) << label << ": " << recovery.status();
      std::vector<std::string> expected(
          baseline->records.begin(),
          baseline->records.begin() + static_cast<ptrdiff_t>(acknowledged + 1));
      if (point == CrashPoint::kTornWrite) {
        // The tear destroys the acknowledged tail (and possibly a neighbor
        // clipped by the damage radius); what survives is still a prefix.
        EXPECT_TRUE(recovery->tail_discarded()) << label;
        ASSERT_LT(recovery->records.size(), expected.size()) << label;
        expected.resize(recovery->records.size());
      } else {
        EXPECT_FALSE(recovery->tail_discarded()) << label;
      }
      EXPECT_EQ(recovery->records, expected) << label;
    }
  }
}

TEST(DurableAnnotateTest, CrashBeforeFirstCommitResumesWithoutSecondHeader) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("first-commit-crash");
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);

  // Run 1 crashes before the very first module commits: the journal holds
  // the header and nothing else.
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto journal = RunJournal::Create(dir, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashBeforeCommit;
    crash.key = registry->AvailableModules()[0]->spec().id;
    auto report =
        SubmitDurableAnnotate(generator, *registry, *journal, nullptr, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
  }

  // Run 2 resumes (zero commits to replay) and crashes again further in. A
  // resume that re-appended the header here would leave the journal with
  // two header records, permanently unresumable.
  {
    auto engine = config.BuildEngine();
    ExampleGenerator generator = config.MakeGenerator(
        env.corpus.ontology.get(), env.pool.get(), engine.get());
    auto registry = FreshRegistry();
    auto recovery = RecoverJournal(dir, &engine->metrics());
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    ASSERT_EQ(recovery->records.size(), 1u);  // Header only.
    auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = registry->AvailableModules()[3]->spec().id;
    auto report = SubmitDurableAnnotate(generator, *registry, *journal,
                                        &*recovery, &crash);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->run_status.IsCancelled()) << report->run_status;
  }

  // Run 3: the journal decodes as header + commit prefix and the run
  // completes, replaying the four committed modules.
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto recovery = RecoverJournal(dir, &engine->metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine->metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report =
      SubmitDurableAnnotate(generator, *registry, *journal, &*recovery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->complete()) << report->run_status;
  EXPECT_EQ(report->replayed, 4u);
}

TEST(DurableAnnotateTest, ResumeRejectsForeignJournals) {
  const auto& env = GetEnvironment();
  const std::string dir = FreshDir("foreign");
  EngineConfig config = EngineConfig().Threads(1);
  auto engine = config.BuildEngine();
  ExampleGenerator generator = config.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto registry = FreshRegistry();
  auto journal = RunJournal::Create(dir);
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto report = SubmitDurableAnnotate(generator, *registry, *journal);
  ASSERT_TRUE(report.ok()) << report.status();

  // A generator with different options has a different fingerprint.
  EngineConfig other = EngineConfig().Threads(1).MaxCombinations(7);
  ExampleGenerator other_generator = other.MakeGenerator(
      env.corpus.ontology.get(), env.pool.get(), engine.get());
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  auto resumed_registry = FreshRegistry();
  auto resumed_journal = RunJournal::Resume(dir, *recovery);
  ASSERT_TRUE(resumed_journal.ok()) << resumed_journal.status();
  auto rejected = SubmitDurableAnnotate(other_generator, *resumed_registry,
                                        *resumed_journal, &*recovery);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument()) << rejected.status();
}

// ---------------------------------------------------------------------------
// The KB pin: a durable annotate run header records the seal of the KB image
// file the run reasoned over, or nothing when no image file was given.
// ---------------------------------------------------------------------------

/// Stands in for the seal of a KB image file (any nonzero value pins).
constexpr uint64_t kImageSeal = 0xB5297A4D;

/// Size and CRC-32 of the journal a pinless Threads(1) Seed(0xD0D0) run
/// writes over the test environment, recorded when reasoning still ran over
/// the raw Ontology: reasoning over an image compiled in memory must not
/// move a byte, or journals written before it would stop resuming.
constexpr size_t kPinlessJournalBytes = 261908;
constexpr uint32_t kPinlessJournalCrc = 3652813182u;

/// A durable annotate run into `dir` pinned to `kb_checksum`; `resume`
/// continues a crashed journal, `crash_index` (when set) stops the run
/// after that module commits.
Result<AnnotateReport> PinnedRun(const std::string& dir, uint64_t kb_checksum,
                                 ModuleRegistry& registry,
                                 InvocationEngine& engine,
                                 const JournalRecovery* resume,
                                 std::optional<size_t> crash_index) {
  const auto& env = GetEnvironment();
  EngineConfig config = EngineConfig().Threads(1).Seed(0xD0D0);
  ExampleGenerator generator =
      config.MakeGenerator(env.corpus.ontology.get(), env.pool.get(), &engine);
  auto journal = resume != nullptr
                     ? RunJournal::Resume(dir, *resume, {}, &engine.metrics())
                     : RunJournal::Create(dir, {}, &engine.metrics());
  if (!journal.ok()) return journal.status();
  RunRequest request = MakeDurableAnnotateRun(generator, registry,
                                              *env.corpus.ontology, *journal);
  request.kb_checksum = kb_checksum;
  request.resume = resume;
  CrashPlan crash;
  if (crash_index.has_value()) {
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = registry.AvailableModules()[*crash_index]->spec().id;
  }
  request.crash = &crash;
  auto run = SubmitRun(request);
  if (!run.ok()) return run.status();
  return std::move(run->annotate);
}

TEST(KbPinTest, RunWithoutAnImageFileWritesNoPinAndTheSameJournalBytes) {
  const std::string dir = FreshDir("pin-none");
  auto engine = EngineConfig().Threads(1).Seed(0xD0D0).BuildEngine();
  auto registry = FreshRegistry();
  auto report = PinnedRun(dir, /*kb_checksum=*/0, *registry, *engine,
                          nullptr, std::nullopt);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->complete()) << report->run_status;

  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_FALSE(recovery->records.empty());
  EXPECT_EQ(recovery->records[0].find("kb_checksum"), std::string::npos)
      << recovery->records[0];
  auto header = DecodeAnnotateRunHeader(recovery->records[0]);
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->kb_checksum, 0u);

  std::string bytes;
  for (const std::string& segment : SegmentBytes(dir)) bytes += segment;
  EXPECT_EQ(bytes.size(), kPinlessJournalBytes);
  EXPECT_EQ(Crc32(bytes), kPinlessJournalCrc);
}

struct PinCase {
  uint64_t started;
  uint64_t resumed;
};

class KbPinMismatchTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(KbPinMismatchTest, ResumeUnderAnotherPinIsRefusedAndReplaysNothing) {
  const PinCase pins = GetParam();
  const std::string dir = FreshDir("pin-mismatch");
  {
    auto engine = EngineConfig().Threads(1).Seed(0xD0D0).BuildEngine();
    auto registry = FreshRegistry();
    auto crashed = PinnedRun(dir, pins.started, *registry, *engine, nullptr,
                             /*crash_index=*/3);
    ASSERT_TRUE(crashed.ok()) << crashed.status();
    ASSERT_TRUE(crashed->run_status.IsCancelled()) << crashed->run_status;
  }

  auto engine = EngineConfig().Threads(1).Seed(0xD0D0).BuildEngine();
  auto registry = FreshRegistry();
  auto recovery = RecoverJournal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  ASSERT_EQ(recovery->records.size(), 5u);  // Header + four commits.
  auto resumed = PinnedRun(dir, pins.resumed, *registry, *engine, &*recovery,
                           std::nullopt);
  ASSERT_FALSE(resumed.ok());
  EXPECT_TRUE(resumed.status().IsInvalidArgument()) << resumed.status();
  EXPECT_NE(resumed.status().message().find("kb_checksum"), std::string::npos)
      << resumed.status();

  // Nothing was replayed, invoked or appended.
  const EngineMetricsSnapshot metrics = engine->metrics().Snapshot();
  EXPECT_EQ(metrics.modules_replayed, 0u);
  EXPECT_EQ(metrics.invocations, 0u);
  for (const ModulePtr& module : registry->AvailableModules()) {
    EXPECT_FALSE(registry->HasDataExamples(module->spec().id))
        << module->spec().id;
  }
  auto after = RecoverJournal(dir);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->records == recovery->records);
}

INSTANTIATE_TEST_SUITE_P(
    Pins, KbPinMismatchTest,
    ::testing::Values(PinCase{0, kImageSeal}, PinCase{kImageSeal, 0}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.started == 0 ? "NoneThenSeal"
                                                 : "SealThenNone");
    });

/// Picks a still-enactable corpus workflow with at least three processors
/// for the enactment drills; its generated seeds are the inputs.
const GeneratedWorkflow& PickWorkflow() {
  const auto& env = GetEnvironment();
  for (const GeneratedWorkflow& item : env.workflows.items) {
    if (item.workflow.processors.size() >= 3 &&
        IsEnactable(item.workflow, *env.corpus.registry)) {
      return item;
    }
  }
  ADD_FAILURE() << "no enactable workflow with >= 3 processors in the corpus";
  std::abort();
}

/// A durable enactment of `item` (its seeds as inputs) into `journal`,
/// submitted through SubmitRun: `resume` continues a recovered journal and
/// `crash` injects a crash (null: neither).
Result<ResilientEnactmentResult> SubmitDurableEnact(
    const GeneratedWorkflow& item, InvocationEngine& engine,
    RunJournal& journal, const JournalRecovery* resume = nullptr,
    const CrashPlan* crash = nullptr) {
  RunRequest request =
      MakeDurableEnactRun(item.workflow, *GetEnvironment().corpus.registry,
                          item.seeds, engine, journal);
  request.resume = resume;
  request.crash = crash;
  auto run = SubmitRun(request);
  if (!run.ok()) return run.status();
  return std::move(run->enact);
}

TEST(DurableEnactTest, CrashedEnactmentResumesToIdenticalResult) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  const Workflow& workflow = item.workflow;
  const std::vector<Value>& inputs = item.seeds;

  InvocationEngine baseline_engine;
  auto baseline = EnactResilient(workflow, *env.corpus.registry, inputs,
                                 baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Crash at the second step that actually runs.
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kCrashAfterCommit;
    crash.key = crash_key;
    auto crashed = SubmitDurableEnact(item, engine, *journal, nullptr, &crash);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(crashed.status().IsCancelled()) << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_FALSE(recovery->tail_discarded());
  EXPECT_GT(recovery->records.size(), 1u);  // Header + committed steps.
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = SubmitDurableEnact(item, engine, *journal, &*recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();

  // Byte-identical outcome: outputs, provenance, and bookkeeping all match
  // the uninterrupted enactment.
  ASSERT_EQ(resumed->outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->outputs[i].Equals(baseline->outputs[i]))
        << "workflow output " << i << " diverged";
  }
  ASSERT_EQ(resumed->invocations.size(), baseline->invocations.size());
  for (size_t i = 0; i < baseline->invocations.size(); ++i) {
    EXPECT_EQ(resumed->invocations[i].processor_name,
              baseline->invocations[i].processor_name);
    EXPECT_EQ(resumed->invocations[i].module_id,
              baseline->invocations[i].module_id);
  }
  EXPECT_EQ(resumed->missing_outputs, baseline->missing_outputs);
  EXPECT_EQ(resumed->skipped_processors, baseline->skipped_processors);
  // The committed prefix was replayed, not re-invoked.
  EXPECT_GT(engine.metrics().Snapshot().modules_replayed, 0u);
}

TEST(DurableEnactTest, TornStepCommitIsReinvokedOnResume) {
  const auto& env = GetEnvironment();
  const GeneratedWorkflow& item = PickWorkflow();
  const Workflow& workflow = item.workflow;
  const std::vector<Value>& inputs = item.seeds;

  InvocationEngine baseline_engine;
  auto baseline = EnactResilient(workflow, *env.corpus.registry, inputs,
                                 baseline_engine);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->invocations.size(), 2u);
  const std::string crash_key = baseline->invocations[1].module_id;

  const std::string dir = FreshDir("enact-torn");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    CrashPlan crash;
    crash.point = CrashPoint::kTornWrite;
    crash.key = crash_key;
    auto crashed = SubmitDurableEnact(item, engine, *journal, nullptr, &crash);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(crashed.status().IsCancelled()) << crashed.status();
  }

  InvocationEngine engine;
  auto recovery = RecoverJournal(dir, &engine.metrics());
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_TRUE(recovery->tail_discarded());
  auto journal = RunJournal::Resume(dir, *recovery, {}, &engine.metrics());
  ASSERT_TRUE(journal.ok()) << journal.status();
  auto resumed = SubmitDurableEnact(item, engine, *journal, &*recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(resumed->outputs.size(), baseline->outputs.size());
  for (size_t i = 0; i < baseline->outputs.size(); ++i) {
    EXPECT_TRUE(resumed->outputs[i].Equals(baseline->outputs[i]));
  }
}

/// Size and CRC-32 of the journal of one uninterrupted durable enactment
/// of PickWorkflow(): the header and every step commit, framed. Recorded
/// while the durable enact body still had an entry point of its own beside
/// SubmitRun; any change to step encoding, framing or commit order moves
/// them.
constexpr size_t kEnactJournalBytes = 1405;
constexpr uint32_t kEnactJournalCrc = 2636391051u;

TEST(DurableEnactTest, JournalBytesArePinned) {
  const GeneratedWorkflow& item = PickWorkflow();
  const std::string dir = FreshDir("enact-pin");
  {
    InvocationEngine engine;
    auto journal = RunJournal::Create(dir, {}, &engine.metrics());
    ASSERT_TRUE(journal.ok()) << journal.status();
    auto run = SubmitDurableEnact(item, engine, *journal);
    ASSERT_TRUE(run.ok()) << run.status();
    ASSERT_TRUE(run->complete());
  }

  std::string bytes;
  for (const std::string& segment : SegmentBytes(dir)) bytes += segment;
  EXPECT_EQ(bytes.size(), kEnactJournalBytes);
  EXPECT_EQ(Crc32(bytes), kEnactJournalCrc);
}

}  // namespace
}  // namespace dexa
