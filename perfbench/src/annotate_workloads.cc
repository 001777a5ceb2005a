// The three batch workloads: in-memory annotation of a 100k-module scale
// corpus, durable one-process annotation of a 10k corpus (with a crash at
// the midpoint module and a resume), and sharded annotation of the same 10k
// corpus. Every pass goes through the program's public API; every pass's
// output is checked against a serial reference built from the same inputs.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_config.h"
#include "core/run_api.h"
#include "corpus/fault_injector.h"
#include "corpus/scale.h"
#include "durability/commit_codec.h"
#include "durability/journal.h"
#include "disk_model.h"
#include "report.h"
#include "shard/sharded_annotate.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr size_t kThreads = 4;
constexpr size_t kMemModules = 100'000;
constexpr size_t kDiskModules = 10'000;
constexpr uint32_t kShards = 4;
// Fixed cost of one sync on the modeled disk (disk_model.h): the median
// fsync latency of the 4-core virtual host the benchmark was written on.
constexpr uint64_t kModeledSyncUs = 100;
constexpr int kFsyncProbes = 200;
constexpr int kMinPasses = 3;
constexpr size_t kSetupReps = 5;
constexpr double kSetupSeconds = 3.0;

[[noreturn]] void Fatal(const std::string& what, const dexa::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

std::string FreshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path, ec);
  if (ec) Fatal("create " + path, dexa::Status::Internal(ec.message()));
  return path;
}

/// Set-up is the corpus build plus the registry copy every pass starts
/// from. A 10k corpus builds in tens of milliseconds, and on a shared host
/// its build time moves by up to 1.7x between periods of a second or two,
/// so set-up is timed in two blocks of several seconds, one before the
/// measured passes and one after them (ReportEndToEnd).
struct SetUp {
  dexa::ScaleCorpus corpus;
  std::vector<double> seconds;
};

/// One block of set-ups: a build that warms the allocator and is not
/// timed, then at least `kSetupReps` timed builds lasting at least
/// `kSetupSeconds`. The previous build is released before the next starts,
/// so the process holds one corpus; the last stays in `setup->corpus`.
void TimeSetUps(size_t modules, uint64_t seed, SetUp* setup) {
  const auto begin = Clock::now();
  for (size_t rep = 0;
       rep <= kSetupReps || SecondsSince(begin) < kSetupSeconds; ++rep) {
    setup->corpus = {};
    const auto start = Clock::now();
    auto corpus = dexa::BuildScaleCorpus({seed, modules});
    if (!corpus.ok()) Fatal("BuildScaleCorpus", corpus.status());
    auto registry = CopyRegistry(*corpus->registry);
    if (rep > 0) setup->seconds.push_back(SecondsSince(start));
    setup->corpus = std::move(corpus).value();
  }
}

SetUp BuildCorpus(size_t modules, uint64_t seed) {
  SetUp setup;
  TimeSetUps(modules, seed, &setup);
  return setup;
}

/// The end-to-end metrics of an untraced batch run. The process peak is
/// read first; then the corpus is released and the second block of
/// set-ups is timed.
void ReportEndToEnd(Report& report, size_t modules, uint64_t seed,
                    SetUp& setup, const std::vector<double>& pass_rates,
                    const std::vector<double>& pass_ms) {
  report.Metric("peak_rss_mb", PeakRssMb());
  report.Metric("modules_per_s", Median(pass_rates));
  report.Metric("lat_p50_ms", Median(pass_ms));
  report.Note("passes", static_cast<double>(pass_ms.size()), "count");
  TimeSetUps(modules, seed, &setup);
  setup.corpus = {};
  report.Metric("setup_s", Median(setup.seconds));
  report.Note("setups", static_cast<double>(setup.seconds.size()), "count",
              "p10 " + std::to_string(Percentile(setup.seconds, 10)) +
                  " s, p90 " + std::to_string(Percentile(setup.seconds, 90)) +
                  " s");
}

/// An engine and a generator over the corpus, as a one-shot run builds them.
struct Runner {
  Runner(const dexa::ScaleCorpus& corpus, size_t threads, uint64_t seed)
      : config(dexa::EngineConfig().Threads(threads).Seed(seed)),
        engine(config.BuildEngine()),
        generator(std::make_unique<dexa::ExampleGenerator>(config.MakeGenerator(
            corpus.ontology.get(), corpus.pool.get(), engine.get()))) {}

  dexa::EngineConfig config;
  std::unique_ptr<dexa::InvocationEngine> engine;
  std::unique_ptr<dexa::ExampleGenerator> generator;
};

std::unique_ptr<dexa::ModuleRegistry> PassRegistry(
    const dexa::ScaleCorpus& corpus, InvokeCounters* counters) {
  return counters != nullptr ? TimedRegistry(*corpus.registry, counters)
                             : CopyRegistry(*corpus.registry);
}

/// A serial pass over the workload's own inputs through the layers'
/// public functions: AvailableModules, PartitionModule, Generate and
/// SetDataExamples. Its registry digest is the reference every pass of the
/// workload is checked against.
struct SerialPass {
  uint64_t digest = 0;
  size_t modules = 0;
  double available_ms = 0.0;
  double partition_ms = 0.0;
  double generate_ms = 0.0;
  std::vector<double> generate_us;
  double set_examples_ms = 0.0;
  uint64_t invocations = 0;
  uint64_t invoke_errors = 0;
  double invoke_ms = 0.0;
  uint64_t examples = 0;
};

SerialPass RunSerialPass(const dexa::ScaleCorpus& corpus, uint64_t seed,
                         bool timed, OutcomeLedger& ledger) {
  Runner runner(corpus, 1, seed);
  InvokeCounters counters;
  auto registry = PassRegistry(corpus, timed ? &counters : nullptr);
  SerialPass pass;

  auto start = Clock::now();
  const std::vector<dexa::ModulePtr> modules = registry->AvailableModules();
  pass.available_ms = MsSince(start);
  pass.modules = modules.size();

  size_t partitions = 0;
  start = Clock::now();
  for (const dexa::ModulePtr& module : modules) {
    partitions +=
        runner.generator->partitioner().PartitionModule(module->spec()).TotalCount();
  }
  pass.partition_ms = MsSince(start);
  ledger.Record(partitions > 0, "partitioning found no partitions");

  pass.generate_us.reserve(modules.size());
  for (const dexa::ModulePtr& module : modules) {
    start = Clock::now();
    auto outcome = runner.generator->Generate(*module);
    const double us = MsSince(start) * 1e3;
    pass.generate_us.push_back(us);
    pass.generate_ms += us / 1e3;
    if (!outcome.ok()) {
      ledger.Record(false, "Generate " + module->spec().id + ": " +
                               outcome.status().ToString());
      continue;
    }
    pass.examples += outcome->examples.size();
    start = Clock::now();
    dexa::Status committed = registry->SetDataExamples(
        module->spec().id, std::move(outcome->examples));
    pass.set_examples_ms += MsSince(start);
    if (!committed.ok()) {
      ledger.Record(false, "SetDataExamples: " + committed.ToString());
    }
  }
  pass.invocations = counters.calls();
  pass.invoke_errors = counters.errors();
  pass.invoke_ms = static_cast<double>(counters.busy_ns()) / 1e6;
  pass.digest = AnnotationDigest(*registry, *corpus.ontology);
  return pass;
}

/// Wall time of generating every module at `threads` through the engine's
/// public ForEach: the concurrent generate phase of a run, without commit.
double ParallelGenerateMs(const dexa::ScaleCorpus& corpus, size_t threads,
                          uint64_t seed) {
  Runner runner(corpus, threads, seed);
  const std::vector<dexa::ModulePtr> modules =
      corpus.registry->AvailableModules();
  const auto start = Clock::now();
  runner.engine->ForEach(modules.size(), [&](size_t i) {
    (void)runner.generator->Generate(*modules[i]);
  });
  return MsSince(start);
}

void ReportSerialPass(Report& report, const SerialPass& serial) {
  report.Metric("core.partition_busy_ms", serial.partition_ms);
  report.Metric("core.generate_busy_ms", serial.generate_ms);
  report.Metric("core.generate_us_p50", Percentile(serial.generate_us, 50));
  report.Metric("core.generate_us_p99", Percentile(serial.generate_us, 99));
  report.Metric("core.generate_self_ms", serial.generate_ms - serial.invoke_ms);
  report.Metric("core.examples_per_invocation",
                serial.invocations == 0
                    ? 0.0
                    : static_cast<double>(serial.examples) /
                          static_cast<double>(serial.invocations));
  report.Metric("modules.invoke_calls", static_cast<double>(serial.invocations));
  report.Metric("modules.invoke_busy_ms", serial.invoke_ms);
  report.Metric("modules.invoke_errors",
                static_cast<double>(serial.invoke_errors));
  report.Metric("modules.set_examples_busy_ms", serial.set_examples_ms);
  report.Metric("modules.available_ms", serial.available_ms);
  report.Note("serial.generate_samples", static_cast<double>(serial.modules),
              "count");
}

/// Adds the counters of `part` to `total` (shards report one snapshot each).
void AddSnapshot(dexa::EngineMetricsSnapshot& total,
                 const dexa::EngineMetricsSnapshot& part) {
  total.invocations += part.invocations;
  total.batches += part.batches;
  total.retries += part.retries;
  total.cache_hits += part.cache_hits;
  total.cache_queries += part.cache_queries;
  total.journal_records += part.journal_records;
  total.journal_segments_sealed += part.journal_segments_sealed;
  for (size_t i = 0; i < dexa::kNumEnginePhases; ++i) {
    total.phase_nanos[i] += part.phase_nanos[i];
  }
}

void ReportEngine(Report& report, const dexa::EngineMetricsSnapshot& m) {
  report.Metric("engine.invocations", static_cast<double>(m.invocations));
  report.Metric("engine.batches", static_cast<double>(m.batches));
  report.Metric("engine.retries", static_cast<double>(m.retries));
  report.Metric("engine.cache_queries", static_cast<double>(m.cache_queries));
  report.Metric("engine.cache_hit_ratio",
                m.cache_queries == 0 ? 0.0
                                     : static_cast<double>(m.cache_hits) /
                                           static_cast<double>(m.cache_queries));
  report.Metric(
      "engine.phase_generate_ms",
      static_cast<double>(
          m.phase_nanos[static_cast<size_t>(dexa::EnginePhase::kGenerate)]) /
          1e6);
}

void ReportIo(Report& report, const TimingIoEnv& io, size_t modules,
              const std::string& probe_dir) {
  if (!probe_dir.empty()) {
    report.Metric("common.host_fsync_us_p50", ProbeFsyncUs(probe_dir, kFsyncProbes));
  }
  const IoCounters c = io.counters();
  const std::vector<double> syncs = io.sync_us();
  const double n = static_cast<double>(modules);
  report.Metric("common.io_append_calls", static_cast<double>(c.append_calls));
  report.Metric("common.io_append_bytes", static_cast<double>(c.append_bytes));
  report.Metric("common.io_append_busy_ms",
                static_cast<double>(c.append_ns) / 1e6);
  report.Metric("common.io_sync_calls", static_cast<double>(c.sync_calls));
  report.Metric("common.io_sync_busy_ms", static_cast<double>(c.sync_ns) / 1e6);
  report.Metric("common.io_sync_us_p50", Percentile(syncs, 50));
  report.Metric("common.io_sync_us_p99", Percentile(syncs, 99));
  report.Metric("common.io_rename_calls", static_cast<double>(c.rename_calls));
  report.Metric("common.io_syncs_per_module",
                static_cast<double>(c.sync_calls) / n);
  report.Metric("common.io_bytes_written_per_module",
                static_cast<double>(c.append_bytes) / n);
  report.Note("io.sync_samples", static_cast<double>(syncs.size()), "count");
}

/// Decodes and re-encodes every module commit of the journal in `dir`,
/// timing both directions over the run's own records; a record that does
/// not re-encode to its own bytes is a failure.
struct CodecTiming {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double bytes_per_record = 0.0;
  size_t records = 0;
};

CodecTiming TimeCodec(const std::string& dir, const dexa::Ontology& ontology,
                      OutcomeLedger& ledger) {
  CodecTiming timing;
  auto recovery = dexa::RecoverJournal(dir);
  if (!recovery.ok()) {
    ledger.Record(false, "RecoverJournal for codec: " +
                             recovery.status().ToString());
    return timing;
  }
  uint64_t encode_ns = 0, decode_ns = 0, bytes = 0, mismatches = 0;
  // Record 0 is the run header.
  for (size_t i = 1; i < recovery->records.size(); ++i) {
    const std::string& payload = recovery->records[i];
    auto start = Clock::now();
    auto commit = dexa::DecodeModuleCommit(payload, ontology);
    decode_ns += NanosSince(start);
    if (!commit.ok()) {
      ++mismatches;
      continue;
    }
    start = Clock::now();
    const std::string encoded = dexa::EncodeModuleCommit(*commit, ontology);
    encode_ns += NanosSince(start);
    if (encoded != payload) ++mismatches;
    bytes += payload.size();
    ++timing.records;
  }
  ledger.Record(mismatches == 0 && timing.records > 0,
                std::to_string(mismatches) +
                    " journal records do not round-trip through the codec");
  if (timing.records > 0) {
    const double n = static_cast<double>(timing.records);
    timing.encode_ns = static_cast<double>(encode_ns) / n;
    timing.decode_ns = static_cast<double>(decode_ns) / n;
    timing.bytes_per_record = static_cast<double>(bytes) / n;
  }
  return timing;
}

/// Share of `wall_ms` that the layer self times on the blocking path
/// (`attributed_ms`) do not account for, in percent.
double UnattributedPct(double wall_ms, double attributed_ms) {
  return wall_ms <= 0.0 ? 0.0 : 100.0 * (wall_ms - attributed_ms) / wall_ms;
}

/// Tracing overhead on modules_per_s: untraced passes against traced
/// passes of the same run, in percent of the untraced rate.
double OverheadPct(const std::vector<double>& plain_rates,
                   const std::vector<double>& traced_rates) {
  const double plain = Median(plain_rates);
  return plain <= 0.0 ? 0.0 : 100.0 * (plain - Median(traced_rates)) / plain;
}

bool PassesLeft(int passes, Clock::time_point deadline) {
  return passes < kMinPasses || Clock::now() < deadline;
}

Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace

int RunAnnotateMem(const RunArgs& args) {
  Report report(args.workload, args.seed, args.traced);
  report.Host(kThreads);
  OutcomeLedger& ledger = report.outcomes();
  SetUp setup = BuildCorpus(kMemModules, args.seed);
  const dexa::ScaleCorpus& corpus = setup.corpus;
  const SerialPass serial = RunSerialPass(corpus, args.seed, args.traced, ledger);
  report.Note("modules", static_cast<double>(serial.modules), "count");

  std::vector<double> plain_rates, traced_rates, plain_ms;
  dexa::EngineMetricsSnapshot traced_engine;
  const auto deadline = DeadlineAfter(args.seconds);
  for (int pass = 0; PassesLeft(pass, deadline); ++pass) {
    // A traced run alternates untraced and traced passes, so the tracing
    // overhead is measured within one process.
    const bool timed = args.traced && pass % 2 == 1;
    InvokeCounters counters;
    auto registry = PassRegistry(corpus, timed ? &counters : nullptr);
    Runner runner(corpus, kThreads, args.seed);
    const auto start = Clock::now();
    auto run = dexa::SubmitRun(dexa::MakeAnnotateRun(*runner.generator, *registry));
    const double ms = MsSince(start);
    if (!run.ok() || !run->complete()) {
      ledger.Record(false, "annotate pass: " +
                               (run.ok() ? run->run_status : run.status()).ToString());
      continue;
    }
    ledger.Record(run->annotate.annotated + run->annotate.decayed == serial.modules,
                  "annotate pass did not commit every module");
    ledger.CheckEqual(serial.digest, AnnotationDigest(*registry, *corpus.ontology),
                      timed ? "traced annotate pass digest" : "annotate pass digest");
    const double rate = static_cast<double>(serial.modules) / (ms / 1e3);
    if (timed) {
      traced_rates.push_back(rate);
      traced_engine = run->annotate.metrics;
    } else {
      plain_rates.push_back(rate);
      plain_ms.push_back(ms);
    }
  }

  if (!args.traced) {
    ReportEndToEnd(report, kMemModules, args.seed, setup, plain_rates, plain_ms);
    return report.Emit();
  }

  ReportSerialPass(report, serial);
  ReportEngine(report, traced_engine);
  std::vector<double> t1_ms;
  for (int rep = 0; rep < 2; ++rep) {
    auto registry = CopyRegistry(*corpus.registry);
    Runner runner(corpus, 1, args.seed);
    const auto start = Clock::now();
    auto run = dexa::SubmitRun(dexa::MakeAnnotateRun(*runner.generator, *registry));
    t1_ms.push_back(MsSince(start));
    ledger.Record(run.ok() && run->complete(), "t1 annotate pass failed");
    ledger.CheckEqual(serial.digest, AnnotationDigest(*registry, *corpus.ontology),
                      "t1 annotate pass digest");
  }
  report.Metric("engine.speedup_t4_over_t1", Median(t1_ms) / Median(plain_ms));
  const double generate_wall_ms = ParallelGenerateMs(corpus, kThreads, args.seed);
  report.Metric("engine.generate_wall_ms", generate_wall_ms);
  // Blocking path of an in-memory run: AvailableModules, the concurrent
  // generate phase, then the serial commit into the registry.
  report.Metric("ledger.unattributed_pct",
                UnattributedPct(Median(plain_ms),
                                serial.available_ms + generate_wall_ms +
                                    serial.set_examples_ms));
  report.Metric("trace.overhead_pct", OverheadPct(plain_rates, traced_rates));
  // The in-memory run takes no IoEnv: the I/O seam sees no calls.
  TimingIoEnv unused_io;
  ReportIo(report, unused_io, serial.modules, "");
  report.Note("untraced.modules_per_s", Median(plain_rates), "1/s");
  report.Note("traced.modules_per_s", Median(traced_rates), "1/s");
  return report.Emit();
}

int RunAnnotateDurable(const RunArgs& args) {
  Report report(args.workload, args.seed, args.traced);
  report.Host(kThreads);
  OutcomeLedger& ledger = report.outcomes();
  SetUp setup = BuildCorpus(kDiskModules, args.seed);
  const dexa::ScaleCorpus& corpus = setup.corpus;
  const SerialPass serial = RunSerialPass(corpus, args.seed, args.traced, ledger);
  const double n = static_cast<double>(serial.modules);
  const std::string pass_dir = args.work_dir + "/durable";
  const std::string crash_dir = args.work_dir + "/crashed";

  dexa::CrashPlan crash;
  crash.point = dexa::CrashPoint::kCrashBeforeCommit;
  crash.key = corpus.module_ids[corpus.module_ids.size() / 2];

  ModeledSyncIoEnv disk(kModeledSyncUs);
  std::vector<double> plain_rates, traced_rates, plain_ms, resume_s, recover_ms;
  std::vector<double> traced_ms, disk_per_module;
  uint64_t journal_reference = 0;
  bool have_journal_reference = false;
  std::unique_ptr<TimingIoEnv> traced_io;
  dexa::EngineMetricsSnapshot traced_engine;
  std::string codec_dir;

  const auto deadline = DeadlineAfter(args.seconds);
  for (int round = 0; PassesLeft(round, deadline); ++round) {
    const bool timed = args.traced && round % 2 == 1;
    // Traced rounds route the full pass and the crash/resume pair through
    // separate decorators, so the I/O counters describe one full pass.
    auto io = std::make_unique<TimingIoEnv>(disk);
    TimingIoEnv resume_io(disk);
    dexa::IoEnv* pass_io = timed ? static_cast<dexa::IoEnv*>(io.get()) : &disk;
    dexa::IoEnv* crash_io = timed ? static_cast<dexa::IoEnv*>(&resume_io) : &disk;

    // One uninterrupted durable run.
    {
      InvokeCounters counters;
      auto registry = PassRegistry(corpus, timed ? &counters : nullptr);
      Runner runner(corpus, kThreads, args.seed);
      FreshDir(pass_dir);
      auto journal = dexa::RunJournal::Create(pass_dir, {},
                                              &runner.engine->metrics(), pass_io);
      if (!journal.ok()) Fatal("RunJournal::Create", journal.status());
      const auto start = Clock::now();
      auto run = dexa::SubmitRun(dexa::MakeDurableAnnotateRun(
          *runner.generator, *registry, *corpus.ontology, *journal));
      const double ms = MsSince(start);
      if (!run.ok() || !run->complete()) {
        ledger.Record(false, "durable pass: " +
                                 (run.ok() ? run->run_status : run.status()).ToString());
        continue;
      }
      ledger.CheckEqual(serial.digest, AnnotationDigest(*registry, *corpus.ontology),
                        "durable pass digest");
      const uint64_t journal_digest = JournalDigest(pass_dir);
      if (!have_journal_reference) {
        journal_reference = journal_digest;
        have_journal_reference = true;
      } else {
        ledger.CheckEqual(journal_reference, journal_digest,
                          timed ? "traced journal bytes" : "journal bytes");
      }
      disk_per_module.push_back(static_cast<double>(DirBytes(pass_dir)) / n);
      if (timed) {
        traced_rates.push_back(n / (ms / 1e3));
        traced_ms.push_back(ms);
        traced_engine = run->annotate.metrics;
        traced_io = std::move(io);
        codec_dir = pass_dir + ".traced";
        std::error_code ec;
        fs::remove_all(codec_dir, ec);
        fs::rename(pass_dir, codec_dir, ec);
      } else {
        plain_rates.push_back(n / (ms / 1e3));
        plain_ms.push_back(ms);
      }
    }

    // Every third round, the same run crashed before the midpoint module's
    // commit, then recovered and resumed to completion.
    if (round % 3 != 0) continue;
    {
      auto registry = CopyRegistry(*corpus.registry);
      Runner runner(corpus, kThreads, args.seed);
      FreshDir(crash_dir);
      auto journal = dexa::RunJournal::Create(crash_dir, {},
                                              &runner.engine->metrics(), crash_io);
      if (!journal.ok()) Fatal("RunJournal::Create", journal.status());
      dexa::RunRequest request = dexa::MakeDurableAnnotateRun(
          *runner.generator, *registry, *corpus.ontology, *journal);
      request.crash = &crash;
      auto crashed = dexa::SubmitRun(request);
      ledger.Record(crashed.ok() && !crashed->complete() &&
                        crashed->run_status.code() == dexa::StatusCode::kCancelled,
                    "the crash plan did not stop the run");
    }
    {
      auto registry = CopyRegistry(*corpus.registry);
      Runner runner(corpus, kThreads, args.seed);
      const auto start = Clock::now();
      auto recovery =
          dexa::RecoverJournal(crash_dir, &runner.engine->metrics(), crash_io);
      recover_ms.push_back(MsSince(start));
      if (!recovery.ok()) {
        ledger.Record(false, "RecoverJournal: " + recovery.status().ToString());
        continue;
      }
      auto journal = dexa::RunJournal::Resume(crash_dir, *recovery, {},
                                              &runner.engine->metrics(), crash_io);
      if (!journal.ok()) {
        ledger.Record(false, "RunJournal::Resume: " + journal.status().ToString());
        continue;
      }
      dexa::RunRequest request = dexa::MakeDurableAnnotateRun(
          *runner.generator, *registry, *corpus.ontology, *journal);
      request.resume = &*recovery;
      auto resumed = dexa::SubmitRun(request);
      resume_s.push_back(SecondsSince(start));
      const bool ok = resumed.ok() && resumed->complete() &&
                      resumed->annotate.replayed > 0;
      ledger.Record(ok, "resumed run did not complete from the journal");
      if (ok) {
        ledger.CheckEqual(serial.digest,
                          AnnotationDigest(*registry, *corpus.ontology),
                          "resumed run digest");
      }
    }
  }

  if (!args.traced) {
    ReportEndToEnd(report, kDiskModules, args.seed, setup, plain_rates, plain_ms);
    report.Note("resume_s", Median(resume_s), "s",
                "n=" + std::to_string(resume_s.size()));
    report.Note("disk_bytes_per_module", Median(disk_per_module), "B");
    return report.Emit();
  }

  ReportSerialPass(report, serial);
  ReportEngine(report, traced_engine);
  if (traced_io == nullptr) {
    ledger.Record(false, "no traced pass completed");
    return report.Emit();
  }
  ReportIo(report, *traced_io, serial.modules, args.work_dir);
  const CodecTiming codec = TimeCodec(codec_dir, *corpus.ontology, ledger);
  report.Metric("durability.encode_ns_per_record", codec.encode_ns);
  report.Metric("durability.decode_ns_per_record", codec.decode_ns);
  report.Metric("durability.bytes_per_record", codec.bytes_per_record);
  report.Metric("durability.journal_records",
                static_cast<double>(traced_engine.journal_records));
  report.Metric("durability.segments_sealed",
                static_cast<double>(traced_engine.journal_segments_sealed));
  report.Metric("durability.recover_ms", Median(recover_ms));
  report.Metric("durability.resume_s", Median(resume_s));
  report.Metric("durability.disk_bytes_per_module", Median(disk_per_module));
  const double generate_wall_ms = ParallelGenerateMs(corpus, kThreads, args.seed);
  report.Metric("engine.generate_wall_ms", generate_wall_ms);
  // Blocking path of a durable run: the concurrent generate phase, then per
  // module in order: encode, append, sync, and the registry commit.
  const IoCounters io = traced_io->counters();
  const double attributed =
      serial.available_ms + generate_wall_ms + serial.set_examples_ms +
      codec.encode_ns * static_cast<double>(codec.records) / 1e6 +
      static_cast<double>(io.append_ns + io.sync_ns) / 1e6;
  report.Metric("ledger.unattributed_pct",
                UnattributedPct(Median(traced_ms), attributed));
  report.Metric("trace.overhead_pct", OverheadPct(plain_rates, traced_rates));
  report.Note("untraced.modules_per_s", Median(plain_rates), "1/s");
  report.Note("traced.modules_per_s", Median(traced_rates), "1/s");
  return report.Emit();
}

int RunAnnotateSharded(const RunArgs& args) {
  Report report(args.workload, args.seed, args.traced);
  report.Host(kShards);
  OutcomeLedger& ledger = report.outcomes();
  SetUp setup = BuildCorpus(kDiskModules, args.seed);
  const dexa::ScaleCorpus& corpus = setup.corpus;
  const SerialPass serial = RunSerialPass(corpus, args.seed, args.traced, ledger);
  const double n = static_cast<double>(serial.modules);

  // Each shard is a serial durable run; a 4-thread orchestrator fans the
  // shards out. The merged journal must equal a one-shot durable run's.
  const dexa::EngineConfig per_shard =
      dexa::EngineConfig().Threads(1).Seed(args.seed);
  auto orchestrator =
      dexa::EngineConfig().Threads(kThreads).Seed(args.seed).BuildEngine();
  ModeledSyncIoEnv disk(kModeledSyncUs);
  uint64_t journal_reference = 0;
  {
    const std::string dir = FreshDir(args.work_dir + "/oneshot");
    auto registry = CopyRegistry(*corpus.registry);
    Runner runner(corpus, kThreads, args.seed);
    auto journal =
        dexa::RunJournal::Create(dir, {}, &runner.engine->metrics(), &disk);
    if (!journal.ok()) Fatal("RunJournal::Create", journal.status());
    auto run = dexa::SubmitRun(dexa::MakeDurableAnnotateRun(
        *runner.generator, *registry, *corpus.ontology, *journal));
    if (!run.ok() || !run->complete()) {
      Fatal("one-shot reference run",
            run.ok() ? run->run_status : run.status());
    }
    journal_reference = JournalDigest(dir);
  }

  dexa::ShardOptions options;
  options.shards = kShards;
  options.root = args.work_dir + "/sharded";
  options.orchestrator = orchestrator.get();

  std::vector<double> plain_rates, traced_rates, plain_ms, traced_ms;
  std::vector<double> disk_per_module;
  std::unique_ptr<TimingIoEnv> traced_io;
  dexa::EngineMetricsSnapshot traced_engine;
  std::string codec_dir;
  const auto deadline = DeadlineAfter(args.seconds);
  for (int pass = 0; PassesLeft(pass, deadline); ++pass) {
    const bool timed = args.traced && pass % 2 == 1;
    auto io = std::make_unique<TimingIoEnv>(disk);
    InvokeCounters counters;
    auto registry = PassRegistry(corpus, timed ? &counters : nullptr);
    FreshDir(options.root);
    const auto start = Clock::now();
    auto run = dexa::RunShardedAnnotate(*registry, *corpus.ontology,
                                        *corpus.pool, per_shard, options,
                                        timed ? static_cast<dexa::IoEnv*>(io.get())
                                              : &disk);
    const double ms = MsSince(start);
    if (!run.ok() || !run->merged.complete()) {
      ledger.Record(false, "sharded pass: " +
                               (run.ok() ? run->merged.run_status : run.status())
                                   .ToString());
      continue;
    }
    ledger.CheckEqual(serial.digest, AnnotationDigest(*registry, *corpus.ontology),
                      "sharded pass digest");
    ledger.CheckEqual(journal_reference, JournalDigest(run->merged_dir),
                      timed ? "traced merged journal bytes"
                            : "merged journal bytes");
    disk_per_module.push_back(static_cast<double>(DirBytes(options.root)) / n);
    if (timed) {
      traced_rates.push_back(n / (ms / 1e3));
      traced_ms.push_back(ms);
      traced_io = std::move(io);
      traced_engine = {};
      for (const dexa::ShardRunReport& shard : run->shards) {
        AddSnapshot(traced_engine, shard.report.metrics);
      }
      codec_dir = options.root + ".traced";
      std::error_code ec;
      fs::remove_all(codec_dir, ec);
      fs::rename(options.root, codec_dir, ec);
      codec_dir = codec_dir + "/" +
                  fs::path(run->merged_dir).lexically_relative(options.root).string();
    } else {
      plain_rates.push_back(n / (ms / 1e3));
      plain_ms.push_back(ms);
    }
  }

  if (!args.traced) {
    ReportEndToEnd(report, kDiskModules, args.seed, setup, plain_rates, plain_ms);
    report.Note("disk_bytes_per_module", Median(disk_per_module), "B");
    return report.Emit();
  }

  ReportSerialPass(report, serial);
  ReportEngine(report, traced_engine);
  if (traced_io == nullptr) {
    ledger.Record(false, "no traced pass completed");
    return report.Emit();
  }
  ReportIo(report, *traced_io, serial.modules, args.work_dir);
  const CodecTiming codec = TimeCodec(codec_dir, *corpus.ontology, ledger);
  report.Metric("durability.encode_ns_per_record", codec.encode_ns);
  report.Metric("durability.decode_ns_per_record", codec.decode_ns);
  report.Metric("durability.bytes_per_record", codec.bytes_per_record);
  report.Metric("durability.journal_records",
                static_cast<double>(traced_engine.journal_records));
  report.Metric("durability.segments_sealed",
                static_cast<double>(traced_engine.journal_segments_sealed));
  report.Metric("durability.disk_bytes_per_module", Median(disk_per_module));

  // Serial pass over the shards: each RunShard alone, then the merge.
  std::vector<double> shard_ms;
  double merge_ms = 0.0;
  {
    auto registry = CopyRegistry(*corpus.registry);
    FreshDir(options.root);
    auto manifest = dexa::InitShardedRun(*registry, per_shard, options, &disk);
    if (!manifest.ok()) Fatal("InitShardedRun", manifest.status());
    for (uint32_t shard = 0; shard < kShards; ++shard) {
      const auto start = Clock::now();
      auto run = dexa::RunShard(*registry, *corpus.ontology, *corpus.pool,
                                per_shard, options, shard, &disk);
      shard_ms.push_back(MsSince(start));
      ledger.Record(run.ok() && run->report.complete(),
                    "RunShard " + std::to_string(shard) + " failed");
    }
    const auto start = Clock::now();
    auto merged =
        dexa::MergeShards(*registry, *corpus.ontology, per_shard, options, &disk);
    merge_ms = MsSince(start);
    ledger.Record(merged.ok() && merged->merged.complete(), "MergeShards failed");
    if (merged.ok()) {
      ledger.CheckEqual(journal_reference, JournalDigest(merged->merged_dir),
                        "serially merged journal bytes");
    }
  }
  const double max_ms = Percentile(shard_ms, 100);
  const double mean_ms = Mean(shard_ms);
  report.Metric("shard.run_ms_max", max_ms);
  report.Metric("shard.run_ms_mean", mean_ms);
  report.Metric("shard.imbalance", mean_ms <= 0.0 ? 0.0 : max_ms / mean_ms);
  report.Metric("shard.merge_ms", merge_ms);
  // Blocking path of a sharded run: the slowest shard, then the merge.
  report.Metric("ledger.unattributed_pct",
                UnattributedPct(Median(traced_ms), max_ms + merge_ms));
  report.Metric("trace.overhead_pct", OverheadPct(plain_rates, traced_rates));
  report.Note("untraced.modules_per_s", Median(plain_rates), "1/s");
  report.Note("traced.modules_per_s", Median(traced_rates), "1/s");
  return report.Emit();
}

}  // namespace perfbench
