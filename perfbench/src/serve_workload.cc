// The serve workload over the paper corpus with 4 engine threads. First,
// sweeps of the request mix go through an in-process Server over the line
// protocol; they give the gated figures. Then a `dexa serve` daemon on a
// unix socket, with a journal root, is driven by one client process over at
// most 4 connections: an open-loop mix of tenants at a low fixed rate, then
// an open loop at a high fixed rate alternating with a closed loop that
// keeps the daemon saturated, then a search for the highest rate that meets
// the latency limit. Every result's digest is checked against an
// in-process reference.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "report.h"
#include "serve/serve_env.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stats.h"
#include "tracing.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

using dexa::serve::WireMessage;

constexpr size_t kDaemonThreads = 4;
constexpr size_t kConnections = 4;
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 1.5;
// The shares of the run taken by the in-process sweeps (the gated figures),
// the daemon's high-rate open loop, its closed-loop saturation and the
// max-rate search (the daemon's low rate takes the rest). The
// first two are cut into kRounds segments each; the closed loop keeps
// kSaturationWindow requests in flight per connection, and its throughput
// is counted in windows of kSaturationWindowS.
constexpr double kSweepShare = 0.3;
constexpr double kHighShare = 0.2;
constexpr double kSaturationShare = 0.25;
constexpr double kSearchShare = 0.15;
constexpr uint64_t kRounds = 10;
constexpr double kSaturationWindowS = 0.25;
constexpr size_t kSaturationWindow = 8;
// A result not ready yet is asked for again as soon as the answer arrives:
// the daemon answers between run batches, so the client learns of a result
// at the first loop turn after its batch, with one poll in flight per run.
constexpr double kRepollS = 0.0;
// The closed loop measures throughput: polling less often leaves the
// daemon's loop to its batches.
constexpr double kClosedRepollS = 1e-3;
// How long a phase may run past its last due time to collect results; a
// request still unanswered then counts as failed. The search for the
// highest rate uses the short grace: a step that needs more has a growing
// backlog.
constexpr double kGraceS = 10.0;
constexpr double kSearchGraceS = 1.0;
constexpr char kSocket[] = "dexa.sock";

// The running daemon, so a fatal error can stop it before exiting.
pid_t g_daemon_pid = -1;

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: serve_mix: %s\n", what.c_str());
  if (g_daemon_pid > 0) {
    ::kill(g_daemon_pid, SIGKILL);
    int status = 0;
    ::waitpid(g_daemon_pid, &status, 0);
  }
  std::exit(3);
}

double Now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// One request of the tenant mix.
struct Shape {
  std::string kind;  // annotate | enact | annotate_durable
  uint64_t offset = 0;
  uint64_t count = 0;  // 0 = the whole registry
  uint64_t workflow = 0;

  std::string Key() const {
    return kind + ":" + std::to_string(offset) + ":" + std::to_string(count) +
           ":" + std::to_string(workflow);
  }
};

constexpr size_t kChunk = 8;
// Workflows enacted per sweep of the corpus (see Mix), taken in turn from
// the corpus's first kWorkflows (the reference runs each of them once).
constexpr size_t kEnactsPerSweep = 4;
constexpr size_t kWorkflows = 16;

/// What a phase sends: the full mix, or the mix without its durable run. A
/// durable run syncs for real in the daemon and holds up its whole batch;
/// when the host disk's fsync latency drifts, that blocking swamps a phase,
/// so the two phases whose figures are gated (high rate, saturation) send
/// the in-memory mix (see README.md).
enum class Traffic { kMix, kMixInMemory };

/// The request mix, one sweep of the paper corpus after another. A sweep
/// annotates every available module once in 8-module chunks (32 requests
/// for the 252-module corpus), annotates the whole registry once more in a
/// single request (the same module work as the chunks, so per-request
/// overhead and head-of-line blocking behind one large batch weigh the
/// same), enacts kEnactsPerSweep workflows, and, in the full mix, runs one
/// durable annotation. Chunks and workflows are taken in turn; only the
/// order inside a sweep, the tenants and the arrival times come from the
/// seed, so a phase's work varies little between seeds.
class Mix {
 public:
  Mix(uint64_t seed, size_t modules, size_t workflows)
      : state_(seed ^ 0x5E12E), chunks_((modules + kChunk - 1) / kChunk),
        workflows_(std::min(workflows, kWorkflows)) {}

  Shape Next(std::string* tenant, Traffic traffic) {
    *tenant = "t" + std::to_string(SplitMix64(state_) % 4);
    char kind;
    do {
      if (sweep_.empty()) Refill();
      kind = sweep_.back();
      sweep_.pop_back();
    } while (kind == 'd' && traffic == Traffic::kMixInMemory);
    Shape shape;
    if (kind == 'c') {
      shape.kind = "annotate";
      shape.offset = (next_chunk_++ % chunks_) * kChunk;
      shape.count = kChunk;
    } else if (kind == 'f') {
      shape.kind = "annotate";
    } else if (kind == 'e') {
      shape.kind = "enact";
      shape.workflow = next_workflow_++ % workflows_;
    } else {
      shape.kind = "annotate_durable";
    }
    return shape;
  }

  /// Every shape the mix can draw.
  std::vector<Shape> All() const {
    std::vector<Shape> all;
    for (size_t c = 0; c < chunks_; ++c) all.push_back({"annotate", c * kChunk, kChunk, 0});
    all.push_back({"annotate", 0, 0, 0});
    for (size_t w = 0; w < workflows_; ++w) all.push_back({"enact", 0, 0, w});
    all.push_back({"annotate_durable", 0, 0, 0});
    return all;
  }

 private:
  void Refill() {
    sweep_ = std::string(chunks_, 'c') + "f" +
             std::string(kEnactsPerSweep, 'e') + "d";
    for (size_t i = sweep_.size() - 1; i > 0; --i) {
      std::swap(sweep_[i], sweep_[SplitMix64(state_) % (i + 1)]);
    }
  }

  uint64_t state_;
  size_t chunks_;
  size_t workflows_;
  std::string sweep_;
  size_t next_chunk_ = 0;
  size_t next_workflow_ = 0;
};

WireMessage SubmitMessage(const Shape& shape, const std::string& tenant) {
  WireMessage m;
  m["op"] = "submit";
  m["kind"] = shape.kind;
  m["tenant"] = tenant;
  if (shape.kind == "annotate") {
    m["offset"] = std::to_string(shape.offset);
    m["count"] = std::to_string(shape.count);
  } else if (shape.kind == "enact") {
    m["workflow"] = std::to_string(shape.workflow);
  }
  return m;
}

struct Expected {
  std::string digest;
  uint64_t modules = 0;  // modules a result annotates
};

/// The class of a shape the report times the reference by.
std::string ShapeClass(const Shape& shape) {
  if (shape.kind != "annotate") return shape.kind;
  return shape.count == 0 ? "whole_registry" : "chunk";
}

/// The serve layer in process: a Server driven over the same line protocol
/// as the daemon, without sockets. At one engine thread, one request at a
/// time, it gives the reference result of every shape.
class InProcessServer {
 public:
  InProcessServer(const RunArgs& args, size_t threads) {
    dexa::serve::ServeEnvOptions options;
    options.threads = threads;
    options.seed = args.seed;
    options.journal_root =
        args.work_dir + "/in-process-" + std::to_string(threads);
    auto env = dexa::serve::ServeEnv::Create(options);
    if (!env.ok()) Fatal("ServeEnv::Create: " + env.status().ToString());
    env_ = std::move(env).value();
    server_ = std::make_unique<dexa::serve::Server>(*env_, dexa::serve::ServerOptions{});
  }

  size_t modules() const { return env_->available_modules(); }
  size_t workflows() const { return env_->workflow_count(); }

  /// Submits every shape (tenant i for shape i), drains, and collects the
  /// results in order; an entry is empty when its submit or run failed.
  std::vector<std::optional<WireMessage>> RunAll(
      const std::vector<Shape>& shapes,
      const std::vector<std::string>& tenants) {
    std::vector<std::string> ids;
    for (size_t i = 0; i < shapes.size(); ++i) {
      auto submitted = dexa::serve::ParseWire(server_->HandleLine(
          dexa::serve::EncodeWire(SubmitMessage(shapes[i], tenants[i]))));
      const bool ok =
          submitted.ok() && dexa::serve::WireGet(*submitted, "ok") == "1";
      ids.push_back(ok ? dexa::serve::WireGet(*submitted, "id") : "");
    }
    (void)server_->HandleLine("{\"op\":\"drain\"}");
    std::vector<std::optional<WireMessage>> results;
    for (const std::string& id : ids) {
      if (id.empty()) {
        results.emplace_back();
        continue;
      }
      auto result = dexa::serve::ParseWire(
          server_->HandleLine("{\"id\":\"" + id + "\",\"op\":\"result\"}"));
      if (result.ok() && dexa::serve::WireGet(*result, "ok") == "1") {
        results.push_back(std::move(result).value());
      } else {
        results.emplace_back();
      }
    }
    return results;
  }

 private:
  std::unique_ptr<dexa::serve::ServeEnv> env_;
  std::unique_ptr<dexa::serve::Server> server_;
};

/// Reference results: each shape the mix can draw, run once in process.
/// `service_ms` gets each run's submit-to-result time by shape class.
std::map<std::string, Expected> ReferenceResults(
    InProcessServer& server, uint64_t seed,
    std::map<std::string, std::vector<double>>* service_ms) {
  Mix mix(seed, server.modules(), server.workflows());
  std::map<std::string, Expected> expected;
  for (const Shape& shape : mix.All()) {
    const auto start = Clock::now();
    auto result = std::move(server.RunAll({shape}, {"ref"})[0]);
    if (!result) Fatal("reference run of " + shape.Key() + " failed");
    (*service_ms)[ShapeClass(shape)].push_back(MsSince(start));
    Expected e;
    e.digest = dexa::serve::WireGet(*result, "digest");
    e.modules = std::strtoull(
        dexa::serve::WireGet(*result, "annotated", "0").c_str(), nullptr, 10);
    expected[shape.Key()] = e;
  }
  return expected;
}

/// The gated serve figures: sweeps of the in-memory mix submitted to an
/// in-process server at the daemon's thread count, drained as batches by
/// its run manager, for `seconds`. Every result is checked against the
/// reference. The daemon's own figures over the socket move by 2-5x with
/// the host's load (README.md), too much for a gate.
struct SweepFigures {
  std::vector<double> ms;     // wall time of each sweep
  std::vector<double> rates;  // modules annotated per second of each sweep
};

SweepFigures TimeSweeps(const RunArgs& args,
                        const std::map<std::string, Expected>& expected,
                        size_t sweep_requests, double seconds,
                        OutcomeLedger& ledger) {
  InProcessServer server(args, kDaemonThreads);
  Mix mix(args.seed + 5, server.modules(), server.workflows());
  SweepFigures figures;
  const double end = Now() + seconds;
  while (Now() < end || figures.ms.size() < 3) {
    std::vector<Shape> shapes(sweep_requests);
    std::vector<std::string> tenants(sweep_requests);
    for (size_t i = 0; i < sweep_requests; ++i) {
      shapes[i] = mix.Next(&tenants[i], Traffic::kMixInMemory);
    }
    const auto start = Clock::now();
    const auto results = server.RunAll(shapes, tenants);
    const double ms = MsSince(start);
    double modules = 0.0;
    bool all_ok = true;
    for (size_t i = 0; i < shapes.size(); ++i) {
      auto it = expected.find(shapes[i].Key());
      const bool ok = results[i] && it != expected.end() &&
                      dexa::serve::WireGet(*results[i], "digest") == it->second.digest;
      ledger.Record(ok, "in-process sweep: " + shapes[i].Key() + " wrong or failed");
      all_ok = all_ok && ok;
      if (ok) modules += static_cast<double>(it->second.modules);
    }
    if (!all_ok) continue;
    figures.ms.push_back(ms);
    figures.rates.push_back(modules / (ms / 1e3));
  }
  return figures;
}

/// The daemon process; killed and reaped if still running on destruction.
class Daemon {
 public:
  Daemon(const RunArgs& args, const std::string& journal_root) {
    const std::string log = args.work_dir + "/daemon.log";
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<std::string> argv_s = {
        args.dexa_bin,
        "--threads=" + std::to_string(kDaemonThreads),
        "--seed=" + std::to_string(args.seed),
        "serve",
        std::string("--unix=") + kSocket,
        "--journal-root=" + journal_root};
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, args.dexa_bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) Fatal("cannot start " + args.dexa_bin + ": " + std::strerror(rc));
    g_daemon_pid = pid_;
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Wait(5.0);
    }
  }

  pid_t pid() const { return pid_; }

  /// Waits up to `seconds` for the daemon to exit; true once reaped.
  bool Wait(double seconds) {
    const double end = Now() + seconds;
    while (pid_ > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        pid_ = -1;
        g_daemon_pid = -1;
        return true;
      }
      if (Now() > end) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

 private:
  pid_t pid_ = -1;
};

int Connect() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One blocking request/response exchange on `fd`.
std::optional<WireMessage> Exchange(int fd, const std::string& line,
                                    double timeout_s) {
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
    if (n <= 0) return std::nullopt;
    sent += static_cast<size_t>(n);
  }
  std::string in;
  const double end = Now() + timeout_s;
  while (in.find('\n') == std::string::npos) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 10) > 0) {
      char buffer[4096];
      const ssize_t n = ::read(fd, buffer, sizeof(buffer));
      if (n <= 0) return std::nullopt;
      in.append(buffer, static_cast<size_t>(n));
    }
    if (Now() > end) return std::nullopt;
  }
  auto parsed = dexa::serve::ParseWire(in.substr(0, in.find('\n')));
  if (!parsed.ok()) return std::nullopt;
  return *parsed;
}

/// Starts the daemon and returns the seconds until its first good health
/// response.
double StartDaemon(const RunArgs& args, const std::string& journal_root,
                   std::unique_ptr<Daemon>* daemon) {
  const double start = Now();
  *daemon = std::make_unique<Daemon>(args, journal_root);
  while (Now() - start < 60.0) {
    if ((*daemon)->Wait(0.0)) Fatal("the daemon exited while starting; see daemon.log");
    const int fd = Connect();
    if (fd >= 0) {
      auto health = Exchange(fd, "{\"op\":\"health\"}", 5.0);
      ::close(fd);
      if (health && dexa::serve::WireGet(*health, "ok") == "1" &&
          dexa::serve::WireGet(*health, "state") == "serving") {
        return Now() - start;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Fatal("daemon did not answer health within 60 s");
}

void StopDaemon(std::unique_ptr<Daemon>& daemon) {
  const int fd = Connect();
  if (fd >= 0) {
    (void)Exchange(fd, "{\"op\":\"shutdown\"}", 30.0);
    ::close(fd);
  }
  if (!daemon->Wait(30.0)) Fatal("daemon did not exit after shutdown");
  daemon.reset();
}

/// One request in flight through the client.
struct Request {
  Shape shape;
  std::string tenant;
  RequestTiming timing;
  std::string id;
  int polls = 0;
  double poll_at = 0.0;  // when to ask for the result (again)
  bool done = false;
  bool failed = false;
  bool refused = false;
  uint64_t modules = 0;
};

enum class Await { kSubmit, kResult, kHealth };

struct Pending {
  size_t request;
  Await what;
  double sent;
  uint64_t phase;  // answers to an earlier phase's requests are dropped
};

struct Connection {
  int fd = -1;
  std::string out;
  std::string in;
  std::deque<Pending> pending;
};

/// What the traced run records at the client: round trips, polls, the
/// daemon's run-table depth, and every line on the wire.
struct ClientTrace {
  bool enabled = false;
  std::vector<double> submit_rtt_us;
  std::vector<double> result_rtt_us;
  std::vector<double> queued;
  std::vector<std::string> lines;
};

/// The phase a client loop runs: an open loop at a fixed rate, or a closed
/// loop that keeps a window of requests in flight on every connection.
struct PhaseSpec {
  double rate = 0.0;      // open loop when > 0
  double seconds = 0.0;
  bool closed = false;
  double grace_s = kGraceS;
  Traffic traffic = Traffic::kMix;
};

struct PhaseResult {
  std::vector<Request> requests;
  double start_s = 0.0;
  size_t unfinished = 0;
};

class Client {
 public:
  Client(const std::map<std::string, Expected>& expected, ClientTrace* trace)
      : expected_(expected), trace_(trace) {
    for (size_t i = 0; i < kConnections; ++i) {
      Connection c;
      c.fd = Connect();
      if (c.fd < 0) Fatal("cannot connect to the daemon");
      const int flags = fcntl(c.fd, F_GETFL, 0);
      fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
      connections_.push_back(std::move(c));
    }
  }

  ~Client() {
    for (Connection& c : connections_) ::close(c.fd);
  }

  PhaseResult Run(const PhaseSpec& spec, Mix& mix, uint64_t seed) {
    PhaseResult result;
    std::vector<Request>& requests = result.requests;
    polling_.clear();
    ++phase_;
    repoll_s_ = spec.closed ? kClosedRepollS : kRepollS;
    const double start = Now();
    std::vector<double> due;
    if (!spec.closed) due = PoissonArrivals(spec.rate, spec.seconds, seed);
    const double stop_sending = start + spec.seconds;
    const double give_up = stop_sending + spec.grace_s;
    size_t next_due = 0;
    size_t in_flight = 0;
    double next_probe = start;
    requests.reserve(spec.closed ? 4096 : due.size());

    auto send_new = [&](double due_s) {
      Request r;
      r.shape = mix.Next(&r.tenant, spec.traffic);
      r.timing.due_s = due_s;
      requests.push_back(std::move(r));
      ++in_flight;
      const size_t index = requests.size() - 1;
      Send(index % kConnections, index, Await::kSubmit,
           dexa::serve::EncodeWire(SubmitMessage(requests[index].shape,
                                                 requests[index].tenant)),
           requests);
    };

    if (spec.closed) {
      for (size_t i = 0; i < kConnections * kSaturationWindow; ++i) send_new(Now());
    }
    while (true) {
      const double now = Now();
      if (!spec.closed) {
        while (next_due < due.size() && start + due[next_due] <= now) {
          send_new(start + due[next_due]);
          ++next_due;
        }
      }
      if (trace_ != nullptr && trace_->enabled && now >= next_probe) {
        Send(0, SIZE_MAX, Await::kHealth, "{\"op\":\"health\"}", requests);
        next_probe = now + 0.02;
      }
      double wake = now + 0.001;
      size_t kept = 0;
      for (size_t i : polling_) {
        Request& r = requests[i];
        if (r.poll_at <= now) {
          ++r.polls;
          Send(i % kConnections, i, Await::kResult,
               "{\"id\":\"" + r.id + "\",\"op\":\"result\"}", requests);
        } else {
          wake = std::min(wake, r.poll_at);
          polling_[kept++] = i;
        }
      }
      polling_.resize(kept);
      if (!spec.closed && next_due < due.size()) {
        wake = std::min(wake, start + due[next_due]);
      }
      const bool sending = spec.closed ? now < stop_sending
                                       : next_due < due.size();
      if (!sending && in_flight == 0) break;
      if (now > give_up) break;
      Pump(std::max(0.0, wake - Now()), requests, [&]() {
        --in_flight;
        if (spec.closed && Now() < stop_sending) send_new(Now());
      });
    }
    result.start_s = start;
    result.unfinished = in_flight;
    return result;
  }

 private:
  void Send(size_t conn, size_t request, Await what, const std::string& line,
            std::vector<Request>& requests) {
    Connection& c = connections_[conn];
    const double now = Now();
    if (what == Await::kSubmit) requests[request].timing.sent_s = now;
    c.out += line;
    c.out += '\n';
    c.pending.push_back({request, what, now, phase_});
    if (trace_ != nullptr && trace_->enabled) trace_->lines.push_back(line);
  }

  template <typename OnDone>
  void Pump(double timeout_s, std::vector<Request>& requests, OnDone on_done) {
    std::vector<pollfd> fds;
    for (Connection& c : connections_) {
      while (!c.out.empty()) {
        const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
        if (n <= 0) break;
        c.out.erase(0, static_cast<size_t>(n));
      }
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const int timeout_ms = static_cast<int>(timeout_s * 1e3);
    if (timeout_ms > 0) {
      ::poll(fds.data(), fds.size(), timeout_ms);
    } else {
      // Sub-millisecond wait for the next due send or re-poll.
      const int rc = ::poll(fds.data(), fds.size(), 0);
      if (rc == 0 && timeout_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::min(timeout_s, 100e-6)));
      }
    }
    for (size_t i = 0; i < connections_.size(); ++i) {
      Connection& c = connections_[i];
      char buffer[65536];
      while (true) {
        const ssize_t n = ::read(c.fd, buffer, sizeof(buffer));
        if (n <= 0) break;
        c.in.append(buffer, static_cast<size_t>(n));
      }
      size_t start = 0;
      while (true) {
        const size_t newline = c.in.find('\n', start);
        if (newline == std::string::npos) break;
        const std::string line = c.in.substr(start, newline - start);
        start = newline + 1;
        if (c.pending.empty()) continue;
        const Pending pending = c.pending.front();
        c.pending.pop_front();
        if (pending.phase != phase_) continue;
        Handle(pending, line, requests, on_done);
      }
      c.in.erase(0, start);
    }
  }

  template <typename OnDone>
  void Handle(const Pending& pending, const std::string& line,
              std::vector<Request>& requests, OnDone& on_done) {
    const double now = Now();
    if (trace_ != nullptr && trace_->enabled) trace_->lines.push_back(line);
    auto message = dexa::serve::ParseWire(line);
    if (pending.what == Await::kHealth) {
      if (message.ok() && trace_ != nullptr) {
        trace_->queued.push_back(static_cast<double>(std::strtoull(
            dexa::serve::WireGet(*message, "queued", "0").c_str(), nullptr, 10)));
      }
      return;
    }
    Request& r = requests[pending.request];
    const bool ok = message.ok() && dexa::serve::WireGet(*message, "ok") == "1";
    if (pending.what == Await::kSubmit) {
      if (trace_ != nullptr && trace_->enabled) {
        trace_->submit_rtt_us.push_back((now - pending.sent) * 1e6);
      }
      if (!ok) {
        r.failed = true;
        r.refused = true;
        r.done = true;
        r.timing.done_s = now;
        on_done();
        return;
      }
      r.id = dexa::serve::WireGet(*message, "id");
      r.poll_at = now;  // ask for the result right away
      polling_.push_back(pending.request);
      return;
    }
    if (trace_ != nullptr && trace_->enabled) {
      trace_->result_rtt_us.push_back((now - pending.sent) * 1e6);
    }
    if (!ok && message.ok() &&
        dexa::serve::WireGet(*message, "code") == "Unavailable") {
      r.poll_at = now + repoll_s_;  // still queued or running
      polling_.push_back(pending.request);
      return;
    }
    r.done = true;
    r.timing.done_s = now;
    auto it = expected_.find(r.shape.Key());
    r.failed = !ok || it == expected_.end() ||
               dexa::serve::WireGet(*message, "digest") != it->second.digest;
    if (!r.failed) r.modules = it->second.modules;
    on_done();
  }

  const std::map<std::string, Expected>& expected_;
  ClientTrace* trace_;
  std::vector<Connection> connections_;
  /// Requests of the current phase waiting to ask for their result.
  std::vector<size_t> polling_;
  double repoll_s_ = 0.0;
  uint64_t phase_ = 0;
};

/// Appends to `rates` the modules annotated per second in each consecutive
/// window of `window_s` in a closed-loop phase's first `seconds`; the drain
/// at the end is left out, and the median over the windows is not moved by
/// a short host stall.
void ModulesPerWindow(const PhaseResult& phase, double seconds,
                      double window_s, std::vector<double>* rates) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / window_s));
  std::vector<double> modules(windows, 0.0);
  for (const Request& r : phase.requests) {
    if (!r.done || r.failed) continue;
    const double offset = r.timing.done_s - phase.start_s;
    if (offset < 0.0) continue;
    const size_t k = static_cast<size_t>(offset / window_s);
    if (k < windows) modules[k] += static_cast<double>(r.modules);
  }
  for (double m : modules) rates->push_back(m / window_s);
}

struct Latencies {
  std::vector<double> ms;
  std::vector<double> lag_ms;
  std::map<std::string, std::vector<double>> ms_by_class;
};

/// Records a fixed-rate or saturation phase in the outcome ledger and
/// returns its latencies. Refusals, failures, wrong digests and requests
/// still unanswered at the end all count as failed.
Latencies Account(const PhaseResult& phase, const std::string& name,
                  OutcomeLedger& ledger) {
  Latencies out;
  for (const Request& r : phase.requests) {
    const bool ok = r.done && !r.failed;
    ledger.Record(ok, name + ": " + r.shape.Key() +
                          (r.refused ? " refused" : r.done ? " wrong or failed"
                                                           : " unanswered"));
    if (!ok) continue;
    out.ms.push_back(LatencyMs(r.timing));
    out.lag_ms.push_back(GeneratorLagMs(r.timing));
    out.ms_by_class[ShapeClass(r.shape)].push_back(LatencyMs(r.timing));
  }
  return out;
}

std::string TailNote(const std::vector<double>& ms) {
  auto tail = HighestTail(ms);
  if (!tail) return "n=" + std::to_string(ms.size()) + ", no tail percentile";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "p%g of n=%zu (%zu beyond)",
                tail->percentile, ms.size(), tail->beyond);
  return buffer;
}

double TailValue(const std::vector<double>& ms) {
  auto tail = HighestTail(ms);
  return tail ? tail->value : Percentile(ms, 100);
}

/// Open-loop steps of the in-memory mix from the high rate up by 50%, each
/// `step_s` long; a step passes when its tail latency meets the limit,
/// nothing is refused, and every request is answered before the grace
/// period ends (no growing backlog). Returns the highest passing rate.
double SearchMaxRate(Client& client, Mix& mix, const RunArgs& args,
                     double step_s, double budget_s, OutcomeLedger& ledger) {
  double best = 0.0;
  const double end = Now() + budget_s;
  for (double rate = args.high_rps; Now() + step_s < end; rate *= 1.5) {
    PhaseResult phase =
        client.Run({rate, step_s, false, kSearchGraceS, Traffic::kMixInMemory}, mix,
                   args.seed + 101 + static_cast<uint64_t>(rate));
    std::vector<double> ms;
    bool refused = false;
    for (const Request& r : phase.requests) {
      if (r.refused) {
        refused = true;
        continue;
      }
      // A wrong answer is an error at any rate.
      if (r.done) ledger.Record(!r.failed, "max-rate search: " + r.shape.Key());
      if (r.done && !r.failed) ms.push_back(LatencyMs(r.timing));
    }
    const bool pass = !refused && phase.unfinished == 0 &&
                      TailValue(ms) <= args.tail_limit_ms;
    if (!pass) break;
    best = rate;
  }
  return best;
}

void ReportWireCodec(Report& report, const std::vector<std::string>& lines) {
  if (lines.empty()) return;
  std::vector<WireMessage> parsed;
  parsed.reserve(lines.size());
  auto start = Clock::now();
  for (const std::string& line : lines) {
    auto message = dexa::serve::ParseWire(line);
    if (message.ok()) parsed.push_back(std::move(message).value());
  }
  const double parse_ns = static_cast<double>(NanosSince(start));
  size_t bytes = 0;
  start = Clock::now();
  for (const WireMessage& message : parsed) {
    bytes += dexa::serve::EncodeWire(message).size();
  }
  const double encode_ns = static_cast<double>(NanosSince(start));
  report.Metric("serve.wire_parse_ns", parse_ns / static_cast<double>(lines.size()));
  report.Metric("serve.wire_encode_ns",
                parsed.empty() ? 0.0 : encode_ns / static_cast<double>(parsed.size()));
  report.Note("wire.lines", static_cast<double>(lines.size()), "count",
              std::to_string(bytes) + " bytes re-encoded");
}

}  // namespace

int RunServeMix(const RunArgs& args) {
  Report report(args.workload, args.seed, args.traced);
  report.Host(kDaemonThreads);
  OutcomeLedger& ledger = report.outcomes();
  if (::chdir(args.work_dir.c_str()) != 0) Fatal("cannot enter " + args.work_dir);

  InProcessServer reference(args, 1);
  const size_t modules = reference.modules();
  const size_t workflows = reference.workflows();
  std::map<std::string, std::vector<double>> service_ms;
  const std::map<std::string, Expected> expected =
      ReferenceResults(reference, args.seed, &service_ms);
  const double t = args.seconds;
  const size_t sweep_requests = (modules + kChunk - 1) / kChunk + 1 + kEnactsPerSweep;
  const SweepFigures sweeps =
      TimeSweeps(args, expected, sweep_requests, kSweepShare * t, ledger);

  // Set-up: daemon start to its first good health response. Daemon starts
  // take tens of milliseconds and the host has slow periods of a second or
  // more, so starts are timed in two blocks, one before the workload (its
  // last daemon serves the workload) and one after it.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  int daemon_starts = 0;
  auto time_starts = [&](bool keep_last) {
    const double begin = Now();
    for (int rep = 0;; ++rep) {
      const std::string root =
          args.work_dir + "/journal-" + std::to_string(daemon_starts++);
      setup_s.push_back(StartDaemon(args, root, &daemon));
      const bool last = rep + 1 >= kSetupReps && Now() - begin >= kSetupSeconds;
      if (last && keep_last) break;
      StopDaemon(daemon);
      if (last) break;
    }
  };
  time_starts(true);

  ClientTrace trace;
  Mix mix(args.seed, modules, workflows);
  Latencies low, high;
  std::vector<double> high_p50_ms, saturation_rates;
  size_t saturation_requests = 0, high_polls = 0, high_completed = 0;
  double max_rate = 0.0;
  {
    Client client(expected, args.traced ? &trace : nullptr);
    // Warm-up at the low rate, not measured.
    (void)client.Run({args.low_rps, 0.3, false}, mix, args.seed + 1);
    low = Account(client.Run({args.low_rps, 0.1 * t, false}, mix, args.seed + 2),
                  "low rate", ledger);
    // The gated figures (high-rate latency, saturation throughput) get the
    // longest phases, cut into kRounds alternating segments: a slow period
    // of the host moves a few segments' figures, not their median. A traced
    // run records the high-rate segments.
    for (uint64_t round = 0; round < kRounds; ++round) {
      trace.enabled = args.traced;
      const PhaseResult segment = client.Run(
          {args.high_rps, kHighShare * t / kRounds, false, kGraceS,
           Traffic::kMixInMemory},
          mix, args.seed + 3 + 10 * round);
      trace.enabled = false;
      const Latencies latencies = Account(segment, "high rate", ledger);
      high_p50_ms.push_back(Median(latencies.ms));
      high.ms.insert(high.ms.end(), latencies.ms.begin(), latencies.ms.end());
      high.lag_ms.insert(high.lag_ms.end(), latencies.lag_ms.begin(),
                         latencies.lag_ms.end());
      for (const auto& [shape_class, ms] : latencies.ms_by_class) {
        std::vector<double>& all = high.ms_by_class[shape_class];
        all.insert(all.end(), ms.begin(), ms.end());
      }
      for (const Request& r : segment.requests) {
        if (!r.done || r.failed) continue;
        high_polls += static_cast<size_t>(r.polls);
        ++high_completed;
      }
      const PhaseResult saturation = client.Run(
          {0.0, kSaturationShare * t / kRounds, true, kGraceS,
           Traffic::kMixInMemory},
          mix, args.seed + 4 + 10 * round);
      (void)Account(saturation, "saturation", ledger);
      ModulesPerWindow(saturation, kSaturationShare * t / kRounds,
                       kSaturationWindowS, &saturation_rates);
      saturation_requests += saturation.requests.size();
    }
    max_rate = SearchMaxRate(client, mix, args, std::max(0.3, 0.025 * t),
                             kSearchShare * t, ledger);
  }

  std::optional<WireMessage> metrics, health;
  {
    const int fd = Connect();
    if (fd < 0) Fatal("cannot connect for metrics");
    metrics = Exchange(fd, "{\"op\":\"metrics\"}", 10.0);
    health = Exchange(fd, "{\"op\":\"health\"}", 10.0);
    ::close(fd);
  }
  const double daemon_rss_mb = PeakRssMb(daemon->pid());
  StopDaemon(daemon);
  time_starts(false);

  std::vector<double> lag = low.lag_ms;
  lag.insert(lag.end(), high.lag_ms.begin(), high.lag_ms.end());

  if (!args.traced) {
    report.Metric("setup_s", Median(setup_s));
    report.Metric("modules_per_s", Median(sweeps.rates));
    report.Metric("lat_p50_ms", Median(sweeps.ms));
    report.Metric("peak_rss_mb", daemon_rss_mb);
  } else {
    report.Metric("serve.submit_rtt_us_p50", Median(trace.submit_rtt_us));
    report.Metric("serve.result_rtt_us_p50", Median(trace.result_rtt_us));
    report.Metric("serve.polls_per_request",
                  high_completed == 0 ? 0.0
                                      : static_cast<double>(high_polls) /
                                            static_cast<double>(high_completed));
    report.Metric("serve.queued_p99", Percentile(trace.queued, 99));
    ReportWireCodec(report, trace.lines);
    if (metrics) {
      report.Metric("serve.rejected_overloaded",
                    std::strtod(dexa::serve::WireGet(*metrics, "rejected_overloaded", "0").c_str(), nullptr));
      report.Metric("serve.failed",
                    std::strtod(dexa::serve::WireGet(*metrics, "failed", "0").c_str(), nullptr));
    }
    report.Metric("serve.lat_p50_ms_low", Median(low.ms));
    report.Metric("serve.lat_tail_ms_low", TailValue(low.ms));
    report.Metric("serve.lat_p50_ms_high", Median(high_p50_ms));
    report.Metric("serve.lat_tail_ms_high", TailValue(high.ms));
    report.Metric("serve.max_rate_rps", max_rate);
    report.Metric("client.gen_lag_ms_p99", Percentile(lag, 99));
  }
  if (args.traced) return report.Emit();
  report.Note("lat_p50_ms_low", Median(low.ms), "ms", "n=" + std::to_string(low.ms.size()));
  report.Note("lat_tail_ms_low", TailValue(low.ms), "ms", TailNote(low.ms));
  report.Note("lat_p50_ms_high", Median(high_p50_ms), "ms",
              "median of " + std::to_string(kRounds) + " segment p50s, n=" +
                  std::to_string(high.ms.size()));
  report.Note("lat_tail_ms_high", TailValue(high.ms), "ms", TailNote(high.ms));
  report.Note("max_rate_rps", max_rate, "1/s",
              "limit: tail latency <= " + std::to_string(args.tail_limit_ms) + " ms");
  report.Note("sweeps", static_cast<double>(sweeps.ms.size()), "count",
              std::to_string(sweep_requests) + " requests each");
  report.Note("daemon.modules_per_s", Median(saturation_rates), "1/s",
              "closed loop, median of " + std::to_string(saturation_rates.size()) +
                  " windows");
  report.Note("saturation.requests", static_cast<double>(saturation_requests),
              "count");
  // The daemon's capacity for the in-memory mix: the fixed rates are set as
  // fractions of it (README.md).
  report.Note("saturation.requests_per_s",
              static_cast<double>(saturation_requests) / (kSaturationShare * t),
              "1/s");
  report.Note("client.gen_lag_ms_p99", Percentile(lag, 99), "ms");
  for (const auto& [shape_class, ms] : high.ms_by_class) {
    report.Note("lat_p50_ms_high." + shape_class, Median(ms), "ms",
                "n=" + std::to_string(ms.size()));
  }
  for (const auto& [shape_class, ms] : service_ms) {
    report.Note("reference.service_ms." + shape_class, Median(ms), "ms",
                "median of " + std::to_string(ms.size()) + ", 1 thread");
  }
  if (health) {
    report.Note("daemon.breaker_trips",
                std::strtod(dexa::serve::WireGet(*health, "breaker_trips", "0").c_str(), nullptr),
                "count");
  }
  return report.Emit();
}

}  // namespace perfbench
