#include "tools/lint/lint.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "tools/lint/callgraph.h"
#include "tools/lint/sarif.h"
#include "tools/lint/taint.h"

namespace dexa::lint {
namespace {

namespace fs = std::filesystem;

/// Bump when AnalyzedFile or the record format changes: the version salts
/// the content hash, so every stale record self-invalidates.
constexpr uint64_t kCacheVersion = 1;

/// Derives the src/ layer ("core", "engine", ...) from a repo-relative
/// path; empty for files outside src/.
std::string LayerOf(const std::string& rel_path) {
  constexpr std::string_view kPrefix = "src/";
  if (rel_path.rfind(kPrefix, 0) != 0) return "";
  size_t slash = rel_path.find('/', kPrefix.size());
  if (slash == std::string::npos) return "";
  return rel_path.substr(kPrefix.size(), slash - kPrefix.size());
}

/// An allow() comment silences findings on its own line and the next one
/// (so the comment can sit above the flagged statement).
bool IsSuppressedIn(const AnalyzedFile& file, const Finding& finding) {
  if (file.file_suppressions.count(finding.rule) ||
      file.file_suppressions.count("*")) {
    return true;
  }
  for (int line : {finding.line, finding.line - 1}) {
    auto it = file.line_suppressions.find(line);
    if (it != file.line_suppressions.end() &&
        (it->second.count(finding.rule) || it->second.count("*"))) {
      return true;
    }
  }
  return false;
}

void SortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

int ParseInt(std::string_view s) {
  int value = 0;
  std::from_chars(s.data(), s.data() + s.size(), value);
  return value;
}

uint64_t ParseHex64(std::string_view s) {
  uint64_t value = 0;
  std::from_chars(s.data(), s.data() + s.size(), value, 16);
  return value;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

AnalyzedFile AnalyzeSource(const std::string& rel_path,
                           std::string_view content) {
  SourceFile file;
  file.path = rel_path;
  file.layer = LayerOf(rel_path);
  file.lex = LexSource(content);

  AnalyzedFile out;
  out.path = rel_path;
  out.layer = file.layer;
  out.content_hash = HashBytes(content, kCacheVersion);
  out.line_suppressions = file.lex.line_suppressions;
  out.file_suppressions = file.lex.file_suppressions;
  out.index = BuildFileIndex(rel_path, file.layer, file.lex);
  out.discards = CollectDiscardedCalls(file);

  GlobalContext ctx;
  std::set<std::string> ambiguous;
  CollectStatusFunctions(file, ctx, ambiguous);
  out.status_functions.assign(ctx.status_functions.begin(),
                              ctx.status_functions.end());
  out.ambiguous.assign(ambiguous.begin(), ambiguous.end());

  for (const RuleInfo& rule : Rules()) {
    if (rule.check == nullptr) continue;  // whole-program: FinishAnalysis
    std::vector<Finding> raw;
    rule.check(file, ctx, raw);
    for (Finding& finding : raw) {
      if (IsSuppressedIn(out, finding)) {
        ++out.suppressed;
      } else {
        out.findings.push_back(std::move(finding));
      }
    }
  }
  return out;
}

LintReport FinishAnalysis(const std::vector<AnalyzedFile>& files,
                          LintStats* stats) {
  LintReport report;
  report.files_scanned = files.size();
  report.rules_evaluated = files.size() * Rules().size();

  std::map<std::string, const AnalyzedFile*> by_path;
  for (const AnalyzedFile& file : files) {
    report.suppressed += file.suppressed;
    for (const Finding& finding : file.findings) {
      report.findings.push_back(finding);
    }
    by_path[file.path] = &file;
  }
  auto admit = [&](Finding&& finding) {
    auto it = by_path.find(finding.file);
    if (it != by_path.end() && IsSuppressedIn(*it->second, finding)) {
      ++report.suppressed;
    } else {
      report.findings.push_back(std::move(finding));
    }
  };

  // Whole-program pass 1: unchecked-status. The Status/Result registry is
  // global, so candidates are evaluated here — a cached file can never
  // hold a stale verdict.
  std::set<std::string> status_functions;
  std::set<std::string> ambiguous;
  for (const AnalyzedFile& file : files) {
    status_functions.insert(file.status_functions.begin(),
                            file.status_functions.end());
    ambiguous.insert(file.ambiguous.begin(), file.ambiguous.end());
  }
  for (const std::string& name : ambiguous) status_functions.erase(name);
  for (const AnalyzedFile& file : files) {
    for (const DiscardedCall& call : file.discards) {
      if (status_functions.count(call.callee) == 0) continue;
      admit({"unchecked-status", file.path, call.line,
             "call to `" + call.callee +
                 "` discards its Status/Result; check it, or cast "
                 "to void with a reason"});
    }
  }

  // Whole-program pass 2: determinism taint over the call graph.
  auto taint_start = std::chrono::steady_clock::now();
  std::vector<const FileIndex*> indexes;
  indexes.reserve(files.size());
  for (const AnalyzedFile& file : files) indexes.push_back(&file.index);
  CallGraph graph = BuildCallGraph(indexes);
  for (Finding& finding : RunDeterminismTaint(graph)) {
    admit(std::move(finding));
  }
  if (stats != nullptr) {
    stats->taint_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - taint_start)
                          .count();
  }

  SortFindings(report.findings);
  return report;
}

// --------------------------------------------------------------------------
// Cache records
// --------------------------------------------------------------------------

std::string SerializeAnalyzedFile(const AnalyzedFile& file) {
  std::string out = "dexa-lint-cache " + std::to_string(kCacheVersion) + "\n";
  out += "path " + file.path + "\n";
  out += "layer " + file.layer + "\n";
  out += "hash " + Hex64(file.content_hash) + "\n";
  out += "sup " + std::to_string(file.suppressed) + "\n";
  for (const std::string& rule : file.file_suppressions) {
    out += "fsup " + rule + "\n";
  }
  for (const auto& [line, rules] : file.line_suppressions) {
    for (const std::string& rule : rules) {
      out += "lsup " + std::to_string(line) + " " + rule + "\n";
    }
  }
  for (const std::string& name : file.status_functions) {
    out += "status " + name + "\n";
  }
  for (const std::string& name : file.ambiguous) {
    out += "ambig " + name + "\n";
  }
  for (const DiscardedCall& call : file.discards) {
    out += "disc " + std::to_string(call.line) + " " + call.callee + "\n";
  }
  for (const FunctionDef& fn : file.index.functions) {
    out += "fn " + std::to_string(fn.line) + " " + fn.name + "\n";
    for (const CallSite& call : fn.calls) {
      out += "call " + std::to_string(call.line) + " " + call.name + "\n";
    }
    for (const TaintSource& src : fn.sources) {
      out += "src " + std::to_string(src.line) + " " + src.kind + " " +
             src.what + "\n";
    }
  }
  for (const Finding& finding : file.findings) {
    out += "find " + finding.rule + " " + std::to_string(finding.line) + " " +
           finding.message + "\n";
  }
  return out;
}

bool ParseAnalyzedFile(std::string_view text, AnalyzedFile& out) {
  out = AnalyzedFile{};
  bool header_ok = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    size_t sp = line.find(' ');
    std::string_view tag = line.substr(0, sp);
    std::string_view rest =
        sp == std::string_view::npos ? std::string_view() : line.substr(sp + 1);
    auto split = [&](std::string_view& first) {
      size_t s = rest.find(' ');
      first = rest.substr(0, s);
      rest = s == std::string_view::npos ? std::string_view()
                                         : rest.substr(s + 1);
    };
    if (tag == "dexa-lint-cache") {
      header_ok = ParseInt(rest) == static_cast<int>(kCacheVersion);
      if (!header_ok) return false;
    } else if (tag == "path") {
      out.path = std::string(rest);
    } else if (tag == "layer") {
      out.layer = std::string(rest);
    } else if (tag == "hash") {
      out.content_hash = ParseHex64(rest);
    } else if (tag == "sup") {
      out.suppressed = static_cast<size_t>(ParseInt(rest));
    } else if (tag == "fsup") {
      out.file_suppressions.insert(std::string(rest));
    } else if (tag == "lsup") {
      std::string_view num;
      split(num);
      out.line_suppressions[ParseInt(num)].insert(std::string(rest));
    } else if (tag == "status") {
      out.status_functions.push_back(std::string(rest));
    } else if (tag == "ambig") {
      out.ambiguous.push_back(std::string(rest));
    } else if (tag == "disc") {
      std::string_view num;
      split(num);
      out.discards.push_back({ParseInt(num), std::string(rest)});
    } else if (tag == "fn") {
      std::string_view num;
      split(num);
      FunctionDef fn;
      fn.line = ParseInt(num);
      fn.name = std::string(rest);
      out.index.functions.push_back(std::move(fn));
    } else if (tag == "call") {
      if (out.index.functions.empty()) return false;
      std::string_view num;
      split(num);
      out.index.functions.back().calls.push_back(
          {std::string(rest), ParseInt(num)});
    } else if (tag == "src") {
      if (out.index.functions.empty()) return false;
      std::string_view num, kind;
      split(num);
      split(kind);
      out.index.functions.back().sources.push_back(
          {std::string(kind), std::string(rest), ParseInt(num)});
    } else if (tag == "find") {
      std::string_view rule, num;
      split(rule);
      split(num);
      out.findings.push_back({std::string(rule), out.path, ParseInt(num),
                              std::string(rest), {}});
    } else {
      return false;  // unknown tag: treat the record as corrupt
    }
  }
  if (!header_ok || out.path.empty()) return false;
  out.index.path = out.path;
  out.index.layer = out.layer;
  return true;
}

// --------------------------------------------------------------------------
// In-memory linter and path driver
// --------------------------------------------------------------------------

void Linter::AddSource(const std::string& rel_path, std::string_view content) {
  files_.push_back(AnalyzeSource(rel_path, content));
}

LintReport Linter::Run() const { return FinishAnalysis(files_); }

std::string ReportToJson(const LintReport& report) {
  std::string out = "{\"tool\": \"dexa-lint\", \"files_scanned\": ";
  out += std::to_string(report.files_scanned);
  out += ", \"rules_evaluated\": ";
  out += std::to_string(report.rules_evaluated);
  out += ", \"suppressed\": ";
  out += std::to_string(report.suppressed);
  out += ", \"rules\": [";
  bool first = true;
  for (const RuleInfo& rule : Rules()) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(out, rule.name);
  }
  out += "], \"findings\": [";
  first = true;
  for (const Finding& finding : report.findings) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"rule\": ";
    AppendJsonString(out, finding.rule);
    out += ", \"file\": ";
    AppendJsonString(out, finding.file);
    out += ", \"line\": ";
    out += std::to_string(finding.line);
    out += ", \"message\": ";
    AppendJsonString(out, finding.message);
    if (!finding.flow.empty()) {
      out += ", \"flow\": [";
      bool first_step = true;
      for (const FlowStep& step : finding.flow) {
        if (!first_step) out += ", ";
        first_step = false;
        out += "{\"file\": ";
        AppendJsonString(out, step.file);
        out += ", \"line\": ";
        out += std::to_string(step.line);
        out += ", \"note\": ";
        AppendJsonString(out, step.note);
        out += "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

void AppendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::vector<std::string> CollectSourceFiles(
    const std::string& root, const std::vector<std::string>& paths) {
  std::vector<std::string> out;
  auto consider = [&](const fs::path& p) {
    std::string ext = p.extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp") return;
    out.push_back(fs::relative(p, root).generic_string());
  };
  for (const std::string& rel : paths) {
    fs::path base = fs::path(root) / rel;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      consider(base);
      continue;
    }
    if (!fs::is_directory(base, ec)) {
      std::cerr << "dexa-lint: warning: no such path: " << base.string()
                << "\n";
      continue;
    }
    fs::recursive_directory_iterator it(
        base, fs::directory_options::skip_permission_denied, ec);
    for (auto end = fs::end(it); it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      std::string name = p.filename().string();
      if (it->is_directory(ec) &&
          (name.rfind("build", 0) == 0 || name.rfind(".", 0) == 0)) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file(ec)) consider(p);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

LintReport LintPaths(const std::string& root,
                     const std::vector<std::string>& rel_paths,
                     const std::string& cache_dir, LintStats* stats) {
  if (!cache_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
  }
  std::vector<AnalyzedFile> files;
  files.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      std::cerr << "dexa-lint: warning: cannot read " << rel << "\n";
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string content = buf.str();
    if (cache_dir.empty()) {
      files.push_back(AnalyzeSource(rel, content));
      continue;
    }
    uint64_t hash = HashBytes(content, kCacheVersion);
    fs::path record_path =
        fs::path(cache_dir) / (Hex64(HashBytes(rel)) + ".rec");
    AnalyzedFile cached;
    bool hit = false;
    {
      std::ifstream rec(record_path, std::ios::binary);
      if (rec) {
        std::ostringstream rec_buf;
        rec_buf << rec.rdbuf();
        hit = ParseAnalyzedFile(rec_buf.str(), cached) &&
              cached.path == rel && cached.content_hash == hash;
      }
    }
    if (hit) {
      if (stats != nullptr) ++stats->files_cached;
      files.push_back(std::move(cached));
      continue;
    }
    if (stats != nullptr) ++stats->files_analyzed;
    files.push_back(AnalyzeSource(rel, content));
    std::ofstream rec(record_path, std::ios::binary | std::ios::trunc);
    if (rec) rec << SerializeAnalyzedFile(files.back());
  }
  return FinishAnalysis(files, stats);
}

int RunLintCli(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::string sarif_path;
  std::string cache_dir;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cache_dir = arg.substr(12);
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : Rules()) {
        std::cout << rule.name << "  [" << rule.family << "]  " << rule.summary
                  << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: dexa-lint [--root=DIR] [--json=PATH] "
                   "[--sarif=PATH] [--cache-dir=DIR] [--list-rules] "
                   "<paths...>\n"
                   "Lints dexa sources against the DESIGN.md invariants.\n"
                   "Suppress a finding with `// dexa-lint: allow(<rule>)` on "
                   "the same or preceding line.\n"
                   "--cache-dir persists per-file analysis keyed by content "
                   "hash; warm runs re-analyze only changed files.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dexa-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "dexa-lint: no paths given (try: dexa-lint src tests bench "
                 "tools examples)\n";
    return 2;
  }
  LintStats stats;
  LintReport report =
      LintPaths(root, CollectSourceFiles(root, paths), cache_dir, &stats);
  for (const Finding& finding : report.findings) {
    std::cout << finding.file << ":" << finding.line << ": [" << finding.rule
              << "] " << finding.message << "\n";
    for (const FlowStep& step : finding.flow) {
      std::cout << "    " << step.file << ":" << step.line << ": " << step.note
                << "\n";
    }
  }
  std::cout << "dexa-lint: " << report.files_scanned << " files, "
            << report.findings.size() << " finding(s), " << report.suppressed
            << " suppressed";
  if (!cache_dir.empty()) {
    std::cout << " (" << stats.files_cached << " cached, "
              << stats.files_analyzed << " analyzed)";
  }
  std::cout << "\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "dexa-lint: cannot write " << json_path << "\n";
      return 2;
    }
    out << ReportToJson(report);
  }
  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::cerr << "dexa-lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << ReportToSarif(report);
  }
  return report.findings.empty() ? 0 : 1;
}

}  // namespace dexa::lint
