#include "bench/bench_env.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/example_generator.h"

namespace dexa {
namespace bench_env {

namespace {
[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "bench setup failed at %s: %s\n", what,
               status.ToString().c_str());
  std::abort();
}
}  // namespace

const Environment& GetEnvironment() {
  static Environment* env = [] {
    auto built = BuildEnvironment();
    if (!built.ok()) Die("BuildEnvironment", built.status());
    auto* out = new Environment(std::move(built).value());

    ExampleGenerator generator(out->kb, out->pool.get());
    auto annotated = AnnotateRegistry(generator, *out->corpus.registry);
    if (!annotated.ok()) Die("AnnotateRegistry", annotated.status());
    if (!annotated->complete()) {
      Die("AnnotateRegistry aborted", annotated->run_status);
    }

    Status retired = RetireDecayedModules(out->corpus);
    if (!retired.ok()) Die("RetireDecayedModules", retired);
    return out;
  }();
  return *env;
}

void BenchReport::Add(const std::string& metric, double value,
                      const std::string& unit) {
  metrics_.push_back(Metric{metric, value, unit});
}

void BenchReport::Write() const {
  std::ostringstream json;
  json << "{\"bench\": \"" << name_ << "\", \"threads\": " << threads_
       << ", \"metrics\": [";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json << ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json << "{\"name\": \"" << metrics_[i].name << "\", \"value\": " << value
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  json << "]}\n";

  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << json.str();
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
}

}  // namespace bench_env
}  // namespace dexa
