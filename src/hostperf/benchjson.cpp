#include "hostperf/benchjson.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/json_string.hpp"

namespace bladed::hostperf {

namespace {
void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}
}  // namespace

BenchReport BenchReport::from_env(std::string bench_name, int host_threads) {
  const char* path = std::getenv("BLADED_BENCH_JSON");
  return BenchReport(path != nullptr ? path : "", std::move(bench_name),
                     host_threads);
}

BenchReport::BenchReport(std::string path, std::string bench_name,
                         int host_threads)
    : path_(std::move(path)),
      bench_(std::move(bench_name)),
      host_threads_(host_threads) {}

BenchReport::~BenchReport() { write(); }

void BenchReport::add(BenchResult r) {
  if (!active()) return;
  results_.push_back(std::move(r));
}

void BenchReport::write() {
  if (!active() || written_ || results_.empty()) return;
  std::string doc = "{\"schema\":\"bladed-bench-v1\",\"bench\":";
  append_json_string(doc, bench_);
  doc += ",\"host_threads\":";
  doc += std::to_string(host_threads_);
  doc += ",\"results\":[";
  bool first = true;
  for (const BenchResult& r : results_) {
    if (!first) doc += ',';
    first = false;
    doc += "{\"name\":";
    append_json_string(doc, r.name);
    doc += ",\"wall_seconds\":";
    append_number(doc, r.wall_seconds);
    doc += ",\"virtual_seconds\":";
    append_number(doc, r.virtual_seconds);
    doc += ",\"ops\":";
    append_number(doc, r.ops);
    doc += ",\"cycles\":";
    append_number(doc, r.cycles);
    doc += '}';
  }
  doc += "]}\n";
  std::FILE* f = std::fopen(path_.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "benchjson: cannot open %s for append\n",
                 path_.c_str());
    return;
  }
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  written_ = true;
}

}  // namespace bladed::hostperf
