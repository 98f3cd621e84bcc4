// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--out-dir=DIR] [--source-id=ID]
//   perfbench --self-test
//
// A run prints one JSON line: the host fingerprint, whether the workload's
// correctness gate passed, the operation counts, every end-to-end metric
// (untraced runs) or every per-layer metric plus the span table (traced
// runs), and the workload-specific extras. A failed gate prints the
// divergence to stderr and exits 1 with nothing on stdout. perfbench/run.py
// builds this program and turns the line into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double TraceOverheadPct(const std::vector<double>& traced_rates,
                        const std::vector<double>& untraced_rates) {
  const double traced = Median(traced_rates);
  if (traced <= 0.0) return 0.0;
  return (Median(untraced_rates) / traced - 1.0) * 100.0;
}

int SelfTest();  // self_test.cc

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* bad) {
  std::fprintf(stderr,
               "unknown argument %s\nusage: perfbench --workload=NAME "
               "--seed=N --seconds=S --trace=0|1 [--out-dir=DIR] "
               "[--source-id=ID] | --self-test\n",
               bad);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  gbda::SetLogLevel(gbda::LogLevel::kWarning);
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--self-test") == 0) return SelfTest();
    if (Flag(argv[i], "--workload", &v)) {
      config.workload = v;
    } else if (Flag(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "--seconds", &v)) {
      config.seconds = std::strtod(v.c_str(), nullptr);
    } else if (Flag(argv[i], "--trace", &v)) {
      config.trace = v == "1";
    } else if (Flag(argv[i], "--out-dir", &v)) {
      config.out_dir = v;
    } else if (Flag(argv[i], "--source-id", &v)) {
      config.source_id = v;
    } else {
      return Usage(argv[i]);
    }
  }
  if (config.seconds <= 0.0) return Usage("--seconds");

  gbda::Status (*run)(const RunConfig&, Report*) = nullptr;
  if (config.workload == "batch-large") run = RunBatchLarge;
  if (config.workload == "approx-topk") run = RunApproxTopK;
  if (run == nullptr) return Usage(config.workload.c_str());

  Tracer::SetEnabled(config.trace);
  Report report;
  const gbda::Status status = run(config, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  std::string span_table = "{}";
  if (config.trace) {
    Tracer::SetEnabled(false);
    const std::vector<SpanRecord> spans = Tracer::Collect();
    const auto summary = Tracer::Summarise(spans);
    LayerMetricsFromSpans(summary, &report);
    span_table = SpanTableJson(summary);
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (!Tracer::WriteJson(spans, path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
  }

  std::string notes = "{";
  for (const auto& [k, v] : report.notes) {
    notes += (notes.size() > 1 ? ", \"" : "\"") + k + "\": \"" + JsonEscape(v) + "\"";
  }
  notes += "}";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"host\": %s, \"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"end_to_end\": %s, \"per_layer\": %s, \"extra\": %s, \"notes\": %s, "
      "\"spans\": %s}\n",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, HostFingerprintJson(config).c_str(),
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed),
      MetricsJson(report.end_to_end).c_str(), MetricsJson(report.per_layer).c_str(),
      MetricsJson(report.extra).c_str(), notes.c_str(), span_table.c_str());
  return 0;
}
