// Run configuration, metric report and small measurement helpers shared by
// the workloads.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";     // traces, run records and scratch files
  std::string source_id = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured. `end_to_end` and `per_layer` use the names
/// listed in BENCHMARK.json; `extra` holds the workload-specific figures
/// (tail latency, per-kind rates, answer quality, ...).
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, Metric> extra;
  std::map<std::string, std::string> notes;  // gate outcomes, kernel impl, ...
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = {value, unit};
  }
};

/// Nearest-rank quantile of `v` (copied and sorted); 0 for an empty input.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Throughput of a closed loop, robust to short stalls of the host: the
/// loop's calls (wall times in ms, each answering `queries_per_call`
/// queries) are cut into consecutive groups of `group` calls, and the
/// median group rate in queries per second is returned.
double MedianGroupRate(const std::vector<double>& call_ms, size_t group,
                       double queries_per_call);

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

/// Host fingerprint: nproc, CPU model, resolved scan-kernel impl, build
/// type, compiler and source id, as one JSON object.
std::string HostFingerprintJson(const RunConfig& config);

/// The per-layer metrics that come from span summaries: for each entry,
/// the span name and the statistic taken. Every traced run reports these.
void LayerMetricsFromSpans(const std::map<std::string, SpanStats>& spans,
                           Report* report);

/// Per-span-name table (spans, ops, p50/p99 duration, total and self time)
/// as a JSON object, for the run record.
std::string SpanTableJson(const std::map<std::string, SpanStats>& spans);

std::string MetricsJson(const std::map<std::string, Metric>& metrics);
std::string JsonEscape(const std::string& s);

}  // namespace perfbench
