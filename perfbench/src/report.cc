#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double MedianGroupRate(const std::vector<double>& call_ms, size_t group,
                       double queries_per_call) {
  std::vector<double> rates;
  for (size_t b = 0; b + group <= call_ms.size(); b += group) {
    double ms = 0.0;
    for (size_t i = b; i < b + group; ++i) ms += call_ms[i];
    rates.push_back(static_cast<double>(group) * queries_per_call * 1e3 / ms);
  }
  return Median(std::move(rates));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string HostFingerprintJson(const RunConfig& config) {
  const gbda::KernelImpl impl = gbda::ResolveKernels(gbda::KernelDispatch::kAuto);
  std::ostringstream os;
  os << "{\"nproc\": " << AffinityCpus()
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << JsonEscape(CpuModel()) << "\""
     << ", \"cpu_avx2\": " << (gbda::CpuSupportsAvx2() ? "true" : "false")
     << ", \"kernel_impl\": \"" << gbda::KernelImplName(impl) << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"compiler\": \"" << JsonEscape(PERFBENCH_COMPILER) << "\""
     << ", \"source_id\": \"" << JsonEscape(config.source_id) << "\"}";
  return os.str();
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string SpanTableJson(const std::map<std::string, SpanStats>& spans) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, st] : spans) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"spans\": " << st.spans
       << ", \"ops\": " << st.ops
       << ", \"p50_us\": " << Num(Quantile(st.dur_us, 0.5))
       << ", \"p99_us\": " << Num(Quantile(st.dur_us, 0.99))
       << ", \"total_us\": " << Num(st.total_us)
       << ", \"self_us\": " << Num(st.self_us) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

void LayerMetricsFromSpans(const std::map<std::string, SpanStats>& spans,
                           Report* report) {
  auto find = [&](const char* name) -> const SpanStats* {
    auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  // (metric, span, quantile or -1 for per-op mean, divisor to the unit)
  struct Rule {
    const char* metric;
    const char* span;
    double q;
    double div;
    const char* unit;
  };
  static const Rule kRules[] = {
      {"net.client_roundtrip_us.p50", "net.request", 0.5, 1, "us"},
      {"net.client_roundtrip_us.p99", "net.request", 0.99, 1, "us"},
      {"core.prepare_scan_us", "core.PrepareScan", 0.5, 1, "us"},
      {"core.scan_range_ms", "core.ScanRange", 0.5, 1e3, "ms"},
      {"core.gbd_merge_us", "core.GbdFromBranches", -1, 1, "us"},
      {"core.posterior_phi_us", "core.PosteriorEngine::Phi", -1, 1, "us"},
      {"core.index_build_s", "core.GbdaIndex::Build", 0.5, 1e6, "s"},
      {"core.index_add_ms", "core.GbdaIndex::AddGraph", 0.5, 1e3, "ms"},
      {"core.gbd_refit_ms", "core.GbdaIndex::RefitGbdPrior", 0.5, 1e3, "ms"},
      {"common.kernel_intersect_us", "common.ScanKernels::intersect_count", -1,
       1, "us"},
      {"common.pool_dispatch_us", "common.ThreadPool::Submit", 0.5, 1, "us"},
      {"storage.write_arena_s", "storage.WriteArenaFile", 0.5, 1e6, "s"},
      {"storage.open_ms", "storage.GbdaIndexView::Open", 0.5, 1e3, "ms"},
      {"ann.build_s", "ann.BuildProximityGraph", 0.5, 1e6, "s"},
      {"ann.navigate_us", "ann.NavigateProximityGraph", 0.5, 1, "us"},
      {"ann.verify_us", "core.ScanCandidateList", 0.5, 1, "us"},
  };
  for (const Rule& r : kRules) {
    const SpanStats* st = find(r.span);
    if (st == nullptr) continue;
    const double us = r.q < 0 ? st->PerOpMicros() : Quantile(st->dur_us, r.q);
    report->Layer(r.metric, us / r.div, r.unit);
  }

  // Codec cost per wire request: encode + decode spans over request spans.
  const SpanStats* req = find("net.request");
  if (req != nullptr && req->spans > 0) {
    double codec_us = 0.0;
    for (const char* name : {"net.EncodeTopKRequest", "net.DecodeTopKResponse"}) {
      if (const SpanStats* st = find(name)) codec_us += st->total_us;
    }
    report->Layer("net.codec_us", codec_us / static_cast<double>(req->spans),
                  "us");
  }

  // Service batch wall: every batch call the load made, both kinds.
  std::vector<double> batch_us;
  for (const char* name : {"service.QueryBatch", "service.QueryTopKBatch"}) {
    if (const SpanStats* st = find(name)) {
      batch_us.insert(batch_us.end(), st->dur_us.begin(), st->dur_us.end());
    }
  }
  if (!batch_us.empty()) {
    double sum = 0.0;
    for (double v : batch_us) sum += v;
    report->Layer("service.batch_wall_ms",
                  sum / static_cast<double>(batch_us.size()) / 1e3, "ms");
  }

  // Commit latency: in-process AddGraphs and RemoveGraphs calls.
  std::vector<double> commit_us;
  for (const char* name : {"service.AddGraphs", "service.RemoveGraphs"}) {
    if (const SpanStats* st = find(name)) {
      commit_us.insert(commit_us.end(), st->dur_us.begin(), st->dur_us.end());
    }
  }
  if (!commit_us.empty()) {
    report->Layer("service.commit_ms.p50", Quantile(commit_us, 0.5) / 1e3, "ms");
    report->Layer("service.commit_ms.p99", Quantile(commit_us, 0.99) / 1e3,
                  "ms");
  }
}

}  // namespace perfbench
