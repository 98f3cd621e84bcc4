// approx-topk: approximate top-k, where proximity-graph navigation replaces
// the scan.
//
// Setup: AASD at scale 0.05 (about 1 900 graphs) is indexed and served by a
// GbdaService (pool 4) that adopts a proximity graph built at setup. Load:
// a closed loop of QueryTopKBatch calls (16 queries, k=10, approximate,
// window 64) over 512 seeded 1-5 edit perturbations of corpus graphs.
// Gate: every returned (phi, gbd) equals the exhaustive serial oracle's,
// and recall@10 reaches the floor.

#include <algorithm>
#include <memory>

#include "ann/proximity_graph.h"
#include "core/gbda_search.h"
#include "gates.h"
#include "probes.h"
#include "service/gbda_service.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

using gbda::Graph;
using gbda::Result;
using gbda::SearchMatch;
using gbda::SearchResult;
using gbda::Status;

namespace {

constexpr size_t kBatch = 16;
constexpr size_t kTopK = 10;
constexpr size_t kQueries = 512;
constexpr double kRecallFloor = 0.95;

gbda::SearchOptions ReadOptions() {
  gbda::SearchOptions o;
  o.tau_hat = 5;
  o.approximate = true;
  o.search_window_size = 64;
  return o;
}

struct Served {
  std::unique_ptr<gbda::GbdaIndex> index;
  std::unique_ptr<gbda::GbdaService> service;
  std::unique_ptr<gbda::FingerprintStore> store;
  std::unique_ptr<gbda::ProximityGraph> graph;
};

Result<Served> SetUp(const gbda::GeneratedDataset& data) {
  Span root("setup");
  Served s;
  Result<gbda::GbdaIndex> built = TimedBuild(data.db, IndexOptionsFor(data.profile));
  if (!built.ok()) return built.status();
  s.index = std::make_unique<gbda::GbdaIndex>(std::move(*built));
  gbda::ServiceOptions options;
  options.num_threads = 4;
  {
    Span span("service.GbdaService::Create");
    Result<std::unique_ptr<gbda::GbdaService>> service =
        gbda::GbdaService::Create(&data.db, s.index.get(), options);
    if (!service.ok()) return service.status();
    s.service = std::move(*service);
  }
  {
    Span span("ann.FingerprintStore::FromIndex");
    s.store = std::make_unique<gbda::FingerprintStore>(
        gbda::FingerprintStore::FromIndex(*s.index));
  }
  {
    Span span("ann.BuildProximityGraph");
    Result<gbda::ProximityGraph> graph =
        gbda::BuildProximityGraph(*s.store, options.ann_build);
    if (!graph.ok()) return graph.status();
    s.graph = std::make_unique<gbda::ProximityGraph>(std::move(*graph));
  }
  Span span("service.GbdaService::AdoptAnnGraph");
  GBDA_RETURN_IF_ERROR(s.service->AdoptAnnGraph(s.graph->ref()));
  return s;
}

}  // namespace

Status RunApproxTopK(const RunConfig& config, Report* report) {
  Result<gbda::GeneratedDataset> data = MakeDataset("aasd", 0.05);
  if (!data.ok()) return data.status();
  std::vector<const Graph*> bases;
  for (size_t i = 0; i < data->db.size(); ++i) bases.push_back(&data->db.graph(i));
  Result<std::vector<Graph>> queries =
      PerturbedQueries(bases, kQueries, data->profile, config.seed ^ 0x414E4EULL);
  if (!queries.ok()) return queries.status();
  const bool traced = Tracer::enabled();

  std::vector<double> setup_s;
  Served served;
  while (MoreSetups(setup_s)) {
    served = Served();
    const auto t = Clock::now();
    Result<Served> s = SetUp(*data);
    if (!s.ok()) return s.status();
    setup_s.push_back(SecondsSince(t));
    served = std::move(*s);
  }
  gbda::GbdaService* service = served.service.get();

  std::vector<std::unique_ptr<std::vector<SearchMatch>>> first(kQueries);
  auto run_call = [&](const std::vector<size_t>& ids, double* wall_ms) -> Status {
    std::vector<Graph> batch;
    for (size_t id : ids) batch.push_back((*queries)[id]);
    const auto t = Clock::now();
    Result<std::vector<SearchResult>> r = [&] {
      Span span("service.QueryTopKBatch", kBatch);
      return service->QueryTopKBatch(batch, kTopK, ReadOptions());
    }();
    *wall_ms = SecondsSince(t) * 1e3;
    if (!r.ok()) return r.status();
    for (size_t i = 0; i < ids.size(); ++i) {
      std::unique_ptr<std::vector<SearchMatch>>& slot = first[ids[i]];
      if (!slot) {
        slot = std::make_unique<std::vector<SearchMatch>>((*r)[i].matches);
      } else {
        GBDA_RETURN_IF_ERROR(SameMatches(*slot, (*r)[i].matches,
                                         "repeat of query " + std::to_string(ids[i])));
      }
    }
    return Status::OK();
  };

  // Warm-up pass over every query.
  for (size_t b = 0; b < kQueries; b += kBatch) {
    std::vector<size_t> ids;
    for (size_t i = b; i < std::min(kQueries, b + kBatch); ++i) ids.push_back(i);
    double ms = 0.0;
    GBDA_RETURN_IF_ERROR(run_call(ids, &ms));
  }

  const std::vector<size_t> order = SeededOrder(kQueries, kBatch * 65536, config.seed);
  std::vector<double> call_ms, traced_rates, untraced_rates;
  size_t pos = 0;
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < config.seconds && pos + kBatch <= order.size()) {
    const size_t call = call_ms.size();
    if (traced) Tracer::SetEnabled((call / 8) % 2 == 0);
    std::vector<size_t> ids(order.begin() + pos, order.begin() + pos + kBatch);
    pos += kBatch;
    double ms = 0.0;
    GBDA_RETURN_IF_ERROR(run_call(ids, &ms));
    call_ms.push_back(ms);
    if (traced) ((call / 8) % 2 == 0 ? traced_rates : untraced_rates).push_back(1e3 / ms);
  }
  const double wall = SecondsSince(t0);
  if (traced) Tracer::SetEnabled(true);
  const double peak_rss = PeakRssMb();

  // Gate: exact scores and the recall floor against the full exhaustive
  // ranking of every query (serial GbdaSearch, k = corpus size).
  gbda::GbdaSearch oracle(&data->db, served.index.get());
  gbda::SearchOptions exhaustive = ReadOptions();
  exhaustive.approximate = false;
  std::vector<std::vector<SearchMatch>> approx, full;
  for (size_t q = 0; q < kQueries; ++q) {
    Result<SearchResult> ranking =
        oracle.QueryTopK((*queries)[q], data->db.size(), exhaustive);
    if (!ranking.ok()) return ranking.status();
    full.push_back(std::move(ranking->matches));
    approx.push_back(*first[q]);
  }
  double recall = 0.0;
  GBDA_RETURN_IF_ERROR(GateApprox(approx, full, kTopK, kRecallFloor, &recall));

  const size_t calls = call_ms.size();
  double call_total = 0.0;
  for (double v : call_ms) call_total += v;
  report->attempted = calls;
  report->failed = 0;
  report->E2E("setup_s", Median(setup_s), "s");
  report->E2E("peak_rss_mb", peak_rss, "MiB");
  report->E2E("read_p50_ms", Quantile(call_ms, 0.5), "ms");
  report->Extra("read_p90_ms", Quantile(call_ms, 0.90), "ms");
  report->Extra("read_p99_ms", Quantile(call_ms, 0.99), "ms");
  report->E2E("throughput_qps", MedianGroupRate(call_ms, 64, kBatch), "1/s");
  report->Extra("throughput_qps.whole_run", static_cast<double>(kBatch * calls) / wall,
                "1/s");
  report->Extra("topk_qps", static_cast<double>(kBatch * calls) * 1e3 / call_total, "1/s");
  report->Extra("recall_at_10", recall, "ratio");
  report->Extra("recall_floor", kRecallFloor, "ratio");
  report->Extra("error_rate", 0.0, "ratio");
  report->Extra("calls", static_cast<double>(calls), "count");
  report->notes["gates"] = "exact (phi, gbd) vs exhaustive oracle, recall floor: passed";
  if (!traced) return Status::OK();

  // ---- Traced run: layer probes. -----------------------------------------
  report->Layer("obs.trace_overhead_pct",
                TraceOverheadPct(traced_rates, untraced_rates), "%");
  ReportOfflineCosts(served.index->costs(), report);
  ProbePool(service->num_threads());
  const std::vector<Graph> probe_queries(queries->begin(), queries->begin() + kBatch);
  const gbda::Prefilter prefilter(&data->db);
  Result<double> single_ms =
      ProbeCore(*served.index, gbda::CorpusRef(&data->db), &prefilter, probe_queries,
                exhaustive, false, kTopK, report);
  if (!single_ms.ok()) return single_ms.status();
  GBDA_RETURN_IF_ERROR(ProbeParallelEfficiency(
      *single_ms, service->num_threads(),
      [&]() -> Result<double> {
        const auto t = Clock::now();
        Result<std::vector<SearchResult>> r =
            service->QueryTopKBatch(probe_queries, kTopK, exhaustive);
        if (!r.ok()) return r.status();
        return SecondsSince(t) * 1e3;
      },
      report));
  const gbda::ProximityGraphRef graph = served.graph->ref();
  GBDA_RETURN_IF_ERROR(ProbeAnn(*served.index, gbda::CorpusRef(&data->db), &graph,
                                served.store.get(), probe_queries, ReadOptions(),
                                kTopK, report));
  GBDA_RETURN_IF_ERROR(ProbeNet(service, probe_queries, ReadOptions(), kTopK, 200,
                                report));
  GBDA_RETURN_IF_ERROR(ProbeStorage(*served.index,
                                    config.out_dir + "/approx-topk.arena", report));
  Result<std::unique_ptr<gbda::DynamicGbdaService>> dyn = SmallDynamicService(*data, 300);
  if (!dyn.ok()) return dyn.status();
  GBDA_RETURN_IF_ERROR(ProbeCommits(dyn->get(), *queries, 20, report));
  return ProbeIndexMutation(served.index.get(), probe_queries);
}

}  // namespace perfbench
