// batch-large: offline batch search over a large frozen corpus.
//
// Setup: AASD at scale 1.0 (37 995 graphs) is indexed, written as a v3
// arena and served zero-copy through GbdaIndexView by a GbdaService
// (pool 4). Load: one client thread runs a closed loop whose step is a
// QueryBatch of 16 threshold queries (tau=5, gamma=0.9) followed by a
// QueryTopKBatch of the next 16 (k=10). Queries are the profile's 100
// certified queries in a seeded order; a warm-up pass over all of them runs
// before the clock starts. Gate: every result equals serial GbdaSearch.

#include <algorithm>
#include <memory>

#include "core/gbda_search.h"
#include "gates.h"
#include "probes.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

using gbda::Graph;
using gbda::Result;
using gbda::SearchResult;
using gbda::Status;

namespace {

constexpr size_t kBatch = 16;
constexpr size_t kTopK = 10;

gbda::SearchOptions ReadOptions() {
  gbda::SearchOptions o;
  o.tau_hat = 5;
  o.gamma = 0.9;
  return o;
}

struct Served {
  std::unique_ptr<gbda::GbdaIndex> built;  // kept for traced probes only
  std::unique_ptr<gbda::GbdaIndexView> view;
  std::unique_ptr<gbda::GbdaService> service;
};

Result<Served> SetUp(const gbda::GeneratedDataset& data, const std::string& path,
                     bool keep_built) {
  Span root("setup");
  Result<gbda::GbdaIndex> built = TimedBuild(data.db, IndexOptionsFor(data.profile));
  if (!built.ok()) return built.status();
  {
    Span span("storage.WriteArenaFile");
    GBDA_RETURN_IF_ERROR(gbda::WriteArenaFile(*built, path));
  }
  Served s;
  if (keep_built) s.built = std::make_unique<gbda::GbdaIndex>(std::move(*built));
  {
    Span span("storage.GbdaIndexView::Open");
    Result<gbda::GbdaIndexView> view = gbda::GbdaIndexView::Open(path);
    if (!view.ok()) return view.status();
    s.view = std::make_unique<gbda::GbdaIndexView>(std::move(*view));
  }
  gbda::ServiceOptions options;
  options.num_threads = 4;
  Span span("service.GbdaService::Create");
  Result<std::unique_ptr<gbda::GbdaService>> service =
      gbda::GbdaService::Create(&data.db, s.view.get(), options);
  if (!service.ok()) return service.status();
  s.service = std::move(*service);
  return s;
}

/// Per (query, mode) the first answer the service gave; later answers must
/// repeat it exactly, and it must equal the serial oracle.
struct AnswerBook {
  std::vector<std::unique_ptr<SearchResult>> first;  // [2 * query + mode]

  Status Check(size_t query, int mode, const SearchResult& r) {
    std::unique_ptr<SearchResult>& slot = first[2 * query + mode];
    if (!slot) {
      slot = std::make_unique<SearchResult>(r);
      return Status::OK();
    }
    return SameResult(*slot, r,
                      "repeat of query " + std::to_string(query));
  }
};

}  // namespace

Status RunBatchLarge(const RunConfig& config, Report* report) {
  Result<gbda::GeneratedDataset> data = MakeDataset("aasd", 1.0);
  if (!data.ok()) return data.status();
  const size_t nq = data->queries.size();
  const bool traced = Tracer::enabled();
  const std::string arena = config.out_dir + "/batch-large.arena";

  std::vector<double> setup_s;
  Served served;
  while (MoreSetups(setup_s)) {
    served = Served();
    const auto t = Clock::now();
    Result<Served> s = SetUp(*data, arena, traced);
    if (!s.ok()) return s.status();
    setup_s.push_back(SecondsSince(t));
    served = std::move(*s);
  }
  gbda::GbdaService* service = served.service.get();

  AnswerBook book;
  book.first.resize(2 * nq);
  auto run_call = [&](const std::vector<size_t>& ids, int mode,
                      double* wall_ms) -> Status {
    std::vector<Graph> batch;
    for (size_t id : ids) batch.push_back(data->queries[id]);
    const auto t = Clock::now();
    Result<std::vector<SearchResult>> r = [&] {
      if (mode == 0) {
        Span span("service.QueryBatch", kBatch);
        return service->QueryBatch(batch, ReadOptions());
      }
      Span span("service.QueryTopKBatch", kBatch);
      return service->QueryTopKBatch(batch, kTopK, ReadOptions());
    }();
    *wall_ms = SecondsSince(t) * 1e3;
    if (!r.ok()) return r.status();
    for (size_t i = 0; i < ids.size(); ++i) {
      GBDA_RETURN_IF_ERROR(book.Check(ids[i], mode, (*r)[i]));
    }
    return Status::OK();
  };

  // Warm-up: every query once in each mode (fills the posterior memo and
  // the prefilter, and records the first answers).
  for (size_t b = 0; b < nq; b += kBatch) {
    std::vector<size_t> ids;
    for (size_t i = b; i < std::min(nq, b + kBatch); ++i) ids.push_back(i);
    double ms = 0.0;
    GBDA_RETURN_IF_ERROR(run_call(ids, 0, &ms));
    GBDA_RETURN_IF_ERROR(run_call(ids, 1, &ms));
  }

  // Closed loop. Traced runs alternate tracing in pairs of steps.
  const std::vector<size_t> order = SeededOrder(nq, 2 * kBatch * 4096, config.seed);
  std::vector<double> step_ms, thr_ms, topk_ms, traced_steps, untraced_steps;
  size_t pos = 0;
  const auto t0 = Clock::now();
  while (SecondsSince(t0) < config.seconds && pos + 2 * kBatch <= order.size()) {
    const size_t step = step_ms.size();
    if (traced) Tracer::SetEnabled((step / 2) % 2 == 0);
    std::vector<size_t> a(order.begin() + pos, order.begin() + pos + kBatch);
    std::vector<size_t> b(order.begin() + pos + kBatch,
                          order.begin() + pos + 2 * kBatch);
    pos += 2 * kBatch;
    double ta = 0.0, tb = 0.0;
    const auto ts = Clock::now();
    {
      Span span("load.step", 0, step + 1);
      GBDA_RETURN_IF_ERROR(run_call(a, 0, &ta));
      GBDA_RETURN_IF_ERROR(run_call(b, 1, &tb));
    }
    const double ms = SecondsSince(ts) * 1e3;
    step_ms.push_back(ms);
    thr_ms.push_back(ta);
    topk_ms.push_back(tb);
    if (traced) ((step / 2) % 2 == 0 ? traced_steps : untraced_steps).push_back(1e3 / ms);
  }
  const double wall = SecondsSince(t0);
  if (traced) Tracer::SetEnabled(true);
  const double peak_rss = PeakRssMb();

  // Gate: the first answer of every (query, mode) equals serial GbdaSearch.
  gbda::GbdaSearch oracle(&data->db, served.view.get());
  std::vector<std::vector<gbda::SearchMatch>> answers(nq);
  std::vector<std::vector<size_t>> truth(nq);
  for (size_t q = 0; q < nq; ++q) {
    Result<SearchResult> thr = oracle.Query(data->queries[q], ReadOptions());
    if (!thr.ok()) return thr.status();
    GBDA_RETURN_IF_ERROR(SameResult(*thr, *book.first[2 * q],
                                    "threshold query " + std::to_string(q)));
    Result<SearchResult> top = oracle.QueryTopK(data->queries[q], kTopK, ReadOptions());
    if (!top.ok()) return top.status();
    GBDA_RETURN_IF_ERROR(SameResult(*top, *book.first[2 * q + 1],
                                    "top-k query " + std::to_string(q)));
    answers[q] = thr->matches;
    truth[q] = data->TrueMatches(q, ReadOptions().tau_hat);
  }

  const size_t steps = step_ms.size();
  double thr_total = 0.0, topk_total = 0.0;
  for (double v : thr_ms) thr_total += v;
  for (double v : topk_ms) topk_total += v;
  report->attempted = 2 * steps;
  report->failed = 0;
  report->E2E("setup_s", Median(setup_s), "s");
  report->E2E("peak_rss_mb", peak_rss, "MiB");
  report->E2E("read_p50_ms", Quantile(step_ms, 0.5), "ms");
  report->Extra("read_p90_ms", Quantile(step_ms, 0.90), "ms");
  report->Extra("read_p99_ms", Quantile(step_ms, 0.99), "ms");
  report->E2E("throughput_qps", MedianGroupRate(step_ms, 4, 2 * kBatch), "1/s");
  report->Extra("throughput_qps.whole_run",
                static_cast<double>(2 * kBatch * steps) / wall, "1/s");
  report->Extra("threshold_qps", static_cast<double>(kBatch * steps) * 1e3 / thr_total, "1/s");
  report->Extra("topk_qps", static_cast<double>(kBatch * steps) * 1e3 / topk_total, "1/s");
  report->Extra("answer_f1", AnswerF1(answers, truth), "ratio");
  report->Extra("error_rate", 0.0, "ratio");
  report->Extra("steps", static_cast<double>(steps), "count");
  report->notes["gates"] = "every result == serial GbdaSearch: passed";
  if (!traced) return Status::OK();

  // ---- Traced run: layer probes. -----------------------------------------
  report->Layer("obs.trace_overhead_pct",
                TraceOverheadPct(traced_steps, untraced_steps), "%");
  report->Layer("storage.arena_bytes", static_cast<double>(served.view->file_bytes()),
                "bytes");
  ReportOfflineCosts(served.built->costs(), report);
  ProbePool(service->num_threads());
  std::vector<Graph> probe_queries(data->queries.begin(),
                                   data->queries.begin() + std::min(kBatch, nq));
  Result<double> single_ms =
      ProbeCore(*served.view, gbda::CorpusRef(&data->db), nullptr, probe_queries,
                ReadOptions(), true, kTopK, report);
  if (!single_ms.ok()) return single_ms.status();
  GBDA_RETURN_IF_ERROR(ProbeParallelEfficiency(
      *single_ms, service->num_threads(),
      [&]() -> Result<double> {
        const auto t = Clock::now();
        Result<std::vector<SearchResult>> r =
            service->QueryTopKBatch(probe_queries, kTopK, ReadOptions());
        if (!r.ok()) return r.status();
        r = service->QueryBatch(probe_queries, ReadOptions());
        if (!r.ok()) return r.status();
        return SecondsSince(t) * 1e3;
      },
      report));
  GBDA_RETURN_IF_ERROR(ProbeNet(service, probe_queries, ReadOptions(), kTopK, 100,
                                report));
  // Navigation is probed on a 500-graph slice: building the proximity graph
  // over the whole corpus takes minutes.
  gbda::GraphDatabase slice;
  slice.vertex_labels() = data->db.vertex_labels();
  slice.edge_labels() = data->db.edge_labels();
  for (size_t i = 0; i < 500; ++i) slice.Add(data->db.graph(i * (data->db.size() / 500)));
  Result<gbda::GbdaIndex> slice_index =
      gbda::GbdaIndex::Build(slice, IndexOptionsFor(data->profile));
  if (!slice_index.ok()) return slice_index.status();
  GBDA_RETURN_IF_ERROR(ProbeAnn(*slice_index, gbda::CorpusRef(&slice), nullptr,
                                nullptr, probe_queries, ReadOptions(), kTopK, report));
  Result<std::unique_ptr<gbda::DynamicGbdaService>> dyn = SmallDynamicService(*data, 300);
  if (!dyn.ok()) return dyn.status();
  GBDA_RETURN_IF_ERROR(ProbeCommits(dyn->get(), data->queries, 20, report));
  return ProbeIndexMutation(served.built.get(), probe_queries);
}

}  // namespace perfbench
