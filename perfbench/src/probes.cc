#include "probes.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "ann/navigator.h"
#include "common/kernels.h"
#include "common/thread_pool.h"
#include "core/branch.h"
#include "core/posterior.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"
#include "trace.h"

namespace perfbench {

using gbda::Graph;
using gbda::Result;
using gbda::SearchOptions;
using gbda::SearchResult;
using gbda::Status;

gbda::GbdaIndexOptions IndexOptionsFor(const gbda::DatasetProfile& profile) {
  gbda::GbdaIndexOptions o;
  o.tau_max = 10;
  o.gbd_prior.num_sample_pairs = 2000;
  o.model_vertex_labels = static_cast<int64_t>(profile.num_vertex_labels);
  o.model_edge_labels = static_cast<int64_t>(profile.num_edge_labels);
  return o;
}

Result<gbda::GbdaIndex> TimedBuild(const gbda::GraphDatabase& db,
                                   const gbda::GbdaIndexOptions& options) {
  Span span("core.GbdaIndex::Build");
  return gbda::GbdaIndex::Build(db, options);
}

void ReportOfflineCosts(const gbda::OfflineCosts& costs, Report* report) {
  report->Layer("core.branch_s", costs.branch_seconds, "s");
  report->Layer("core.gbd_prior_s", costs.gbd_prior_seconds, "s");
  report->Layer("core.ged_prior_s", costs.ged_prior_seconds, "s");
}

void ProbePool(size_t threads) {
  gbda::ThreadPool pool(std::max<size_t>(1, threads));
  Span root("probe.common");
  for (int i = 0; i < 1000; ++i) {
    Span span("common.ThreadPool::Submit");
    pool.Submit([] {}).get();
  }
}

namespace {

gbda::PosteriorEngine FreshEngine(const gbda::IndexReader& index) {
  return gbda::PosteriorEngine(index.num_vertex_labels(),
                               index.num_edge_labels(), index.tau_max(),
                               index.mutable_ged_prior(), &index.gbd_prior());
}

}  // namespace

Result<double> ProbeCore(const gbda::IndexReader& index,
                         const gbda::CorpusRef& corpus,
                         const gbda::Prefilter* prefilter,
                         const std::vector<Graph>& queries,
                         const SearchOptions& options, bool with_threshold,
                         size_t k, Report* report) {
  Span root("probe.core");
  const size_t n = index.num_graphs();
  gbda::PosteriorEngine engine = FreshEngine(index);
  // One top-k scan per query, then (with_threshold) one threshold scan per
  // query: contexts[i] is a threshold scan iff i >= queries.size().
  std::vector<gbda::ScanContext> contexts;
  for (int mode = 0; mode < (with_threshold ? 2 : 1); ++mode) {
    for (const Graph& q : queries) {
      Result<gbda::ScanContext> ctx = [&] {
        Span span("core.PrepareScan");
        return gbda::PrepareScan(q, options, /*apply_gamma=*/mode == 1, corpus,
                                 index);
      }();
      if (!ctx.ok()) return ctx.status();
      contexts.push_back(std::move(*ctx));
    }
  }
  // Two passes on one engine, as a serving worker sees it: the first fills
  // the posterior memo (span core.ScanRange.cold), the second is the steady
  // state the per-layer figures and the parallel-efficiency base use.
  double scan_ms = 0.0;
  uint64_t evaluated = 0, pruned = 0, hits = 0, misses = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const size_t hits0 = engine.memo_hits(), misses0 = engine.memo_misses();
    for (size_t i = 0; i < contexts.size(); ++i) {
      const bool threshold = i >= queries.size();
      SearchResult result;
      gbda::ScanBounds bounds(k);
      const int64_t t0 = NowNanos();
      {
        Span span(pass == 0 ? "core.ScanRange.cold" : "core.ScanRange");
        GBDA_RETURN_IF_ERROR(gbda::ScanRange(contexts[i], index, prefilter, 0, n,
                                             &engine, &result,
                                             threshold ? nullptr : &bounds));
      }
      if (pass == 1) {
        scan_ms += static_cast<double>(NowNanos() - t0) / 1e6;
        evaluated += result.candidates_evaluated;
        pruned += result.pruned_by_bound;
      }
    }
    hits = engine.memo_hits() - hits0;
    misses = engine.memo_misses() - misses0;
  }
  report->Layer("core.candidates_evaluated", static_cast<double>(evaluated),
                "count");
  report->Layer("core.pruned_by_bound", static_cast<double>(pruned), "count");
  report->Layer("core.prune_ratio",
                evaluated == 0 ? 0.0
                               : static_cast<double>(pruned) /
                                     static_cast<double>(evaluated),
                "ratio");
  report->Layer("core.posterior_memo_hit_ratio",
                hits + misses == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses),
                "ratio");

  // Blocks of single-layer calls over a fixed candidate sample.
  const size_t sample = std::min<size_t>(n, 512);
  const size_t stride = std::max<size_t>(1, n / sample);
  const gbda::ScanKernels& kernels =
      gbda::GetScanKernels(gbda::ResolveKernels(options.kernel_dispatch));
  report->notes["kernel_impl"] = kernels.name;
  const gbda::CandidateColumns cols = index.columns();
  gbda::PosteriorEngine cold = FreshEngine(index);
  volatile int64_t sink = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const gbda::ScanContext& ctx = contexts[q];
    {
      Span span("core.GbdFromBranches", sample);
      for (size_t i = 0; i < sample; ++i) {
        sink = sink + static_cast<int64_t>(gbda::GbdFromBranches(
                          ctx.query_ref, index.branch_set((i * stride) % n)));
      }
    }
    if (cols.fp_keys != nullptr && !ctx.query_fps.empty()) {
      Span span("common.ScanKernels::intersect_count", sample * 16);
      for (int rep = 0; rep < 16; ++rep) {
        for (size_t i = 0; i < sample; ++i) {
          const size_t g = (i * stride) % n;
          const uint64_t b = cols.fp_offsets[g];
          sink = sink + kernels.intersect_count(
                            ctx.query_fps.data(), ctx.query_fps.size(),
                            cols.fp_keys + b,
                            static_cast<size_t>(cols.fp_offsets[g + 1] - b));
        }
      }
    }
    // Posterior on a cold engine: each distinct extended size builds its
    // Lambda1 calculator once, repeats hit the memo.
    const int64_t qv = static_cast<int64_t>(ctx.query_ref.size());
    Span span("core.PosteriorEngine::Phi", sample);
    for (size_t i = 0; i < sample; ++i) {
      const gbda::BranchSetRef c = index.branch_set((i * stride) % n);
      const int64_t v = std::max<int64_t>(qv, static_cast<int64_t>(c.size()));
      const int64_t gbd =
          static_cast<int64_t>(gbda::GbdFromBranches(ctx.query_ref, c));
      Result<double> phi = cold.Phi(v, gbd, options.tau_hat);
      if (!phi.ok()) return phi.status();
    }
  }
  return scan_ms;
}

Status ProbeParallelEfficiency(double single_thread_ms, size_t threads,
                               const std::function<Result<double>()>& run_batch,
                               Report* report) {
  std::vector<double> walls;
  for (int i = 0; i < 3; ++i) {
    Result<double> wall = run_batch();
    if (!wall.ok()) return wall.status();
    walls.push_back(*wall);
  }
  const double wall_ms = Median(walls);
  report->Layer("service.parallel_efficiency",
                single_thread_ms / (static_cast<double>(threads) * wall_ms),
                "ratio");
  return Status::OK();
}

Status ProbeStorage(const gbda::IndexReader& index, const std::string& path,
                    Report* report) {
  Span root("probe.storage");
  {
    Span span("storage.WriteArenaFile");
    GBDA_RETURN_IF_ERROR(gbda::WriteArenaFile(index, path));
  }
  size_t bytes = 0;
  for (int i = 0; i < 3; ++i) {
    Span span("storage.GbdaIndexView::Open");
    Result<gbda::GbdaIndexView> view = gbda::GbdaIndexView::Open(path);
    if (!view.ok()) return view.status();
    bytes = view->file_bytes();
  }
  report->Layer("storage.arena_bytes", static_cast<double>(bytes), "bytes");
  return Status::OK();
}

Status ProbeAnn(const gbda::IndexReader& index, const gbda::CorpusRef& corpus,
                const gbda::ProximityGraphRef* graph,
                const gbda::FingerprintStore* store,
                const std::vector<Graph>& queries, const SearchOptions& options,
                size_t k, Report* report) {
  Span root("probe.ann");
  gbda::FingerprintStore own_store;
  gbda::ProximityGraph own_graph;
  if (graph == nullptr) {
    own_store = gbda::FingerprintStore::FromIndex(index);
    Result<gbda::ProximityGraph> built = [&] {
      Span span("ann.BuildProximityGraph");
      return gbda::BuildProximityGraph(own_store, gbda::AnnBuildParams());
    }();
    if (!built.ok()) return built.status();
    own_graph = std::move(*built);
    store = &own_store;
  }
  const gbda::ProximityGraphRef ref = graph != nullptr ? *graph : own_graph.ref();
  gbda::PosteriorEngine engine = FreshEngine(index);
  uint64_t visited_sum = 0, verified = 0, returned = 0;
  for (const Graph& q : queries) {
    Result<gbda::ScanContext> ctx =
        gbda::PrepareScan(q, options, /*apply_gamma=*/false, corpus, index);
    if (!ctx.ok()) return ctx.status();
    const size_t window = std::max(options.search_window_size, k);
    std::vector<uint32_t> visited;
    {
      Span span("ann.NavigateProximityGraph");
      visited = gbda::NavigateProximityGraph(
          ref, *store,
          gbda::Span<const uint64_t>(ctx->query_profile.branch_keys.data(),
                                     ctx->query_profile.branch_keys.size()),
          window);
    }
    SearchResult result;
    gbda::ScanBounds bounds(k);
    {
      Span span("core.ScanCandidateList", visited.size());
      GBDA_RETURN_IF_ERROR(gbda::ScanCandidateList(
          *ctx, index, nullptr, visited, &engine, &result,
          k < visited.size() ? &bounds : nullptr));
    }
    gbda::SortTopK(&result.matches, k);
    visited_sum += visited.size();
    verified += result.verified_count;
    returned += result.matches.size();
  }
  const double nq = static_cast<double>(std::max<size_t>(1, queries.size()));
  report->Layer("ann.nodes_visited", static_cast<double>(visited_sum) / nq,
                "count");
  report->Layer("ann.visited_fraction",
                static_cast<double>(visited_sum) /
                    (nq * static_cast<double>(std::max<size_t>(1, index.num_graphs()))),
                "ratio");
  report->Layer("ann.useful_ratio",
                verified == 0 ? 0.0
                              : static_cast<double>(returned) /
                                    static_cast<double>(verified),
                "ratio");
  return Status::OK();
}

void ReportServerStats(const gbda::net::WireServerStats& stats,
                       Report* report) {
  static const char* kStage[] = {"admission", "queue", "batch", "scan"};
  for (size_t s = 0; s < stats.stage_latency.size() && s < 4; ++s) {
    const gbda::net::WireStageStats& st = stats.stage_latency[s];
    const std::string base = std::string("net.server_") + kStage[s] + "_us";
    report->Layer(base + ".p50", static_cast<double>(st.p50_micros), "us");
    report->Layer(base + ".p99", static_cast<double>(st.p99_micros), "us");
    report->Layer(base + ".mean",
                  st.count == 0 ? 0.0
                                : static_cast<double>(st.sum_micros) /
                                      static_cast<double>(st.count),
                  "us");
  }
  uint64_t batched = 0, batches = 0;
  for (size_t i = 0; i < stats.batch_size_histogram.size(); ++i) {
    batched += (i + 1) * stats.batch_size_histogram[i];  // slot i: size i + 1
    batches += stats.batch_size_histogram[i];
  }
  report->Layer("net.mean_batch_size",
                batches == 0 ? 0.0
                             : static_cast<double>(batched) /
                                   static_cast<double>(batches),
                "count");
  report->Layer("net.rejected",
                static_cast<double>(stats.rejected_overloaded +
                                    stats.rejected_deadline +
                                    stats.rejected_invalid),
                "count");
}

namespace {

/// One probe connection: requests first, first + stride, ... below
/// `requests`, closed loop. A refused request is counted by the server
/// (net.rejected) and the loop goes on.
Status NetConnection(uint16_t port, const std::vector<Graph>& queries,
                     const SearchOptions& options, size_t k, size_t first,
                     size_t stride, size_t requests, uint64_t root) {
  Result<gbda::net::GbdaClient> client =
      gbda::net::GbdaClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  for (size_t i = first; i < requests; i += stride) {
    Span req("net.request", root, i + 1);
    gbda::net::TopKRequest msg;
    msg.request_id = i;
    msg.k = k;
    msg.deadline_ms = 10000;
    msg.options = options;
    msg.query = queries[i % queries.size()];
    std::string bytes;
    {
      Span span("net.EncodeTopKRequest");
      bytes = gbda::net::EncodeTopKRequest(msg);
    }
    GBDA_RETURN_IF_ERROR(client->SendBytes(bytes));
    Result<gbda::net::Frame> frame = client->ReadFrame();
    if (!frame.ok()) return frame.status();
    Result<gbda::net::TopKResponse> resp = [&] {
      Span span("net.DecodeTopKResponse");
      return gbda::net::DecodeTopKResponse(frame->payload);
    }();
    if (!resp.ok()) return resp.status();
  }
  client->Close();
  return Status::OK();
}

}  // namespace

Status ProbeNet(gbda::GbdaService* service, const std::vector<Graph>& queries,
                const SearchOptions& options, size_t k, size_t requests,
                Report* report) {
  constexpr size_t kConnections = 3;
  Span root("probe.net");
  gbda::net::ServerConfig config;
  config.num_workers = 1;
  Result<std::unique_ptr<gbda::net::GbdaServer>> server =
      gbda::net::GbdaServer::Serve(service, config);
  if (!server.ok()) return server.status();
  const uint16_t port = (*server)->port();
  std::vector<Status> status(kConnections, Status::OK());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      status[c] = NetConnection(port, queries, options, k, c, kConnections,
                                requests, root.id());
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : status) GBDA_RETURN_IF_ERROR(s);
  Result<gbda::net::GbdaClient> client =
      gbda::net::GbdaClient::Connect("127.0.0.1", port);
  if (!client.ok()) return client.status();
  Result<gbda::net::StatsResponse> stats = [&] {
    Span span("net.GbdaClient::Stats");
    return client->Stats();
  }();
  if (!stats.ok()) return stats.status();
  ReportServerStats(stats->stats, report);
  client->Close();
  (*server)->Shutdown();
  return Status::OK();
}

Status ProbeCommits(gbda::DynamicGbdaService* service,
                    const std::vector<Graph>& pool, size_t commits,
                    Report* report) {
  Span root("probe.service");
  const gbda::DynamicServiceStats before = service->dynamic_stats();
  std::vector<size_t> added;
  size_t next = 0;
  for (size_t c = 0; c < commits; ++c) {
    if (c % 2 == 0 || added.empty()) {
      std::vector<Graph> batch;
      for (int j = 0; j < 2; ++j) batch.push_back(pool[next++ % pool.size()]);
      Span span("service.AddGraphs");
      Result<std::vector<size_t>> ids = service->AddGraphs(std::move(batch));
      if (!ids.ok()) return ids.status();
      added.insert(added.end(), ids->begin(), ids->end());
    } else {
      const size_t id = added.back();
      added.pop_back();
      Span span("service.RemoveGraphs");
      GBDA_RETURN_IF_ERROR(service->RemoveGraphs({id}));
    }
  }
  const gbda::DynamicServiceStats after = service->dynamic_stats();
  const uint64_t published = after.snapshots_published - before.snapshots_published;
  report->Layer("service.snapshot_rebuild_ms",
                published == 0 ? 0.0
                               : (after.total_rebuild_seconds -
                                  before.total_rebuild_seconds) *
                                     1e3 / static_cast<double>(published),
                "ms");
  report->Layer("service.gbd_refits",
                static_cast<double>(after.gbd_refits - before.gbd_refits),
                "count");
  return Status::OK();
}

Result<std::unique_ptr<gbda::DynamicGbdaService>> SmallDynamicService(
    const gbda::GeneratedDataset& data, size_t n) {
  gbda::GraphDatabase db;
  db.vertex_labels() = data.db.vertex_labels();
  db.edge_labels() = data.db.edge_labels();
  for (size_t i = 0; i < n && i < data.db.size(); ++i) db.Add(data.db.graph(i));
  gbda::DynamicServiceOptions options;
  options.service.num_threads = 2;
  return gbda::DynamicGbdaService::Create(std::move(db),
                                          IndexOptionsFor(data.profile), options);
}

Status ProbeIndexMutation(gbda::GbdaIndex* index,
                          const std::vector<Graph>& graphs) {
  Span root("probe.index");
  for (const Graph& g : graphs) {
    Span span("core.GbdaIndex::AddGraph");
    index->AddGraph(g);
  }
  for (int i = 0; i < 3; ++i) {
    Span span("core.GbdaIndex::RefitGbdPrior");
    GBDA_RETURN_IF_ERROR(index->RefitGbdPrior());
  }
  return Status::OK();
}

}  // namespace perfbench
