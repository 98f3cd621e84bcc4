#include "service/gbda_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"
#include "service/parallel_scan.h"

namespace gbda {

namespace {

uint64_t SecondsToNanos(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(seconds * 1e9));
}

void AppendCounterFamily(std::vector<obs::MetricFamily>* out, const std::string& name,
                         const std::string& help, const std::string& labels,
                         double value) {
  obs::MetricPoint point;
  point.labels = labels;
  point.value = value;
  out->push_back(obs::MetricFamily{name, help, obs::MetricType::kCounter, {std::move(point)}});
}

/// Folds one batch's results into the sharded counters (safe from any
/// thread, no locking). `wall_seconds` is the top-level call's wall time.
void AccumulateServiceStats(const std::vector<SearchResult>& results,
                            double wall_seconds, ServiceCounters* counters) {
  counters->queries_served.Add(results.size());
  for (const SearchResult& r : results) {
    counters->candidates_evaluated.Add(r.candidates_evaluated);
    counters->prefiltered_out.Add(r.prefiltered_out);
    counters->pruned_by_bound.Add(r.pruned_by_bound);
    counters->candidates_visited.Add(r.candidates_visited);
    counters->verified_count.Add(r.verified_count);
    counters->matches_returned.Add(r.matches.size());
    counters->latency_nanos.Add(SecondsToNanos(r.seconds));
    if (obs::TraceSampled()) {
      counters->scan_latency_micros.Record(SecondsToNanos(r.seconds) / 1000);
    }
  }
  counters->wall_nanos.Add(SecondsToNanos(wall_seconds));
}

/// The single result of a one-query batch.
Result<SearchResult> OnlyResult(Result<std::vector<SearchResult>> batch) {
  if (!batch.ok()) return batch.status();
  return std::move((*batch)[0]);
}

}  // namespace

ServiceStats ServiceCounters::Snapshot() const {
  ServiceStats stats;
  stats.queries_served = queries_served.Value();
  stats.batches_served = batches_served.Value();
  stats.candidates_evaluated = candidates_evaluated.Value();
  stats.prefiltered_out = prefiltered_out.Value();
  stats.pruned_by_bound = pruned_by_bound.Value();
  stats.candidates_visited = candidates_visited.Value();
  stats.verified_count = verified_count.Value();
  stats.matches_returned = matches_returned.Value();
  stats.total_latency_seconds = static_cast<double>(latency_nanos.Value()) * 1e-9;
  stats.total_wall_seconds = static_cast<double>(wall_nanos.Value()) * 1e-9;
  return stats;
}

void ServiceCounters::Reset() {
  queries_served.Reset();
  batches_served.Reset();
  candidates_evaluated.Reset();
  prefiltered_out.Reset();
  pruned_by_bound.Reset();
  candidates_visited.Reset();
  verified_count.Reset();
  matches_returned.Reset();
  latency_nanos.Reset();
  wall_nanos.Reset();
  scan_latency_micros.Reset();
}

void ServiceCounters::Collect(const std::string& labels,
                              std::vector<obs::MetricFamily>* out) const {
  AppendCounterFamily(out, "gbda_service_queries_total", "Queries served", labels,
                      static_cast<double>(queries_served.Value()));
  AppendCounterFamily(out, "gbda_service_batches_total", "Batch calls served", labels,
                      static_cast<double>(batches_served.Value()));
  AppendCounterFamily(out, "gbda_service_candidates_evaluated_total",
                      "Candidates scored by the posterior", labels,
                      static_cast<double>(candidates_evaluated.Value()));
  AppendCounterFamily(out, "gbda_service_prefiltered_out_total",
                      "Candidates rejected by the layered prefilter", labels,
                      static_cast<double>(prefiltered_out.Value()));
  AppendCounterFamily(out, "gbda_service_pruned_by_bound_total",
                      "Posterior evaluations skipped by top-k early termination",
                      labels, static_cast<double>(pruned_by_bound.Value()));
  AppendCounterFamily(out, "gbda_service_candidates_visited_total",
                      "Nodes visited by the approximate navigator", labels,
                      static_cast<double>(candidates_visited.Value()));
  AppendCounterFamily(out, "gbda_service_verified_total",
                      "Approximate candidates paying full verification", labels,
                      static_cast<double>(verified_count.Value()));
  AppendCounterFamily(out, "gbda_service_matches_returned_total", "Matches returned",
                      labels, static_cast<double>(matches_returned.Value()));
  AppendCounterFamily(out, "gbda_service_latency_seconds_total",
                      "Sum of per-query latencies", labels,
                      static_cast<double>(latency_nanos.Value()) * 1e-9);
  AppendCounterFamily(out, "gbda_service_wall_seconds_total",
                      "Sum of top-level call wall times", labels,
                      static_cast<double>(wall_nanos.Value()) * 1e-9);
  obs::MetricPoint scan_point;
  scan_point.labels = labels;
  scan_point.histogram = scan_latency_micros.Snapshot();
  out->push_back(obs::MetricFamily{
      "gbda_service_scan_latency_micros",
      "Per-query scan latency (microseconds), trace-sampled",
      obs::MetricType::kHistogram,
      {std::move(scan_point)}});
}

Result<std::unique_ptr<GbdaService>> GbdaService::Create(
    const GraphDatabase* db, const IndexReader* index,
    const ServiceOptions& options) {
  Status agree = ValidateIndexForDatabase(*db, *index);
  if (!agree.ok()) return agree;
  return std::make_unique<GbdaService>(db, index, options);
}

GbdaService::GbdaService(const ServiceOptions& options)
    : options_(options), pool_(options.num_threads) {}

GbdaService::GbdaService(const GraphDatabase* db, const IndexReader* index,
                         const ServiceOptions& options)
    : GbdaService(options) {
  // The frozen corpus as generation 0: borrowed database and index (a
  // non-owning shared_ptr), identity ids, prefilter left to the first
  // use_prefilter query.
  auto snap = std::make_shared<Snapshot>();
  snap->stable_ids.resize(index->num_graphs());
  std::iota(snap->stable_ids.begin(), snap->stable_ids.end(), size_t{0});
  snap->db = db;
  snap->index = std::shared_ptr<const IndexReader>(
      std::shared_ptr<const IndexReader>(), index);
  Publish(std::move(snap));
}

GbdaService::~GbdaService() = default;

double GbdaService::Publish(std::shared_ptr<Snapshot> snap) {
  const size_t shard_count =
      options_.num_shards == 0 ? pool_.size() : options_.num_shards;
  snap->shards = std::make_unique<IndexShards>(snap->index.get(), shard_count);

  // Engine replicas memoise posterior values that depend only on the two
  // priors, so when neither prior object changed the previous generation's
  // warm replicas carry over; otherwise fresh ones are built against the
  // new prior objects (kept alive by the snapshot's index).
  std::shared_ptr<const Snapshot> prev = LoadSnapshot();
  if (prev && &prev->index->gbd_prior() == &snap->index->gbd_prior() &&
      prev->index->mutable_ged_prior() == snap->index->mutable_ged_prior()) {
    snap->engines = prev->engines;
  } else {
    // One engine per worker plus a spare for non-pool threads; replicas
    // share the index's thread-safe priors (see the file comment).
    auto engines =
        std::make_shared<std::vector<std::unique_ptr<PosteriorEngine>>>();
    engines->reserve(pool_.size() + 1);
    for (size_t i = 0; i < pool_.size() + 1; ++i) {
      engines->push_back(std::make_unique<PosteriorEngine>(
          snap->index->num_vertex_labels(), snap->index->num_edge_labels(),
          snap->index->tau_max(), snap->index->mutable_ged_prior(),
          &snap->index->gbd_prior()));
    }
    snap->engines = std::move(engines);
  }

  WallTimer swap_timer;
  std::atomic_store(&snapshot_,
                    std::shared_ptr<const Snapshot>(std::move(snap)));
  return swap_timer.Seconds();
}

std::shared_ptr<const GbdaService::Snapshot> GbdaService::LoadSnapshot()
    const {
  return std::atomic_load(&snapshot_);
}

bool GbdaService::InitAnn(const Snapshot& snap,
                          const ProximityGraphRef* adopt) const {
  bool ran = false;
  std::call_once(snap.ann_once, [this, &snap, adopt, &ran] {
    ran = true;
    // The navigator compares the query profile's branch keys against the
    // index's fingerprint column — the same keys, so build-time and
    // query-time geometry agree.
    FingerprintStore store = FingerprintStore::FromIndex(*snap.index);
    Result<AnnContext> ctx =
        adopt != nullptr
            ? AnnContext::Adopt(std::move(store), *adopt)
            : AnnContext::Build(std::move(store), options_.ann_build);
    if (ctx.ok()) {
      snap.ann = std::make_unique<const AnnContext>(std::move(*ctx));
    } else {
      snap.ann_status = ctx.status();
    }
  });
  return ran;
}

Status GbdaService::WarmAnnGraph() {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  InitAnn(*snap, nullptr);
  return snap->ann_status;
}

Status GbdaService::AdoptAnnGraph(const ProximityGraphRef& graph) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  if (!InitAnn(*snap, &graph)) {
    return Status::FailedPrecondition(
        "AdoptAnnGraph: the approximate navigation context is already "
        "initialised — adopt before the first approximate query or "
        "WarmAnnGraph call");
  }
  return snap->ann_status;
}

Result<std::vector<SearchResult>> GbdaService::RunBatchOn(
    const Snapshot& snap, Span<Graph> queries, const SearchOptions& options,
    bool apply_gamma, size_t top_k) {
  WallTimer timer;
  // Retired db slots would otherwise still be scanned (their index entries
  // are intact); PrepareScan catches the tombstoned-index direction.
  if (snap.db != nullptr && snap.db->has_tombstones()) {
    return Status::FailedPrecondition(
        "database is tombstoned: the frozen scan cannot serve a mutated "
        "corpus — use DynamicGbdaService");
  }
  // Approximate navigation serves concrete-k rankings only: threshold
  // queries are defined over the whole corpus, and a clamped k of 0 (empty
  // corpus) already has a defined-empty exhaustive answer.
  const bool approximate = options.approximate && !apply_gamma &&
                           top_k != kScanAllMatches && top_k > 0;
  if (approximate) {
    InitAnn(snap, nullptr);
    GBDA_RETURN_IF_ERROR(snap.ann_status);
  }
  const Prefilter* prefilter = nullptr;
  if (options.use_prefilter) {
    // Profile extraction is O(corpus) and cold-start sensitive (a mapped
    // artifact opens in microseconds), so a frozen snapshot builds its
    // prefilter on the first query that enables it.
    std::call_once(snap.prefilter_once, [&snap] {
      if (!snap.prefilter) {
        snap.prefilter = std::make_shared<Prefilter>(snap.db);
      }
    });
    prefilter = snap.prefilter.get();
  }
  const CorpusRef corpus = snap.corpus();
  ParallelScanEnv env{&pool_, snap.shards.get(), snap.index.get(), prefilter,
                      corpus, snap.engines.get()};
  Result<std::vector<SearchResult>> results =
      approximate
          ? AnnScanBatch(env, *snap.ann, queries, options, top_k)
          : ParallelScanBatch(env, queries, options, apply_gamma, top_k);
  if (!results.ok()) return results;

  for (SearchResult& r : *results) {
    // Dense positions -> stable ids. The map is ascending, so the serial id
    // order and every top-k tie-break survive the translation.
    for (SearchMatch& m : r.matches) m.graph_id = snap.stable_ids[m.graph_id];
  }
  AccumulateServiceStats(*results, timer.Seconds(), &counters_);
  return results;
}

Result<std::vector<SearchResult>> GbdaService::RunTopKOn(
    const Snapshot& snap, Span<Graph> queries, size_t k,
    const SearchOptions& options) {
  // k == 0 is a valid request for an empty ranking, decided here at the
  // API boundary: no scan runs (the queries still count as served). See
  // core/gbda_search.h on the kScanAllMatches sentinel vs k == 0.
  if (k == 0) {
    std::vector<SearchResult> empty(queries.size());
    AccumulateServiceStats(empty, 0.0, &counters_);
    return empty;
  }
  // A scan never yields more matches than the snapshot has graphs, so the
  // clamp is behavior-free.
  k = std::min(k, snap.index->num_graphs());
  return RunBatchOn(snap, queries, options, /*apply_gamma=*/false, k);
}

Result<SearchResult> GbdaService::Query(const Graph& query,
                                        const SearchOptions& options) {
  return OnlyResult(RunBatchOn(*LoadSnapshot(), Span<Graph>(&query, 1),
                               options, /*apply_gamma=*/true, kScanAllMatches));
}

Result<SearchResult> GbdaService::QueryTopK(const Graph& query, size_t k,
                                            const SearchOptions& options) {
  return OnlyResult(
      RunTopKOn(*LoadSnapshot(), Span<Graph>(&query, 1), k, options));
}

Result<std::vector<SearchResult>> GbdaService::QueryBatch(
    Span<Graph> queries, const SearchOptions& options) {
  Result<std::vector<SearchResult>> batch =
      RunBatchOn(*LoadSnapshot(), queries, options, /*apply_gamma=*/true,
                 kScanAllMatches);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

Result<std::vector<SearchResult>> GbdaService::QueryTopKBatch(
    Span<Graph> queries, size_t k, const SearchOptions& options,
    SnapshotInfo* served) {
  std::shared_ptr<const Snapshot> snap = LoadSnapshot();
  if (served != nullptr) *served = snap->info();
  Result<std::vector<SearchResult>> batch =
      RunTopKOn(*snap, queries, k, options);
  if (batch.ok()) counters_.batches_served.Add(1);
  return batch;
}

size_t GbdaService::num_shards() const {
  return LoadSnapshot()->shards->num_shards();
}

SnapshotInfo GbdaService::snapshot_info() const {
  return LoadSnapshot()->info();
}

ServiceStats GbdaService::stats() const { return counters_.Snapshot(); }

void GbdaService::ResetStats() { counters_.Reset(); }

}  // namespace gbda
