/// \file gbda_service.h
/// The serving layer: a concurrent, sharded front-end over the one-shot
/// GbdaSearch (docs/ARCHITECTURE.md, "Serving layer"). A GbdaService owns a
/// fixed-size ThreadPool and answers every query against one published,
/// immutable snapshot of the corpus: its index, IndexShards partitioning,
/// engines and lazily-built prefilter and navigation context. Query /
/// QueryTopK / QueryBatch fan every (query, shard) pair onto the pool and
/// merge shard results deterministically, so the output — match set,
/// ordering, top-k tie-breaking and the candidates/prefilter counters — is
/// bit-identical to the serial GbdaSearch scan of that snapshot's corpus.
///
/// A frozen corpus is the case whose snapshot never changes: the service
/// publishes generation 0 once, over the borrowed database and index.
/// DynamicGbdaService (service/dynamic_service.h) is the same query core
/// plus a mutation half that publishes a new snapshot per commit.
///
/// Each pool worker owns a private PosteriorEngine replica: the engine
/// lazily warms per-size Lambda1 calculators and a (v, phi, tau_hat) memo,
/// and sharing one engine would serialise every Phi evaluation on its memo
/// lock. The replicas share the index's thread-safe GedPriorTable and the
/// immutable GbdPrior, so replication costs only the (small, lazily filled)
/// memo tables.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ann/navigator.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/gbda_search.h"
#include "core/prefilter.h"
#include "obs/metrics_registry.h"
#include "service/index_shards.h"

namespace gbda {

/// Concurrency knobs of the serving layer.
struct ServiceOptions {
  /// Pool workers; 0 means std::thread::hardware_concurrency (at least 1).
  size_t num_threads = 0;
  /// Contiguous database shards; 0 means one per worker. More shards than
  /// workers improves load balance on skewed databases; the result is
  /// identical for any shard count.
  size_t num_shards = 0;
  /// Proximity-graph construction knobs for approximate mode, used when
  /// the service builds its navigation graph (WarmAnnGraph, or lazily on
  /// the first approximate query) rather than adopting a persisted one.
  AnnBuildParams ann_build;
};

/// Aggregate serving statistics since construction (or ResetStats). A plain
/// value snapshot assembled from the owning service's sharded counters
/// (ServiceCounters) — concurrent client threads may call Query/QueryBatch/
/// stats() freely; no lock is taken anywhere on the query path.
struct ServiceStats {
  size_t queries_served = 0;
  size_t batches_served = 0;  // QueryBatch / QueryTopKBatch calls
  size_t candidates_evaluated = 0;
  size_t prefiltered_out = 0;
  /// Posterior evaluations skipped by top-k early termination (subset of
  /// candidates_evaluated; see SearchResult::pruned_by_bound).
  size_t pruned_by_bound = 0;
  /// Nodes the approximate navigator visited (0 for exhaustive queries) and
  /// candidates that paid the full verification tail. Cost observability,
  /// like pruned_by_bound: excluded from determinism comparisons (see
  /// SearchResult::candidates_visited / verified_count).
  size_t candidates_visited = 0;
  size_t verified_count = 0;
  size_t matches_returned = 0;
  /// Sum of per-query latencies (submission to last-shard completion).
  double total_latency_seconds = 0.0;
  /// Sum of top-level call wall times (a batch counts once).
  double total_wall_seconds = 0.0;

  double MeanLatencySeconds() const {
    return queries_served == 0 ? 0.0
                               : total_latency_seconds /
                                     static_cast<double>(queries_served);
  }
  /// Served-query throughput. The denominator is clamped to the timer's
  /// plausible resolution so a fast batch whose wall time rounds to zero
  /// (sub-tick) still reports a finite, nonzero QPS instead of 0 — by
  /// construction nonzero whenever queries_served > 0.
  double QueriesPerSecond() const {
    if (queries_served == 0) return 0.0;
    const double wall = total_wall_seconds > kMinWallSeconds
                            ? total_wall_seconds
                            : kMinWallSeconds;
    return static_cast<double>(queries_served) / wall;
  }

  /// Denominator clamp for QueriesPerSecond: one nanosecond, below any
  /// steady_clock tick a served query could take.
  static constexpr double kMinWallSeconds = 1e-9;
};

/// Lock-free backing store for ServiceStats: one sharded relaxed-atomic
/// counter per field (durations in integer nanoseconds — exact to the
/// steady_clock tick), so accumulation on the query path never contends and
/// never takes a mutex. Snapshot() is exact once writers quiesce and a
/// consistent lower bound while they run; Reset() requires quiesced writers
/// (same caveat as obs::Counter::Reset).
struct ServiceCounters {
  obs::Counter queries_served;
  obs::Counter batches_served;
  obs::Counter candidates_evaluated;
  obs::Counter prefiltered_out;
  obs::Counter pruned_by_bound;
  obs::Counter candidates_visited;
  obs::Counter verified_count;
  obs::Counter matches_returned;
  obs::Counter latency_nanos;  // sum of per-query latencies
  obs::Counter wall_nanos;     // sum of top-level call wall times
  /// Per-query scan-stage latency distribution (microseconds), recorded only
  /// when tracing samples the query (obs::TraceSampled) so the untraced hot
  /// path pays nothing for it.
  obs::ConcurrentHistogram scan_latency_micros;

  ServiceStats Snapshot() const;
  void Reset();
  /// Appends this service's gbda_service_* metric families, every point
  /// tagged with `labels` (may be empty). Feeds MetricsRegistry collectors.
  void Collect(const std::string& labels, std::vector<obs::MetricFamily>* out) const;
};

/// One published generation: the identity of the corpus a query is served
/// against. A frozen service publishes generation 0 once; a dynamic one
/// publishes 1, 2, ... as commits land.
struct SnapshotInfo {
  uint64_t generation = 0;
  size_t num_live = 0;
  /// Mutations absorbed since Lambda2 was last fit (0 means the snapshot is
  /// bit-identical to a from-scratch Build of its corpus).
  size_t gbd_staleness = 0;
};

/// Concurrent sharded query engine over an immutable snapshot of the
/// corpus. Every query pins the published snapshot once and answers against
/// it alone, so results are bit-identical to the serial GbdaSearch over
/// that snapshot's corpus. A service built by Create / the public
/// constructor serves a frozen corpus: it publishes exactly one snapshot
/// (generation 0) over the borrowed `db` and `index`, read through the
/// IndexReader contract (core/index_reader.h), so an owned GbdaIndex and a
/// zero-copy GbdaIndexView over a mapped v3 artifact serve bit-identically.
/// DynamicGbdaService (service/dynamic_service.h) derives from it and
/// publishes a new snapshot per commit. Thread-safe: concurrent public
/// calls share the pool and the per-worker engines; statistics are
/// lock-free sharded counters. `db` and `index` must outlive the service
/// and the index must have been built over exactly this database.
class GbdaService {
 public:
  /// Checked construction: fails when `index` does not agree with `db`
  /// (graph counts and per-graph branch sizes), e.g. a stale arena
  /// artifact — an undetected mismatch would drive out-of-bounds branch and
  /// prefilter lookups in the shard scans.
  static Result<std::unique_ptr<GbdaService>> Create(
      const GraphDatabase* db, const IndexReader* index,
      const ServiceOptions& options = ServiceOptions());

  /// Raw constructor; Create enforces db/index agreement up front, the raw
  /// path defers it to query time (PrepareScan rejects a size mismatch
  /// before any out-of-bounds access can happen).
  GbdaService(const GraphDatabase* db, const IndexReader* index,
              const ServiceOptions& options = ServiceOptions());
  virtual ~GbdaService();
  GbdaService(const GbdaService&) = delete;
  GbdaService& operator=(const GbdaService&) = delete;

  /// Threshold query, bit-identical to GbdaSearch::Query (matches in
  /// ascending graph id order). result.seconds is the query's wall latency.
  Result<SearchResult> Query(const Graph& query, const SearchOptions& options);

  /// Top-k ranking, bit-identical to GbdaSearch::QueryTopK including the
  /// (phi_score desc, gbd asc, id asc) tie-breaking. Each shard truncates
  /// to its local top-k before the global merge re-ranks. Runs the
  /// early-terminated scan (shards share the running k-th-best bound)
  /// unless options.topk_early_termination is off — results are identical
  /// either way. k == 0 is defined as an empty result (validated here at
  /// the API boundary, no scan runs; see core/gbda_search.h on the
  /// kScanAllMatches sentinel vs k == 0).
  Result<SearchResult> QueryTopK(const Graph& query, size_t k,
                                 const SearchOptions& options);

  /// Batched threshold queries: all (query, shard) pairs are in flight on
  /// the pool at once, so one slow query does not serialise the batch.
  /// results[i].seconds is query i's latency from batch submission to its
  /// last shard completing. Fails as a whole on the first invalid query /
  /// evaluation error (the only failure modes are option validation and
  /// posterior-domain errors, which are query-global).
  Result<std::vector<SearchResult>> QueryBatch(Span<Graph> queries,
                                               const SearchOptions& options);

  /// Batched top-k rankings with the same in-flight fan-out as QueryBatch,
  /// all against ONE pinned snapshot; results[i] is bit-identical to
  /// QueryTopK(queries[i], k, options) against that snapshot. Each query
  /// job carries its own shard-shared pruning bound. `served` (non-null)
  /// reports the pinned snapshot's identity — the handoff the network
  /// front-end uses to stamp every co-batched response with its generation
  /// (filled on success and failure, and for k == 0, where no scan runs).
  Result<std::vector<SearchResult>> QueryTopKBatch(
      Span<Graph> queries, size_t k, const SearchOptions& options,
      SnapshotInfo* served = nullptr);

  size_t num_threads() const { return pool_.size(); }
  /// Shard count of the published snapshot.
  size_t num_shards() const;
  /// The published snapshot's identity (atomic read, no locking).
  SnapshotInfo snapshot_info() const;
  /// Live graph count of the published snapshot.
  size_t num_live() const { return snapshot_info().num_live; }

  // -- Approximate navigation ------------------------------------------------
  // Ranking queries with options.approximate walk a proximity graph over
  // branch-fingerprint similarity instead of scanning every shard, then
  // verify the visited candidates exactly (ann/navigator.h): the result is
  // a subset of the exhaustive top-k with bit-exact scores. Each snapshot
  // owns its navigation context, built at most once from the snapshot
  // index's fingerprint column — lazily on the first approximate query,
  // eagerly via WarmAnnGraph, or adopted from a mapped artifact. A frozen
  // service has one snapshot, so one context; a dynamic service starts
  // cold again at every commit.

  /// Ensures the published snapshot's navigation context exists, building
  /// it with ServiceOptions::ann_build when nothing was adopted.
  /// Idempotent; returns the (sticky) build status. Call it at startup to
  /// keep the O(corpus · degree · window) construction off the first
  /// query's latency.
  Status WarmAnnGraph();

  /// Adopts a prebuilt graph for the published snapshot — typically
  /// GbdaIndexView::ann_graph() from a v3 artifact written with one —
  /// instead of building. The referenced storage must outlive the service,
  /// and the graph must cover exactly the snapshot's graphs. Fails
  /// (FailedPrecondition) once the context exists, so adopt before the
  /// first approximate query or WarmAnnGraph call.
  Status AdoptAnnGraph(const ProximityGraphRef& graph);

  /// Snapshot of the aggregate query counters (exact once in-flight
  /// queries have returned; a consistent lower bound while they run).
  ServiceStats stats() const;
  /// Zeroes the counters. Quiesce concurrent queries first: an accumulation
  /// racing the reset may survive it partially.
  virtual void ResetStats();

  /// Appends this service's metric families for a registry collector.
  void CollectMetrics(const std::string& labels,
                      std::vector<obs::MetricFamily>* out) const {
    counters_.Collect(labels, out);
  }

 protected:
  /// Everything one query generation needs. Once published it is never
  /// modified, except for the lazily-built prefilter and navigation
  /// context, which call_once guards.
  struct Snapshot {
    uint64_t generation = 0;
    std::vector<size_t> stable_ids;  // dense position -> reported id
    /// The corpus: a borrowed frozen database, or (when null) the dense
    /// graph pointers of a dynamic generation.
    const GraphDatabase* db = nullptr;
    std::vector<const Graph*> graphs;
    std::shared_ptr<const IndexReader> index;
    /// Null until the first use_prefilter query builds it from `db`,
    /// unless the publisher supplied one.
    mutable std::shared_ptr<const Prefilter> prefilter;
    mutable std::once_flag prefilter_once;
    std::unique_ptr<IndexShards> shards;
    /// One engine per pool worker + spare; shared with the previous
    /// generation when both priors are unchanged (replicas stay warm).
    std::shared_ptr<std::vector<std::unique_ptr<PosteriorEngine>>> engines;
    /// Approximate-navigation context; a failed build is sticky in
    /// ann_status so approximate queries report it instead of silently
    /// rescanning.
    mutable std::once_flag ann_once;
    mutable std::unique_ptr<const AnnContext> ann;
    mutable Status ann_status;

    CorpusRef corpus() const {
      return db != nullptr ? CorpusRef(db) : CorpusRef(&graphs);
    }
    SnapshotInfo info() const {
      return SnapshotInfo{generation, index->num_graphs(),
                          index->gbd_staleness()};
    }
  };

  /// For derived publishers: owns the pool, publishes nothing.
  explicit GbdaService(const ServiceOptions& options);

  /// The publication hook. Completes `snap` (generation, ids, corpus,
  /// index and optional prefilter filled by the caller) with its shards and
  /// engine replicas, then swaps it in atomically; in-flight queries keep
  /// the generation they pinned. Returns the seconds the swap itself took.
  double Publish(std::shared_ptr<Snapshot> snap);

 private:
  std::shared_ptr<const Snapshot> LoadSnapshot() const;
  /// Shared fan-out/merge over one pinned snapshot (service/
  /// parallel_scan.h); remaps dense match ids through stable_ids. top_k ==
  /// kScanAllMatches keeps every match (threshold mode); otherwise each
  /// shard and the final merge truncate to top_k.
  Result<std::vector<SearchResult>> RunBatchOn(const Snapshot& snap,
                                               Span<Graph> queries,
                                               const SearchOptions& options,
                                               bool apply_gamma, size_t top_k);
  /// The top-k entry shared by QueryTopK and QueryTopKBatch: k == 0 is a
  /// defined-empty answer, any other k is clamped to the corpus so an
  /// oversized k cannot collide with the kScanAllMatches sentinel.
  Result<std::vector<SearchResult>> RunTopKOn(const Snapshot& snap,
                                              Span<Graph> queries, size_t k,
                                              const SearchOptions& options);
  /// Initialises the snapshot's navigation context at most once — adopting
  /// `adopt` when non-null, building it otherwise — with a sticky outcome
  /// in snap.ann / snap.ann_status. Returns whether this call ran it.
  bool InitAnn(const Snapshot& snap, const ProximityGraphRef* adopt) const;

  const ServiceOptions options_;
  ThreadPool pool_;
  /// Deliberately unguarded: accessed exclusively through the free
  /// std::atomic_load/atomic_store shared_ptr overloads (LoadSnapshot /
  /// Publish), the readers-never-block-writers handoff.
  std::shared_ptr<const Snapshot> snapshot_;

  ServiceCounters counters_;
};

}  // namespace gbda
