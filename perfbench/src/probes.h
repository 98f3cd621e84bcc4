// Layer probes for traced runs. Each probe times calls into one layer's
// public functions from outside, on the workload's own corpus, index and
// queries, and records a span per call (or per block of calls, with the
// block's op count). Layers the workload's load already crosses are timed
// there; the probes cover the rest, so every traced run reports every
// per-layer metric.

#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "ann/proximity_graph.h"
#include "common/result.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "net/codec.h"
#include "report.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"

namespace perfbench {

/// Options shared by every workload's index.
gbda::GbdaIndexOptions IndexOptionsFor(const gbda::DatasetProfile& profile);

/// A ThreadPool of `threads` workers: no-op Submit + future wait round trips.
void ProbePool(size_t threads);

/// Single-thread PrepareScan + ScanRange over the whole corpus on one
/// PosteriorEngine, twice (cold, then steady state), passing `prefilter` as
/// the serving layer would: a top-k scan with a ScanBounds(k) of every
/// query and, when `with_threshold`, a threshold scan of every query too.
/// Then blocks of GbdFromBranches, intersect_count and PosteriorEngine::Phi
/// calls on the queries' candidates. Reports the steady-state scan counts
/// and memo hit ratio; returns the summed steady-state scan time in ms (the
/// base of service.parallel_efficiency).
gbda::Result<double> ProbeCore(const gbda::IndexReader& index,
                               const gbda::CorpusRef& corpus,
                               const gbda::Prefilter* prefilter,
                               const std::vector<gbda::Graph>& queries,
                               const gbda::SearchOptions& options,
                               bool with_threshold, size_t k, Report* report);

/// service.parallel_efficiency = single-thread scan ms / (threads x median
/// batch wall ms), the batch wall taken over three calls of `run_batch`
/// (which returns the wall of the service batches that run the same scans
/// as the single-thread base).
gbda::Status ProbeParallelEfficiency(
    double single_thread_ms, size_t threads,
    const std::function<gbda::Result<double>()>& run_batch, Report* report);

/// WriteArenaFile to `path`, then GbdaIndexView::Open it three times.
gbda::Status ProbeStorage(const gbda::IndexReader& index,
                          const std::string& path, Report* report);

/// Navigate + verify each query the way approximate top-k does. When
/// `graph` is null the proximity graph is built here over `index`.
gbda::Status ProbeAnn(const gbda::IndexReader& index,
                      const gbda::CorpusRef& corpus,
                      const gbda::ProximityGraphRef* graph,
                      const gbda::FingerprintStore* store,
                      const std::vector<gbda::Graph>& queries,
                      const gbda::SearchOptions& options, size_t k,
                      Report* report);

/// A GbdaServer (1 worker) over `service` on loopback; three concurrent
/// connections share `requests` top-k requests, each connection a closed
/// loop with explicitly timed codec calls, so the server coalesces up to
/// three requests per batch. Then reads the server's stage statistics.
gbda::Status ProbeNet(gbda::GbdaService* service,
                      const std::vector<gbda::Graph>& queries,
                      const gbda::SearchOptions& options, size_t k,
                      size_t requests, Report* report);

/// Server-side stage quantiles, mean batch size and rejections.
void ReportServerStats(const gbda::net::WireServerStats& stats,
                       Report* report);

/// `commits` in-process commits on `service`, alternating AddGraphs (two
/// graphs of `pool`) and RemoveGraphs (one graph added here).
gbda::Status ProbeCommits(gbda::DynamicGbdaService* service,
                          const std::vector<gbda::Graph>& pool,
                          size_t commits, Report* report);

/// A small DynamicGbdaService over the first `n` graphs of `data`, for the
/// commit probe of workloads whose corpus is frozen.
gbda::Result<std::unique_ptr<gbda::DynamicGbdaService>> SmallDynamicService(
    const gbda::GeneratedDataset& data, size_t n);

/// AddGraph of each graph, then RefitGbdPrior (three times) on `index`.
gbda::Status ProbeIndexMutation(gbda::GbdaIndex* index,
                                const std::vector<gbda::Graph>& graphs);

/// core.branch_s / gbd_prior_s / ged_prior_s from a Build's OfflineCosts.
void ReportOfflineCosts(const gbda::OfflineCosts& costs, Report* report);

/// Timed GbdaIndex::Build (span core.GbdaIndex::Build).
gbda::Result<gbda::GbdaIndex> TimedBuild(const gbda::GraphDatabase& db,
                                         const gbda::GbdaIndexOptions& options);

}  // namespace perfbench
