/// \file parallel_scan.h
/// The shared fan-out/merge core of the serving layer: every (query, shard)
/// pair becomes one pool task running core ScanRange, and per-shard partials
/// are concatenated in shard order — bit-identical to the serial scan
/// (docs/ARCHITECTURE.md, "Serving layer"). GbdaService runs it against the
/// corpus of the immutable snapshot a batch pinned — a frozen database's
/// one generation-0 snapshot or a dynamic generation's dense corpus.
/// Everything referenced by ParallelScanEnv is borrowed and must stay alive
/// for the duration of the call.

#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ann/navigator.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/gbda_search.h"
#include "core/prefilter.h"
#include "service/index_shards.h"

namespace gbda {

// The top_k sentinel kScanAllMatches lives next to the scan pipeline in
// core/gbda_search.h (included above), which also documents the sentinel
// vs k == 0 distinction.

/// Borrowed execution environment of one batch scan.
struct ParallelScanEnv {
  ThreadPool* pool;
  const IndexShards* shards;
  const IndexReader* index;
  /// The layered prefilter for this batch; may be null when no query in
  /// the batch enables it (core ScanRange only dereferences it under
  /// SearchOptions::use_prefilter), so owners can build it lazily.
  const Prefilter* prefilter;
  CorpusRef corpus;
  /// One PosteriorEngine replica per pool worker plus a trailing spare
  /// (size == pool->size() + 1). The spare serves threads that are not
  /// workers of `pool` — including workers of OTHER pools, which
  /// ThreadPool::CurrentWorkerIndex reports as kNotAWorker so they can
  /// never alias a replica owned by one of this pool's workers.
  const std::vector<std::unique_ptr<PosteriorEngine>>* engines;
};

/// Fans all (query, shard) pairs onto the pool and merges deterministically.
/// top_k == kScanAllMatches keeps every match; otherwise each shard and the
/// final merge truncate to top_k under SearchMatchRankBefore. Each result's
/// `seconds` is that query's latency from batch submission to its last
/// shard completing.
///
/// Ranking calls (apply_gamma == false with a real top_k) run with top-k
/// early termination unless options.topk_early_termination is off: each
/// query job owns one ScanBounds, shared by that query's shard tasks
/// through ParallelScanEnv's fan-out, so the k-th-best phi_score witnessed
/// by any shard prunes the other shards' tails via a relaxed atomic. The
/// merged output stays bit-identical to the exhaustive scan — only
/// SearchResult::pruned_by_bound and timing vary (see core/gbda_search.h,
/// ScanBounds).
Result<std::vector<SearchResult>> ParallelScanBatch(const ParallelScanEnv& env,
                                                    Span<Graph> queries,
                                                    const SearchOptions& options,
                                                    bool apply_gamma,
                                                    size_t top_k);

/// The approximate ranking fan-out: one pool task PER QUERY (not per
/// shard) running ann/AnnSearchTopK over the whole corpus — beam
/// navigation is a global walk, so sharding it would change which
/// candidates it visits. `env.shards` is unused; `env.prefilter` plays its
/// usual role inside the verification scan (admission when
/// options.use_prefilter). top_k must be a real k (not 0, not kScanAllMatches) — callers
/// route those to the exhaustive path. Returned matches are a subset of
/// the exhaustive top-k with bit-exact scores; only the match SET is
/// approximate (see ann/navigator.h).
Result<std::vector<SearchResult>> AnnScanBatch(const ParallelScanEnv& env,
                                               const AnnContext& ann,
                                               Span<Graph> queries,
                                               const SearchOptions& options,
                                               size_t top_k);

}  // namespace gbda
