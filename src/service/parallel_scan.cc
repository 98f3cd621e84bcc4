#include "service/parallel_scan.h"

#include <atomic>
#include <future>
#include <mutex>
#include <utility>

#include "common/timer.h"

namespace gbda {

Result<std::vector<SearchResult>> ParallelScanBatch(const ParallelScanEnv& env,
                                                    Span<Graph> queries,
                                                    const SearchOptions& options,
                                                    bool apply_gamma,
                                                    size_t top_k) {
  WallTimer timer;
  const size_t num_queries = queries.size();
  const size_t num_shards = env.shards->num_shards();

  // One ScanBounds per query job when early termination is armed: the
  // bound is a per-query property (the k-th best of THIS query's matches),
  // shared across that query's shard tasks, never across queries. k >=
  // corpus can never prune, so it skips the bookkeeping.
  const bool early_terminate =
      !apply_gamma && top_k != kScanAllMatches &&
      top_k < env.shards->num_graphs() && options.topk_early_termination;

  // The query-independent checks fail the batch before any task runs; per
  // query, the first shard task to start prepares the context (and seeds
  // the ranking witness) on the pool.
  if (num_queries > 0) {
    GBDA_RETURN_IF_ERROR(
        CheckScanPreconditions(options, env.corpus, *env.index));
  }
  struct QueryJob {
    std::once_flag prepared;
    Status prepare_status;
    ScanContext ctx;
    std::vector<SearchResult> partials;
    std::vector<Status> statuses;
    // Brace-initialized: C++17 atomics are only well-defined after
    // constructor initialization (P0883 fixed the default in C++20).
    std::atomic<size_t> shards_left{0};
    double latency_seconds = 0.0;
    /// Shard-shared pruning state; null when scanning exhaustively.
    std::unique_ptr<ScanBounds> bounds;
  };
  std::vector<std::unique_ptr<QueryJob>> jobs;
  jobs.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    auto job = std::make_unique<QueryJob>();
    job->partials.resize(num_shards);
    job->statuses.resize(num_shards);
    job->shards_left.store(num_shards, std::memory_order_relaxed);
    if (early_terminate) job->bounds = std::make_unique<ScanBounds>(top_k);
    jobs.push_back(std::move(job));
  }

  // Fan out every (query, shard) pair, shard-major so the first wave of
  // tasks prepares distinct queries; each task writes only its own slot,
  // so no synchronisation is needed beyond the preparation once-flag and
  // the completion countdown.
  std::vector<std::future<void>> futures;
  futures.reserve(num_queries * num_shards);
  try {
    for (size_t s = 0; s < num_shards; ++s) {
      for (size_t qi = 0; qi < num_queries; ++qi) {
        QueryJob* job = jobs[qi].get();
        const Graph* query = &queries[qi];
        futures.push_back(env.pool->Submit([&env, &options, apply_gamma, job,
                                            query, s, top_k, &timer]() {
          const ShardView& view = env.shards->shard(s);
          // The calling pool worker's engine replica; the spare (last slot)
          // serves any thread that is not a worker of env.pool — the check
          // is pool-aware, so a worker of a different pool lands on the
          // spare instead of aliasing a replica it does not own.
          const size_t worker = env.pool->CurrentWorkerIndex();
          PosteriorEngine* engine = worker == ThreadPool::kNotAWorker
                                        ? env.engines->back().get()
                                        : (*env.engines)[worker].get();
          // The query's other shard tasks block here until it is prepared;
          // call_once publishes the context and the seeded witness to them.
          std::call_once(job->prepared, [&] {
            Result<ScanContext> ctx = PrepareScan(*query, options, apply_gamma,
                                                  env.corpus, *env.index);
            if (!ctx.ok()) {
              job->prepare_status = ctx.status();
              return;
            }
            job->ctx = std::move(*ctx);
            if (job->bounds) {
              job->prepare_status =
                  SeedRankWitness(job->ctx, *env.index, env.prefilter, engine,
                                  job->bounds.get());
            }
          });
          SearchResult partial;
          Status status = job->prepare_status;
          if (status.ok()) {
            status = ScanRange(job->ctx, view.index(), env.prefilter,
                               view.begin(), view.end(), engine, &partial,
                               job->bounds.get());
          }
          // Local truncation keeps the merge O(S * k): any global top-k
          // match is also in its own shard's top-k.
          if (status.ok() && top_k != kScanAllMatches) {
            SortTopK(&partial.matches, top_k);
          }
          job->statuses[s] = std::move(status);
          job->partials[s] = std::move(partial);
          // acq_rel countdown: the release half publishes this shard's
          // statuses/partials writes above, the acquire half makes every
          // earlier shard's writes visible to whichever worker hits zero and
          // stamps the job latency. (The merge itself additionally
          // synchronizes through the futures' get().)
          if (job->shards_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            job->latency_seconds = timer.Seconds();
          }
        }));
      }
    }
  } catch (...) {
    // Submit itself failed (e.g. allocation): the tasks already enqueued
    // still hold pointers into `jobs` and `timer`, so wait them out before
    // letting the stack unwind.
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
      }
    }
    throw;
  }
  // Drain every future before any rethrow: tasks hold pointers into `jobs`
  // and `timer`, so unwinding while siblings are still running would be a
  // use-after-free.
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Deterministic merge: shards are contiguous ascending id ranges, so
  // concatenation in shard order equals the serial scan order; top-k re-ranks
  // under the same total order as the serial QueryTopK.
  std::vector<SearchResult> results;
  results.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    QueryJob* job = jobs[qi].get();
    for (const Status& status : job->statuses) {
      if (!status.ok()) return status;
    }
    SearchResult merged;
    size_t match_count = 0;
    for (const SearchResult& partial : job->partials) {
      match_count += partial.matches.size();
    }
    merged.matches.reserve(match_count);
    for (SearchResult& partial : job->partials) {
      merged.matches.insert(merged.matches.end(), partial.matches.begin(),
                            partial.matches.end());
      merged.candidates_evaluated += partial.candidates_evaluated;
      merged.prefiltered_out += partial.prefiltered_out;
      merged.pruned_by_bound += partial.pruned_by_bound;
      merged.candidates_visited += partial.candidates_visited;
      merged.verified_count += partial.verified_count;
    }
    if (top_k != kScanAllMatches) SortTopK(&merged.matches, top_k);
    merged.seconds = job->latency_seconds;
    results.push_back(std::move(merged));
  }
  return results;
}

Result<std::vector<SearchResult>> AnnScanBatch(const ParallelScanEnv& env,
                                               const AnnContext& ann,
                                               Span<Graph> queries,
                                               const SearchOptions& options,
                                               size_t top_k) {
  WallTimer timer;
  const size_t num_queries = queries.size();

  // One job per query: the navigator's beam walk is sequential by nature
  // (each expansion depends on what the last one admitted), so parallelism
  // here is across queries only. Verification cost per query is bounded by
  // the window, which keeps single-query latency predictable.
  // Each task prepares its own query; the query-independent checks fail
  // the batch before any task runs.
  if (num_queries > 0) {
    GBDA_RETURN_IF_ERROR(
        CheckScanPreconditions(options, env.corpus, *env.index));
  }
  struct QueryJob {
    SearchResult result;
    Status status;
    double latency_seconds = 0.0;
  };
  std::vector<std::unique_ptr<QueryJob>> jobs;
  jobs.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    jobs.push_back(std::make_unique<QueryJob>());
  }

  std::vector<std::future<void>> futures;
  futures.reserve(num_queries);
  try {
    for (size_t qi = 0; qi < num_queries; ++qi) {
      QueryJob* job = jobs[qi].get();
      const Graph* query = &queries[qi];
      futures.push_back(env.pool->Submit([&env, &ann, &options, job, query,
                                          top_k, &timer]() {
        // Same replica-selection rule as the exhaustive fan-out (see
        // ParallelScanBatch): pool workers own their slot, everything else
        // shares the spare.
        const size_t worker = env.pool->CurrentWorkerIndex();
        PosteriorEngine* engine = worker == ThreadPool::kNotAWorker
                                      ? env.engines->back().get()
                                      : (*env.engines)[worker].get();
        Result<ScanContext> ctx = PrepareScan(*query, options,
                                              /*apply_gamma=*/false,
                                              env.corpus, *env.index);
        job->status = ctx.ok() ? AnnSearchTopK(ann, *ctx, *env.index,
                                               env.prefilter, top_k, engine,
                                               &job->result)
                               : ctx.status();
        job->latency_seconds = timer.Seconds();
      }));
    }
  } catch (...) {
    // Mirror ParallelScanBatch: enqueued tasks hold pointers into `jobs`
    // and `timer`, so they must finish before the stack unwinds.
    for (std::future<void>& f : futures) {
      try {
        f.get();
      } catch (...) {
      }
    }
    throw;
  }
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  std::vector<SearchResult> results;
  results.reserve(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    QueryJob* job = jobs[qi].get();
    if (!job->status.ok()) return job->status;
    job->result.seconds = job->latency_seconds;
    results.push_back(std::move(job->result));
  }
  return results;
}

}  // namespace gbda
