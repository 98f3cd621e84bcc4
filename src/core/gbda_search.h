/// \file gbda_search.h
/// The online stage of GBDA (Algorithm 1, Steps 2-4). Given a query and a
/// prebuilt GbdaIndex, GbdaSearch scans the database computing each
/// candidate's GBD from its precomputed branches (Step 2), evaluates the
/// posterior Phi = Pr[GED <= tau_hat | GBD] through the PosteriorEngine
/// (Step 3), and accepts candidates with Phi >= gamma (Step 4).
/// SearchOptions selects the published algorithm or the Section VII-D
/// variants (GBDA-V1 average-size, GBDA-V2 weighted VGBD of Eq. 26) and can
/// enable the sound layered Prefilter in front of the probabilistic test.
///
/// The scan is factored into PrepareScan (per-query state: branches, filter
/// profile, the V1 size estimate) and ScanRange (candidate evaluation over a
/// contiguous id range), so the serving layer (src/service/gbda_service.h)
/// can fan the same arithmetic out over shards and stay bit-identical to
/// the serial scan; see docs/ARCHITECTURE.md, "Serving layer".
///
/// Both halves consume the index through the IndexReader contract
/// (core/index_reader.h), so an owned GbdaIndex and a mapped v3 artifact
/// (storage/index_view.h) serve queries through one code path with
/// bit-identical results.

#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "common/kernels.h"
#include "common/result.h"
#include "core/gbda_index.h"
#include "core/posterior.h"
#include "core/prefilter.h"
#include "graph/graph_database.h"

namespace gbda {

/// Which estimator drives the accept test (Section VII-D).
enum class GbdaVariant {
  /// Algorithm 1 as published: v = |V'1| of the actual pair, phi = GBD.
  kStandard,
  /// GBDA-V1: v is the average vertex count of `v1_sample_alpha` database
  /// graphs instead of the pair's extended size.
  kAverageSize,
  /// GBDA-V2: phi = round(VGBD) with the user weight w (Eq. 26).
  kWeightedGbd,
};

/// Online-stage parameters of Algorithm 1.
struct SearchOptions {
  int64_t tau_hat = 5;   // similarity threshold
  double gamma = 0.9;    // probability threshold
  GbdaVariant variant = GbdaVariant::kStandard;
  double vgbd_w = 0.5;          // V2 weight
  size_t v1_sample_alpha = 100;  // V1 sample size
  uint64_t seed = 99;            // V1 sampling seed
  /// Run the layered prefilter (size + label lower bounds) before the
  /// probabilistic test. Sound at threshold tau_hat: only graphs with
  /// provable GED > tau_hat are skipped, so no true match is lost while
  /// spurious accepts of provably-far graphs disappear.
  bool use_prefilter = false;
  /// Bound pruning for both query kinds: skip a candidate's branch
  /// intersection and posterior evaluation when a sound Phi upper bound (a
  /// cheap GBD lower bound pushed through PosteriorEngine::PhiSuffixMax)
  /// proves it cannot be returned — for top-k, it ranks strictly after the
  /// running k-th-best (phi_score, gbd) witness; for threshold queries
  /// (gamma > 0), the bound is strictly below gamma. Bit-identical to the
  /// exhaustive scan — matches, ordering, tie-breaks and the
  /// candidates/prefilter counters all stay unchanged; only
  /// SearchResult::pruned_by_bound / verified_count (and wall time) vary.
  /// Set false to force the exhaustive reference scan of either kind, e.g.
  /// for equivalence testing (tests/topk_prune_equivalence_test.cc,
  /// tests/gamma_prune_equivalence_test.cc).
  bool topk_early_termination = true;
  /// Top-k queries only: navigate the proximity graph (src/ann) instead of
  /// scanning every candidate, then verify each visited candidate with the
  /// exact posterior arithmetic (ScanCandidateList). The result is a SUBSET
  /// of the exhaustive top-k carrying bit-exact scores — candidates the
  /// navigation never visits can be missed (the recall/latency trade-off,
  /// gated by bench/bench_recall.cc), but a returned (phi, gbd) is never
  /// fabricated. Ignored by threshold queries, which are defined over the
  /// whole corpus, and by the serial GbdaSearch, which stays the exhaustive
  /// ground-truth reference — the serving core (GbdaService, over frozen
  /// and dynamic corpora) honors it. See docs/ARCHITECTURE.md,
  /// "Approximate candidate navigation".
  bool approximate = false;
  /// Beam width of the approximate navigation (the priority-queue window of
  /// the greedy search). Larger windows visit more candidates: recall and
  /// cost both rise, and a window >= corpus size visits everything, making
  /// the approximate ranking bit-identical to the exhaustive one. Clamped
  /// up to k at query time so the window can always hold a full result.
  size_t search_window_size = 64;
  /// Which scan-kernel implementation (common/kernels.h) evaluates the
  /// batched tier-1/tier-2 cuts and fingerprint intersections: kAuto picks
  /// AVX2 when the CPU supports it, the force values pin one path (the
  /// bench bit-identity gate sweeps both). Results are bit-identical either
  /// way — the kernel contract, pinned by tests/kernels_test.cc. The
  /// GBDA_FORCE_SCALAR_KERNELS environment override outranks this knob
  /// (CI's scalar-forced leg). Process-local: NOT carried by the wire
  /// protocol — a server scans with its own dispatch setting.
  KernelDispatch kernel_dispatch = KernelDispatch::kAuto;
};

/// One accepted graph.
struct SearchMatch {
  size_t graph_id = 0;
  double phi_score = 0.0;  // Pr[GED <= tau_hat | GBD]
  int64_t gbd = 0;
};

/// The total ranking order used by every top-k path (serial and sharded):
/// higher phi_score first, ties by smaller GBD, then smaller id. Total, so
/// any k-truncation is unique and shard merges reproduce the serial order.
bool SearchMatchRankBefore(const SearchMatch& a, const SearchMatch& b);

/// Sorts the best k matches to the front under SearchMatchRankBefore and
/// truncates to k (std::partial_sort; the whole vector is sorted when
/// k >= size, and k == 0 truncates to nothing).
void SortTopK(std::vector<SearchMatch>* matches, size_t k);

/// `top_k` sentinel for the scan pipeline: keep every match (threshold
/// mode, no ranking truncation). Distinct from k == 0, which is a valid
/// top-k request for an EMPTY ranking: QueryTopK(k = 0) is defined to
/// return an empty result (not an error) and is short-circuited at the API
/// boundary — no scan runs, so it cannot ride the SortTopK resize path or
/// the early-termination heap. Oversized k values are clamped below the
/// sentinel by the service layers, so SIZE_MAX never aliases it.
inline constexpr size_t kScanAllMatches = static_cast<size_t>(-1);

/// A pruning witness: "enough real matches rank at or before (phi, gbd)
/// under SearchMatchRankBefore". A candidate whose best reachable pair
/// ranks strictly after it can be skipped. The default value is no witness
/// (-infinity ranks after every real pair).
struct ScanWitness {
  double phi = -std::numeric_limits<double>::infinity();
  int64_t gbd = std::numeric_limits<int64_t>::max();
};

/// SearchMatchRankBefore on (phi, gbd) alone: higher phi first, then
/// smaller gbd.
inline bool WitnessRankBefore(const ScanWitness& a, const ScanWitness& b) {
  if (a.phi != b.phi) return a.phi > b.phi;
  return a.gbd < b.gbd;
}

/// Shared early-termination state of one top-k scan: one instance per
/// query, shared by every shard worker scanning that query
/// (service/parallel_scan.cc), or used alone by the serial scan. Workers
/// publish their local k-th-best (phi_score, gbd) pair — the root of a
/// full local heap — and read the best pair published by ANY worker, so one
/// shard's strong hits prune the other shards' tails, through the gbd
/// tie-break too.
///
/// The pair travels as one 64-bit key (Pack) whose unsigned order follows
/// the rank order: the high bits are phi's IEEE bits with the low
/// kDroppedPhiBits mantissa bits cut off, the low kGbdBits hold the
/// inverted gbd. Truncation rounds phi DOWN, so the decoded witness never
/// ranks ahead of the published pair: it is weaker, never unsound, and
/// exact whenever phi has no bits in the dropped range (phi = 0 — the
/// common k-th best once k exceeds the candidates with posterior mass —
/// always does). A gbd past kMaxPackedGbd is published with phi lowered by
/// one truncation step instead. Relaxed atomics suffice: the key is raised
/// by CAS-max and orders no other memory, and a stale read only weakens
/// pruning. Pruning skips only STRICTLY-worse candidates, so ties at the
/// bound are always evaluated and the survivors always contain the exact
/// top-k under SearchMatchRankBefore.
class ScanBounds {
 public:
  static constexpr int kGbdBits = 24;
  static constexpr int kDroppedPhiBits = kGbdBits - 1;
  static constexpr uint64_t kGbdMask = (uint64_t{1} << kGbdBits) - 1;
  /// The low half stores kGbdMask - gbd and is never 0, so key 0 can mean
  /// "no witness".
  static constexpr int64_t kMaxPackedGbd = static_cast<int64_t>(kGbdMask) - 1;

  explicit ScanBounds(size_t k) : k_(k) {}

  size_t k() const { return k_; }

  /// The best published witness, decoded; no witness (ScanWitness{}) until
  /// some worker has seen k matches.
  ScanWitness witness() const {
    return Unpack(key_.load(std::memory_order_relaxed));
  }

  /// Raises the shared witness to the pair (kth_phi, kth_gbd) if its key
  /// improves the published one.
  void Publish(double kth_phi, int64_t kth_gbd) {
    const uint64_t key = Pack(kth_phi, kth_gbd);
    uint64_t current = key_.load(std::memory_order_relaxed);
    while (key > current &&
           !key_.compare_exchange_weak(current, key,
                                       std::memory_order_relaxed)) {
    }
  }

  /// The packed key of (phi, gbd); 0 (no witness) when phi is NaN or
  /// negative, or when it cannot be weakened below an oversized gbd.
  static uint64_t Pack(double phi, int64_t gbd);
  /// The witness a key stands for; never ranks ahead of the packed pair.
  static ScanWitness Unpack(uint64_t key);

 private:
  size_t k_;
  std::atomic<uint64_t> key_{0};
};

/// Outcome of one query.
struct SearchResult {
  std::vector<SearchMatch> matches;
  double seconds = 0.0;
  /// Candidates admitted past the prefilter. Deterministic — top-k early
  /// termination does NOT change this counter (pruned candidates still
  /// count), so it stays bit-identical across exhaustive, pruned, serial
  /// and sharded scans.
  size_t candidates_evaluated = 0;
  /// Candidates removed by the prefilter (0 when it is disabled).
  size_t prefiltered_out = 0;
  /// Candidates whose branch intersection + posterior evaluation the bound
  /// skipped (subset of candidates_evaluated; 0 for exhaustive scans). For
  /// threshold queries it is a function of the query alone — the gamma
  /// witness is constant — but for top-k it is timing-dependent under
  /// sharding (the shared witness tightens in worker order), so it is
  /// excluded from the bit-identity contract.
  size_t pruned_by_bound = 0;
  /// Approximate mode only: candidates the proximity-graph navigation
  /// visited and handed to verification (0 for exhaustive scans). Like
  /// pruned_by_bound it is a cost counter, excluded from the determinism
  /// comparisons the equivalence gates run.
  size_t candidates_visited = 0;
  /// Candidates whose branch intersection + posterior were actually
  /// computed (i.e. not skipped by the early-termination bound). Equals
  /// candidates_evaluated - pruned_by_bound on every path; tracked
  /// explicitly so approximate-mode verification cost is visible per query.
  /// Timing-dependent under sharding, excluded from determinism gates.
  size_t verified_count = 0;
};

/// A dense read-only view of the corpus a scan runs over: either a whole
/// GraphDatabase (the frozen offline world) or a snapshot's vector of live
/// graph pointers (the dynamic world, where dense position i maps to the
/// i-th live graph; see src/service/dynamic_service.h). Only size() and
/// graph() are ever needed by the scan, so both worlds share one code path
/// and stay bit-identical. The viewed storage must outlive the CorpusRef.
class CorpusRef {
 public:
  CorpusRef(const GraphDatabase* db) : db_(db) {}
  CorpusRef(const std::vector<const Graph*>* graphs) : graphs_(graphs) {}

  size_t size() const { return db_ ? db_->size() : graphs_->size(); }
  const Graph& graph(size_t i) const {
    return db_ ? db_->graph(i) : *(*graphs_)[i];
  }

 private:
  const GraphDatabase* db_ = nullptr;
  const std::vector<const Graph*>* graphs_ = nullptr;
};

/// Per-query state shared by every candidate evaluation of one query:
/// the query's branch multiset (plus its flattened form, see below), its
/// filter profile (when the prefilter is on) and the GBDA-V1
/// database-average size estimate. Computed once by PrepareScan, then
/// read-only — safe to share across shard workers.
struct ScanContext {
  /// Move-only: query_ref points into this context's own buffers, so an
  /// implicit copy would silently alias the source's heap storage. Moves
  /// are safe — the vectors keep their heap buffers, so the ref stays
  /// valid across moves (PrepareScan's return path relies on that).
  ScanContext() = default;
  ScanContext(ScanContext&&) = default;
  ScanContext& operator=(ScanContext&&) = default;
  ScanContext(const ScanContext&) = delete;
  ScanContext& operator=(const ScanContext&) = delete;

  SearchOptions options;
  bool apply_gamma = true;
  BranchMultiset query_branches;
  /// query_branches flattened into contiguous arrays (the layout a mapped
  /// candidate already has), so the merge loop walks flat root arrays on
  /// both sides for every one of the O(corpus * |q|) comparisons. Built
  /// once per query here rather than per (query, shard) task.
  std::vector<uint32_t> query_roots;
  std::vector<uint64_t> query_offsets;  // query_branches.size() + 1 entries
  std::vector<LabelId> query_pool;
  /// The flat view over the three arrays above (valid across moves, see
  /// the class comment).
  BranchSetRef query_ref;

  /// The query's branch fingerprints, sorted ascending — the query side of
  /// every common-branch count: the range scan's postings pass
  /// (CountCommonBranches) and the listed scan's per-candidate merges,
  /// read by tier 2 and (when fp_exact below holds) by the exact
  /// fingerprint-scoring path. Always built; same content as
  /// query_profile.branch_keys when that profile exists.
  std::vector<uint64_t> query_fps;
  /// One distinct query fingerprint as a posting list of the index it was
  /// prepared against: `slot` indexes fp_unique / posting_offsets (==
  /// num_distinct when the corpus lacks the key), `multiplicity` counts the
  /// query positions the key covers.
  struct QueryPosting {
    uint64_t slot;
    uint32_t multiplicity;
  };
  /// The query's distinct fingerprints, shortest posting list first (an
  /// absent key has none, so it comes first; ties keep key order). The
  /// pruning range scans and SeedRankWitness walk a prefix of these (see
  /// ScanRange). Looked up once per query, in the same pass as the
  /// exactness audit below.
  std::vector<QueryPosting> query_postings;
  /// The fp_unique column the slots above index; ScanRange walks them only
  /// against the same column, and scans any other backing without them.
  const uint64_t* postings_of = nullptr;
  /// True when fingerprint intersections against THIS index are provably
  /// exact for this query: the index's columns carry the corpus-injectivity
  /// directory (CandidateColumns::exactness_certified) AND the query-side
  /// audit in PrepareScan found no collision among the query's own branches
  /// or against the directory's representatives. The scan then scores
  /// non-weighted variants as phi = max_size - |query_fps ∩ candidate fps|
  /// — equal to GbdFromBranches by injectivity, at a fraction of the cost.
  /// Never set for GbdaVariant::kWeightedGbd (Vgbd needs the branch
  /// multisets themselves).
  bool fp_exact = false;

  /// Built when the prefilter is on (its pass/fail test reads it) and for
  /// approximate ranking scans (navigation reads branch_keys).
  FilterProfile query_profile;
  int64_t v1_size = 0;  // only meaningful for GbdaVariant::kAverageSize
};

/// The query-independent checks PrepareScan runs first: fails when
/// options.tau_hat is outside [0, tau_max] of the index (InvalidArgument),
/// when the corpus and index disagree on the graph count (a stale index
/// artifact would otherwise drive out-of-bounds branch lookups in
/// ScanRange), and when the index is tombstoned (both FailedPrecondition).
/// A batch runs it once, before any query is prepared.
Status CheckScanPreconditions(const SearchOptions& options,
                              const CorpusRef& corpus,
                              const IndexReader& index);

/// Validates options against the index (CheckScanPreconditions) and
/// computes the per-query state. Deterministic in options.seed (the V1
/// sample).
Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const CorpusRef& corpus,
                                const IndexReader& index);

/// Evaluates candidates with ids in [begin, end), appending accepted
/// matches to result->matches (in ascending id order) and accumulating
/// candidates_evaluated / prefiltered_out, so per-shard results sum to the
/// serial scan's counters. `prefilter` may be null when
/// ctx.options.use_prefilter is false; candidate sizes and fingerprints
/// always come from index.columns().
/// Thread-compatible: concurrent calls are safe when each uses its own
/// `posterior` and `result` (the index, prefilter and ctx are only read;
/// `bounds` is internally synchronized).
///
/// Unless ctx.options.topk_early_termination is off, the call skips a
/// candidate — counting it in pruned_by_bound instead of scoring it — when
/// it provably cannot be returned:
///  - threshold scans (ctx.apply_gamma, gamma > 0): its Phi upper bound is
///    strictly below gamma, so Step 4 would reject it;
///  - ranking scans with a non-null `bounds` (bounds->k() >= 1): it ranks
///    strictly after a (phi_score, gbd) witness of k matches — the root of
///    the call's own heap of the k best pairs it appended, or the best
///    cross-shard witness in bounds->witness().
/// The proof pushes a GBD lower bound — from the size column (tier 1,
/// O(1)), then from the candidate's fingerprint common-branch count
/// (tier 2: one read of the count the call's single postings pass over
/// [begin, end) filled in, see CountCommonBranches) — through
/// PosteriorEngine::PhiSuffixMax; a tie in the
/// bounded phi falls through to the gbd tie-break, so ranking pruning stays
/// live even when the k-th best phi_score is exactly 0. Every skip is
/// provably outside the answer, so the threshold matches and (after
/// SortTopK) the ranking are bit-identical to the exhaustive scan (see
/// ScanBounds).
///
/// A pruning scan of a non-weighted variant skips the postings pass when it
/// knows a radius D (prefix filter): a candidate missing more than D query
/// branch positions has GBD > D and is provably outside the answer, so it
/// shares at least one of any D + 1 query positions if it can be returned.
/// The scan then walks the postings of ctx.query_postings, rarest first,
/// until they cover D + 1 positions, and evaluates only the candidates they
/// touch, in ascending id order; every other candidate counts in
/// candidates_evaluated and in pruned_by_bound without a visit. Phi is
/// exactly 0 past phi = 2 * tau_hat, so
///  - the gamma cut has D = 2 * tau_hat;
///  - a ranking scan whose `bounds` already hold a witness (Phi_w, G_w) —
///    from SeedRankWitness or another shard — has D = 2 * tau_hat when
///    Phi_w > 0, else D = max(2 * tau_hat, G_w): a candidate past D has
///    Phi == 0 and, for Phi_w == 0, a gbd larger than G_w.
/// A ranking scan without a witness, the weighted variant, a query with at
/// most D branches and a context prepared against another column run the
/// pass.
Status ScanRange(const ScanContext& ctx, const IndexReader& index,
                 const Prefilter* prefilter, size_t begin, size_t end,
                 PosteriorEngine* posterior, SearchResult* result,
                 ScanBounds* bounds = nullptr);

/// Arms a ranking scan's `bounds` before any range of it is scanned, so the
/// first block of every shard prunes and ScanRange can walk (see above).
/// Walks the postings of ctx.query_postings over the whole corpus, rarest
/// first, until 2 * tau_hat + 1 positions are covered; scores the k
/// touched ids that share the most walked positions (ties to the smaller
/// id; under use_prefilter, only ids the prefilter admits) with the scan's
/// own arithmetic, and publishes their k-th best (phi_score, gbd). Those
/// are k real matches, so the witness is sound. Publishes nothing for
/// threshold contexts, bounds->k() == 0, the weighted variant, a context
/// prepared against another column, when fewer than k ids qualify, or when
/// a seed's GBD lower bound already puts the witness radius past the query
/// (no range could walk). Counts nothing in any SearchResult: the scan
/// scores the seeds again. Thread-compatible under the same rules as
/// ScanRange.
Status SeedRankWitness(const ScanContext& ctx, const IndexReader& index,
                       const Prefilter* prefilter, PosteriorEngine* posterior,
                       ScanBounds* bounds);

/// Evaluates exactly the candidates listed in `ids` (any order; ids must be
/// distinct — a repeated id would append its match twice) with the SAME
/// arithmetic as ScanRange — prefilter
/// admission, branch-multiset GBD, posterior, variant handling — so a match
/// this call appends is bit-identical to the one the exhaustive scan would
/// append for that id. This is the verification half of approximate mode
/// (src/ann navigates, this call scores); counters accumulate like
/// ScanRange's, plus verified_count for candidates actually scored.
///
/// `bounds` non-null arms the same PR-5 admissible early termination as
/// ScanRange (ranking scans only): a candidate provably ranking strictly
/// after the k-th-best witness is counted in pruned_by_bound instead of
/// scored. Skips are sound within the listed set — the surviving matches
/// always contain the exact top-k OF THE LISTED CANDIDATES — so
/// approximate-mode results stay a subset of the exhaustive ranking with
/// exact scores. Thread-compatible under the same rules as ScanRange.
/// Every id must be < index.num_graphs() (checked; out-of-range fails).
Status ScanCandidateList(const ScanContext& ctx, const IndexReader& index,
                         const Prefilter* prefilter,
                         const std::vector<uint32_t>& ids,
                         PosteriorEngine* posterior, SearchResult* result,
                         ScanBounds* bounds = nullptr);

/// The online stage of GBDA (Algorithm 1, Steps 2-4): per database graph,
/// compute GBD from precomputed branches, evaluate the posterior
/// Pr[GED <= tau_hat | GBD] and keep graphs passing the probability
/// threshold. O(nd + tau_hat^3) per graph as analysed in Theorem 3.
class GbdaSearch {
 public:
  /// Checked construction: fails when `index` does not agree with `db`
  /// (graph counts and per-graph branch sizes), e.g. a stale index
  /// artifact. Prefer this over the raw constructor whenever the index
  /// provenance is not statically known. Accepts any IndexReader — an
  /// owned GbdaIndex or a mapped GbdaIndexView.
  static Result<std::unique_ptr<GbdaSearch>> Create(const GraphDatabase* db,
                                                    const IndexReader* index);

  /// `db` and `index` must outlive the search object. The index must have
  /// been built over exactly this database (Create enforces this; the raw
  /// constructor defers the check to query time, where PrepareScan rejects
  /// a size mismatch before any out-of-bounds access can happen).
  GbdaSearch(const GraphDatabase* db, const IndexReader* index);

  /// Runs one similarity query. Fails when options.tau_hat exceeds the
  /// index's tau_max. Cuts candidates whose Phi upper bound is below gamma
  /// unless options.topk_early_termination is off — bit-identical either
  /// way.
  Result<SearchResult> Query(const Graph& query, const SearchOptions& options);

  /// Top-k variant: the k database graphs with the highest posterior
  /// Pr[GED <= tau_hat | GBD], ignoring the gamma threshold (ties broken by
  /// smaller GBD, then id). Useful when the caller wants a ranking rather
  /// than a yes/no set. k == 0 returns an empty result without scanning
  /// (see kScanAllMatches for the sentinel/zero distinction). Runs the
  /// early-terminated scan unless options.topk_early_termination is off —
  /// bit-identical either way.
  Result<SearchResult> QueryTopK(const Graph& query, size_t k,
                                 const SearchOptions& options);

  /// Posterior engine statistics (memoisation effectiveness), for benches.
  const PosteriorEngine& posterior() const { return posterior_; }

 private:
  /// Shared scan: evaluates Phi for every (or every surviving) candidate.
  /// `top_k` != kScanAllMatches arms early termination on ranking scans
  /// (when options.topk_early_termination is set); the result is still the
  /// full untruncated match list — QueryTopK sorts and truncates it.
  Result<SearchResult> Scan(const Graph& query, const SearchOptions& options,
                            bool apply_gamma,
                            size_t top_k = kScanAllMatches);

  const GraphDatabase* db_;
  const IndexReader* index_;
  PosteriorEngine posterior_;
  /// Built on the first prefiltered query: profile extraction is O(corpus)
  /// and cold-start sensitive (bench/bench_coldstart.cc), so queries that
  /// never enable the prefilter never pay for it. call_once keeps
  /// concurrent Query calls as safe as they were with the eager member
  /// (the engine is internally synchronized already).
  std::once_flag prefilter_once_;
  std::unique_ptr<Prefilter> prefilter_;
};

}  // namespace gbda
