#include "core/gbda_search.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "core/candidate_columns.h"

namespace gbda {

bool SearchMatchRankBefore(const SearchMatch& a, const SearchMatch& b) {
  if (a.phi_score != b.phi_score) return a.phi_score > b.phi_score;
  if (a.gbd != b.gbd) return a.gbd < b.gbd;
  return a.graph_id < b.graph_id;
}

void SortTopK(std::vector<SearchMatch>* matches, size_t k) {
  if (k >= matches->size()) {
    std::sort(matches->begin(), matches->end(), SearchMatchRankBefore);
    return;
  }
  std::partial_sort(matches->begin(),
                    matches->begin() + static_cast<ptrdiff_t>(k),
                    matches->end(), SearchMatchRankBefore);
  matches->resize(k);
}

uint64_t ScanBounds::Pack(double phi, int64_t gbd) {
  if (!(phi >= 0.0)) return 0;
  uint64_t bits = 0;
  if (phi != 0.0) std::memcpy(&bits, &phi, sizeof bits);  // -0.0 packs as +0
  // Non-negative doubles order like their bit patterns; dropping the low
  // mantissa bits rounds phi down.
  const uint64_t phi_hi = bits >> kDroppedPhiBits;
  // Unsigned, so a (never produced) negative gbd also takes the weakened
  // path below instead of corrupting the phi bits.
  const uint64_t g = static_cast<uint64_t>(gbd);
  if (g <= static_cast<uint64_t>(kMaxPackedGbd)) {
    return (phi_hi << kGbdBits) | (kGbdMask - g);
  }
  // Too large to pack: one truncation step below phi ranks strictly after
  // the pair whatever the gbd, so the strongest low half stays sound.
  if (phi_hi == 0) return 0;
  return ((phi_hi - 1) << kGbdBits) | kGbdMask;
}

ScanWitness ScanBounds::Unpack(uint64_t key) {
  if (key == 0) return ScanWitness{};
  const uint64_t bits = (key >> kGbdBits) << kDroppedPhiBits;
  ScanWitness w;
  std::memcpy(&w.phi, &bits, sizeof bits);
  w.gbd = static_cast<int64_t>(kGbdMask - (key & kGbdMask));
  return w;
}

Result<ScanContext> PrepareScan(const Graph& query,
                                const SearchOptions& options, bool apply_gamma,
                                const CorpusRef& corpus,
                                const IndexReader& index) {
  if (options.tau_hat < 0 || options.tau_hat > index.tau_max()) {
    return Status::InvalidArgument(
        "tau_hat outside the range supported by this index");
  }
  if (corpus.size() != index.num_graphs()) {
    return Status::FailedPrecondition(
        "index/database mismatch: index covers " +
        std::to_string(index.num_graphs()) + " graphs, corpus holds " +
        std::to_string(corpus.size()) + " (stale index artifact?)");
  }
  // A tombstoned index would have its retired slots scanned as empty
  // multisets here (dynamic snapshots are dense CompactViews, so they pass).
  if (index.num_live() != index.num_graphs()) {
    return Status::FailedPrecondition(
        "index is tombstoned: the frozen scan cannot serve a mutated "
        "corpus — use DynamicGbdaService");
  }
  ScanContext ctx;
  ctx.options = options;
  ctx.apply_gamma = apply_gamma;
  ctx.query_branches = ExtractBranches(query);
  // Flatten the query multiset once per query (see ScanContext::query_ref):
  // same (root, labels) content, so the intersection count — and every
  // score derived from it — is unchanged.
  const size_t query_size = ctx.query_branches.size();
  ctx.query_roots.resize(query_size);
  ctx.query_offsets.assign(query_size + 1, 0);
  for (size_t i = 0; i < query_size; ++i) {
    const Branch& b = ctx.query_branches[i];
    ctx.query_roots[i] = b.root;
    ctx.query_pool.insert(ctx.query_pool.end(), b.edge_labels.begin(),
                          b.edge_labels.end());
    ctx.query_offsets[i + 1] = ctx.query_pool.size();
  }
  ctx.query_ref = BranchSetRef(ctx.query_roots.data(),
                               ctx.query_offsets.data(),
                               ctx.query_pool.data(), query_size);
  // The query's sorted branch fingerprints: the query side of every kernel
  // call the scan makes. Kept as (fp, branch) pairs through the sort so the
  // audit below can map a colliding key back to its branch content.
  std::vector<std::pair<uint64_t, uint32_t>> fp_idx(query_size);
  for (size_t i = 0; i < query_size; ++i) {
    const Span<const LabelId> labels = ctx.query_ref.edge_labels(i);
    fp_idx[i] = {BranchFingerprint(ctx.query_roots[i], labels.data(),
                                   labels.size()),
                 static_cast<uint32_t>(i)};
  }
  std::sort(fp_idx.begin(), fp_idx.end());
  ctx.query_fps.resize(query_size);
  for (size_t i = 0; i < query_size; ++i) {
    ctx.query_fps[i] = fp_idx[i].first;
  }
  // One pass over the distinct keys finds each one's posting slot (see
  // ScanContext::query_postings) and runs the query-side exactness audit
  // (see ScanContext::fp_exact): with the corpus side already certified
  // injective by the index's directory, fingerprint scoring is exact iff
  // the query introduces no collision either — among its own branches, or
  // against the directory representative of any fingerprint it shares with
  // the corpus. Any failure just falls back to the exact branch merges;
  // results are bit-identical either way.
  const CandidateColumns columns = index.columns();
  ctx.fp_exact = columns.exactness_certified() &&
                 options.variant != GbdaVariant::kWeightedGbd;
  ctx.postings_of = columns.fp_unique;
  const uint64_t* const unique_end = columns.fp_unique + columns.num_distinct;
  const uint64_t* it = columns.fp_unique;
  for (size_t i = 0; i < query_size; ++i) {
    if (i > 0 && fp_idx[i].first == fp_idx[i - 1].first) {
      ++ctx.query_postings.back().multiplicity;
      // Duplicate key within the query: exact only if the contents agree
      // (a true duplicate branch). Checking adjacent pairs covers the whole
      // run, and the first pair already vetted this key against the
      // directory.
      ctx.fp_exact = ctx.fp_exact &&
                     SameBranchContent(ctx.query_ref, fp_idx[i].second,
                                       ctx.query_ref, fp_idx[i - 1].second);
      continue;
    }
    // Keys ascend, so each search starts where the last one ended.
    it = std::lower_bound(it, unique_end, fp_idx[i].first);
    const bool present = it != unique_end && *it == fp_idx[i].first;
    const uint64_t slot = static_cast<uint64_t>(it - columns.fp_unique);
    ctx.query_postings.push_back(
        {present ? slot : columns.num_distinct, uint32_t{1}});
    if (ctx.fp_exact && present) {
      // The corpus holds this key too; injectivity corpus-wide means ONE
      // content compare against the representative settles every corpus
      // branch with it.
      const uint64_t rep = columns.fp_rep[slot];
      ctx.fp_exact = SameBranchContent(
          ctx.query_ref, fp_idx[i].second,
          index.branch_set(static_cast<size_t>(rep >> 32)),
          static_cast<size_t>(rep & 0xFFFFFFFFull));
    }
  }
  const auto posting_length = [&](const ScanContext::QueryPosting& p) {
    return p.slot == columns.num_distinct
               ? uint64_t{0}
               : columns.posting_offsets[p.slot + 1] -
                     columns.posting_offsets[p.slot];
  };
  std::stable_sort(ctx.query_postings.begin(), ctx.query_postings.end(),
                   [&](const ScanContext::QueryPosting& a,
                       const ScanContext::QueryPosting& b) {
                     return posting_length(a) < posting_length(b);
                   });
  // The prefilter's pass/fail test reads the profile, and approximate
  // ranking scans navigate the proximity graph by its sorted branch
  // fingerprints. Every other scan reads candidate sizes and fingerprints
  // from the index columns only, so it skips the build.
  if (options.use_prefilter || (!apply_gamma && options.approximate)) {
    // Reuses the branches extracted above instead of a second pass.
    ctx.query_profile = BuildFilterProfile(query, ctx.query_branches);
  }

  // GBDA-V1 replaces the pair-specific |V'1| by a database average estimated
  // from alpha sampled graphs. Sampled once per query so every shard of the
  // same query sees the same estimate.
  if (options.variant == GbdaVariant::kAverageSize) {
    Rng rng(options.seed);
    const size_t alpha =
        std::max<size_t>(1, std::min(options.v1_sample_alpha, corpus.size()));
    const std::vector<size_t> picks =
        rng.SampleWithoutReplacement(corpus.size(), alpha);
    double sum = 0.0;
    for (size_t id : picks) {
      sum += static_cast<double>(corpus.graph(id).num_vertices());
    }
    ctx.v1_size = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(sum / static_cast<double>(alpha))));
  }
  return ctx;
}

namespace {

/// A candidate's common-count cap when no prefix walk bounds it.
constexpr int64_t kNoCap = std::numeric_limits<int64_t>::max();

/// The two id sequences the shared evaluation loop runs over: a contiguous
/// [begin, begin + count) range (ScanRange) and an explicit candidate list
/// (ScanCandidateList, the verification half of approximate mode, and the
/// candidates a gamma cut's prefix walk touched). Both are trivial index
/// adapters so the loop below compiles to the same code the plain range
/// scan had. Each also supplies the candidates' fingerprint common-branch
/// counts — intersect_count(query_fps, fp_keys(id)), the one number tier 2
/// and the fp-exact scoring need — in the way that suits its shape, and a
/// cap on each count known before any is read (kCapped sequences only;
/// kNoCap when none).
struct ContiguousIds {
  static constexpr bool kCapped = false;
  size_t begin;
  size_t count;
  size_t size() const { return count; }
  size_t operator[](size_t i) const { return begin + i; }

  /// A whole range pays one postings pass (CountCommonBranches) into a
  /// per-worker scratch array; a count is then one load.
  struct Counts {
    const uint32_t* slots;
    size_t begin;
    int64_t operator()(size_t id) const { return slots[id - begin]; }
  };
  Counts CommonCounts(const ScanContext& ctx, const CandidateColumns& columns,
                      const ScanKernels& /*kernels*/) const {
    // Overwritten by this thread's next range scan; safe because no scan
    // runs nested inside another on one thread.
    thread_local std::vector<uint32_t> scratch;
    scratch.resize(count);
    CountCommonBranches(columns, ctx.query_fps.data(), ctx.query_fps.size(),
                        begin, begin + count, scratch.data());
    return Counts{scratch.data(), begin};
  }
};

struct ListedIds {
  static constexpr bool kCapped = true;
  const uint32_t* ids;
  size_t count;
  /// Per-id common-count caps from a prefix walk (WalkPrefix), or null.
  const uint32_t* caps = nullptr;
  size_t size() const { return count; }
  size_t operator[](size_t i) const { return ids[i]; }
  int64_t common_cap(size_t i) const { return caps ? caps[i] : kNoCap; }

  /// A short list (about a navigation window, or what a prefix walk
  /// touched) merges per candidate: a postings pass would walk the whole
  /// corpus's lists for a few ids.
  struct Counts {
    const uint64_t* query_keys;
    size_t num_query_keys;
    CandidateColumns columns;
    const ScanKernels* kernels;
    int64_t operator()(size_t id) const {
      const uint64_t lo = columns.fp_offsets[id];
      return kernels->intersect_count(
          query_keys, num_query_keys, columns.fp_keys + lo,
          static_cast<size_t>(columns.fp_offsets[id + 1] - lo));
    }
  };
  Counts CommonCounts(const ScanContext& ctx, const CandidateColumns& columns,
                      const ScanKernels& kernels) const {
    return Counts{ctx.query_fps.data(), ctx.query_fps.size(), columns,
                  &kernels};
  }
};

/// One evaluation loop for both entry points: candidate admission, the
/// two-tier early-termination bound, the branch-merge + posterior scoring
/// and the witness bookkeeping are shared verbatim, so a match appended for
/// id X is bit-identical whichever sequence listed X — the property
/// approximate mode's "subset with exact scores" contract rests on.
template <typename IdSeq>
Status ScanIdSequence(const ScanContext& ctx, const IndexReader& index,
                      const Prefilter* prefilter, const IdSeq& id_seq,
                      PosteriorEngine* posterior, SearchResult* result,
                      ScanBounds* bounds) {
  const SearchOptions& options = ctx.options;
  const BranchSetRef& query_branches = ctx.query_ref;
  const size_t range = id_seq.size();
  // Resolved once per scan call: the GBDA_FORCE_SCALAR_KERNELS environment
  // override, then the per-scan knob, then cpuid (common/kernels.h). Both
  // tables compute identical values, so everything downstream is
  // bit-identical whichever is picked.
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(options.kernel_dispatch));
  const CandidateColumns columns = index.columns();
  // Armed by PrepareScan's query-side audit; the column re-check guards a
  // context paired with a different backing than it was prepared against
  // (it can only disable, never wrongly enable).
  const bool fp_exact = ctx.fp_exact && columns.exactness_certified();
  // Bound pruning (see SearchOptions::topk_early_termination). A threshold
  // scan's witness is the constant (gamma, +inf gbd): "strictly worse" is
  // then exactly Phi_ub < gamma, i.e. Step 4 would reject. A ranking scan's
  // witness is the stronger of the local k-th best and the cross-shard one.
  // The ctx flag is part of both guards, so a context prepared with
  // topk_early_termination off always scans exhaustively.
  const bool rank_prune = bounds != nullptr && !ctx.apply_gamma &&
                          bounds->k() > 0 && options.topk_early_termination;
  const bool gamma_prune = ctx.apply_gamma && options.gamma > 0.0 &&
                           options.topk_early_termination;
  // The k best (phi_score, gbd) pairs appended by THIS call under
  // WitnessRankBefore (ids never matter: pruning tests are strictly-worse
  // only); priority_queue's root is then the worst retained pair, i.e. the
  // local k-th best. Keeping gbd alongside phi lets the bound prune through
  // the tie-break too — essential when the k-th best phi_score is exactly 0
  // (more ranks requested than candidates with posterior mass), where a
  // phi-only threshold could never prune. Only full heaps yield witnesses,
  // so a shard with fewer than k candidates never publishes.
  std::priority_queue<ScanWitness, std::vector<ScanWitness>,
                      decltype(&WitnessRankBefore)>
      local_topk(&WitnessRankBefore);
  // Scan-local copies of the per-size Phi suffix-max tables, so the
  // per-candidate bound check never takes an engine mutex round trip (same
  // reasoning as local_phi below). Tables are tiny: min(v, 2 * tau_hat) + 1
  // doubles. Keyed by extended size v; owns the storage the per-size
  // arrays below point into (node-based map: stable value addresses).
  std::unordered_map<int64_t, std::vector<double>> local_suffix_max;
  // Everything tier 1 needs is determined by the candidate's multiset size
  // alone (the query side is fixed), so it is computed once per distinct
  // size and the per-candidate check collapses to two array loads and two
  // compares. tier1_lb[s] == -1 marks an uncomputed slot.
  std::vector<int64_t> tier1_lb;
  std::vector<double> tier1_ub;
  std::vector<const std::vector<double>*> table_by_size;
  // Only the no-gamma, no-prefilter scan has a known match count (every
  // candidate); under the gamma cut or the prefilter the accepted set is
  // small in real workloads, so a modest reservation avoids the early
  // doubling churn without over-allocating per shard.
  const size_t expected =
      !ctx.apply_gamma && !options.use_prefilter
          ? range
          : std::min<size_t>(range, 64);
  result->matches.reserve(result->matches.size() + expected);
  // Scan-local Phi cache. tau_hat is fixed for the whole scan, so (v, phi)
  // keys the posterior value; a database scan repeats the same few hundred
  // pairs thousands of times, and answering repeats here — without the
  // engine's mutex + global-map round trip — is what keeps the per-candidate
  // cost near the branch intersection itself. Pure memoisation of a
  // deterministic function: results stay bit-identical, per shard and
  // serially (the engine's own cross-query memo is unchanged).
  std::unordered_map<uint64_t, double> local_phi;

  // The candidate's phi can only land at or above the phi_lb derived from
  // a common-branch UPPER bound: GBD (and, for w >= 0, the rounded VGBD —
  // llround is monotone) decreases as the common count grows. phi_lb also
  // bounds the ranking's gbd field directly (the scan stores the variant
  // phi there), so one quantity serves both the suffix-max lookup and the
  // tie-break test.
  const auto phi_lower = [&](int64_t max_size, int64_t common_ub) -> int64_t {
    if (options.variant == GbdaVariant::kWeightedGbd) {
      const double vgbd_lb =
          options.vgbd_w >= 0.0
              ? static_cast<double>(max_size) -
                    options.vgbd_w * static_cast<double>(common_ub)
              : static_cast<double>(max_size);
      return std::max<int64_t>(0,
                               static_cast<int64_t>(std::llround(vgbd_lb)));
    }
    return max_size - common_ub;
  };
  // The Phi upper bound at a phi lower bound: past Phi's support it is an
  // exact zero.
  const auto phi_upper = [](const std::vector<double>& suffix_max,
                            int64_t phi_lb) {
    return static_cast<size_t>(phi_lb) < suffix_max.size()
               ? suffix_max[static_cast<size_t>(phi_lb)]
               : 0.0;
  };
  // The candidates' fingerprint common-branch counts: an upper bound on the
  // common BRANCH count (collisions only overcount), and the exact count on
  // an fp_exact scan. Read by tier 2 and by fp-exact scoring, so an
  // exhaustive scan that scores by branch merges skips the range pass.
  typename IdSeq::Counts common_of{};
  if (rank_prune || gamma_prune || fp_exact) {
    common_of = id_seq.CommonCounts(ctx, columns, kernels);
  }

  // The scan runs in blocks: admission (stage A), then one batched bound
  // evaluation against the block-frozen witness state (stage B), then
  // scoring of the survivors (stage C). Freezing the witnesses for a block
  // prunes a SUBSET of what per-candidate refresh would prune, and pruning
  // only ever removes candidates provably outside the top-k, so the final
  // ranking stays bit-identical (the same argument that makes the
  // cross-shard witness — stale in exactly the same way — sound).
  // candidates_evaluated / prefiltered_out are stage-A facts and keep
  // their determinism contract; a ranking scan's pruned_by_bound /
  // verified_count move with the block boundary but were already excluded
  // from the bit-identity gates (see SearchResult). The gamma witness is
  // constant, so a threshold scan prunes the same candidates whatever the
  // blocks or shards.
  //
  // Warm-up schedule: blocks double from 16 to 128. The witness only arms
  // at a block boundary, so a fixed 128 would leave small corpora (or the
  // head of any scan) entirely unpruned; starting small activates pruning
  // within the first dozen-odd candidates while steady state still runs
  // full-width batches. The schedule is a pure function of the iteration
  // count — independent of dispatch and of the data — so it cannot perturb
  // the bit-identity contract.
  constexpr size_t kScanBlockMax = 128;
  std::vector<size_t> blk_ids;
  blk_ids.reserve(kScanBlockMax);
  std::vector<uint32_t> blk_sizes(kScanBlockMax);
  std::vector<uint32_t> blk_lb(kScanBlockMax);
  std::vector<char> blk_keep(kScanBlockMax);
  std::vector<int64_t> blk_cap(kScanBlockMax);
  // Each admitted candidate's count, read at most once per candidate (-1 =
  // not read yet): a listed scan then merges a tier-2 survivor once, not
  // again when it is scored.
  std::vector<int64_t> blk_common(kScanBlockMax);
  const auto common_at = [&](size_t j) {
    if (blk_common[j] < 0) blk_common[j] = common_of(blk_ids[j]);
    return blk_common[j];
  };

  size_t block_size = 16;
  for (size_t base = 0; base < range;
       block_size = std::min(kScanBlockMax, block_size * 2)) {
    const size_t block_begin = base;
    const size_t block_end = std::min(range, base + block_size);
    base = block_end;
    // -- Stage A: admission ------------------------------------------------
    blk_ids.clear();
    for (size_t i = block_begin; i < block_end; ++i) {
      const size_t id = id_seq[i];
      if (options.use_prefilter &&
          !prefilter->Passes(ctx.query_profile, id, options.tau_hat)) {
        ++result->prefiltered_out;
        continue;
      }
      // Deterministic by design: pruned candidates still count, so this
      // counter stays bit-identical to the exhaustive scan (see
      // SearchResult).
      ++result->candidates_evaluated;
      blk_common[blk_ids.size()] = -1;
      if constexpr (IdSeq::kCapped) {
        blk_cap[blk_ids.size()] = id_seq.common_cap(i);
      }
      blk_ids.push_back(id);
    }
    if (blk_ids.empty()) continue;
    const size_t admitted = blk_ids.size();

    // -- Stage B: batched bounds under the block-frozen witness ------------
    // The witness of this block: the constant gamma cut, or the stronger
    // of the local k-th best and the cross-shard witness. Strictly worse
    // than the stronger one is the OR of strictly worse than either (the
    // rank order is total), so one comparison covers both.
    ScanWitness witness;
    if (gamma_prune) {
      witness.phi = options.gamma;
    } else if (rank_prune) {
      witness = bounds->witness();
      if (local_topk.size() >= bounds->k() &&
          WitnessRankBefore(local_topk.top(), witness)) {
        witness = local_topk.top();
      }
    }
    const bool do_prune =
        witness.phi > -std::numeric_limits<double>::infinity();
    if (do_prune) {
      for (size_t j = 0; j < admitted; ++j) {
        blk_sizes[j] = columns.sizes[blk_ids[j]];
      }
      // Tier 1 for the whole block in one kernel sweep: for non-weighted
      // variants the bound is exactly |query size - candidate size|.
      if (options.variant != GbdaVariant::kWeightedGbd) {
        kernels.tier1_size_bounds(blk_sizes.data(), admitted,
                                  static_cast<uint32_t>(query_branches.size()),
                                  blk_lb.data());
      }
      // True when the candidate provably ranks strictly after the witness
      // under SearchMatchRankBefore: its best reachable phi_score is
      // strictly below the witness phi, or ties it while its gbd can only
      // be strictly larger. Ties in both must be evaluated — the id
      // tie-break is not bounded.
      const auto strictly_worse = [&](double phi_ub, int64_t phi_lb) {
        return phi_ub < witness.phi ||
               (phi_ub == witness.phi && phi_lb > witness.gbd);
      };
      for (size_t j = 0; j < admitted; ++j) {
        blk_keep[j] = 1;
        const size_t g_size = blk_sizes[j];
        const int64_t max_size =
            static_cast<int64_t>(std::max(query_branches.size(), g_size));
        if (g_size >= tier1_lb.size()) {
          tier1_lb.resize(g_size + 1, -1);
          tier1_ub.resize(g_size + 1, 0.0);
          table_by_size.resize(g_size + 1, nullptr);
        }
        if (tier1_lb[g_size] < 0) {
          // First candidate of this size: v is exact from sizes alone. An
          // empty query against an empty graph still has v = 1 (the
          // posterior is defined for v >= 1 only).
          const int64_t v = options.variant == GbdaVariant::kAverageSize
                                ? ctx.v1_size
                                : std::max<int64_t>(1, max_size);
          auto table_it = local_suffix_max.find(v);
          if (table_it == local_suffix_max.end()) {
            Result<std::vector<double>> table =
                posterior->PhiSuffixMax(v, options.tau_hat);
            if (!table.ok()) return table.status();
            table_it = local_suffix_max.emplace(v, std::move(*table)).first;
          }
          const std::vector<double>& suffix_max = table_it->second;
          table_by_size[g_size] = &suffix_max;
          // Tier 1: the common count never exceeds the smaller multiset
          // (the kernel sweep above already computed the non-weighted
          // bound for this block).
          const int64_t lb =
              options.variant == GbdaVariant::kWeightedGbd
                  ? phi_lower(max_size,
                              static_cast<int64_t>(
                                  std::min(query_branches.size(), g_size)))
                  : static_cast<int64_t>(blk_lb[j]);
          tier1_lb[g_size] = lb;
          tier1_ub[g_size] = phi_upper(suffix_max, lb);
        }
        // Tier 1 costs two array loads; a prefix walk's cap one more; tier
        // 2 one count read (a merge, for a listed id) and one table load,
        // far cheaper than the full scoring it stands in for. The cap
        // bounds the count from above, so it prunes a subset of what tier
        // 2 prunes: it only saves the count.
        bool pruned = strictly_worse(tier1_ub[g_size], tier1_lb[g_size]);
        if constexpr (IdSeq::kCapped) {
          if (!pruned && blk_cap[j] < static_cast<int64_t>(std::min(
                                          query_branches.size(), g_size))) {
            const int64_t lb_cap = phi_lower(max_size, blk_cap[j]);
            pruned = strictly_worse(
                phi_upper(*table_by_size[g_size], lb_cap), lb_cap);
          }
        }
        if (!pruned) {
          const int64_t lb2 = phi_lower(max_size, common_at(j));
          pruned = strictly_worse(phi_upper(*table_by_size[g_size], lb2), lb2);
        }
        if (pruned) {
          ++result->pruned_by_bound;
          blk_keep[j] = 0;
        }
      }
    }

    // -- Stage C: score the survivors --------------------------------------
    for (size_t j = 0; j < admitted; ++j) {
      if (do_prune && !blk_keep[j]) continue;
      const size_t id = blk_ids[j];
      // Past every skip: this candidate pays the full scoring below.
      ++result->verified_count;

      int64_t phi;
      size_t g_size;
      if (fp_exact) {
        // Exact fingerprint scoring (see ScanContext::fp_exact): under the
        // certified-injective mapping the fingerprint intersection count IS
        // the branch-multiset intersection count, so the lexicographic
        // branch merge — and the candidate's branch arrays altogether — are
        // never touched.
        g_size = columns.sizes[id];
        phi = static_cast<int64_t>(std::max(query_branches.size(), g_size)) -
              common_at(j);
      } else {
        const BranchSetRef g_branches = index.branch_set(id);
        g_size = g_branches.size();
        if (options.variant == GbdaVariant::kWeightedGbd) {
          const double vgbd =
              Vgbd(query_branches, g_branches, options.vgbd_w);
          phi = std::max<int64_t>(0, static_cast<int64_t>(std::llround(vgbd)));
        } else {
          phi = static_cast<int64_t>(
              GbdFromBranches(query_branches, g_branches));
        }
      }

      const int64_t v =
          options.variant == GbdaVariant::kAverageSize
              ? ctx.v1_size
              : std::max<int64_t>(
                    1, static_cast<int64_t>(
                           std::max(query_branches.size(), g_size)));

      // v is bounded by vertex counts (LabelId-sized) so it always fits its
      // key half; phi normally is too, but the kWeightedGbd variant rounds
      // max_size - w * common with a caller-supplied w, which an extreme
      // weight can push past 32 bits — such pairs bypass the cache rather
      // than collide in it.
      double score;
      const bool cacheable = phi <= INT64_C(0xFFFFFFFF);
      const uint64_t key =
          (static_cast<uint64_t>(v) << 32) | static_cast<uint64_t>(phi);
      const auto cached = cacheable ? local_phi.find(key) : local_phi.end();
      if (cacheable && cached != local_phi.end()) {
        score = cached->second;
      } else {
        Result<double> phi_score = posterior->Phi(v, phi, options.tau_hat);
        if (!phi_score.ok()) return phi_score.status();
        score = *phi_score;
        if (cacheable) local_phi.emplace(key, score);
      }
      if (!ctx.apply_gamma || score >= options.gamma) {
        result->matches.push_back(SearchMatch{id, score, phi});
        if (rank_prune) {
          // Fold the match into the local top-k and publish the k-th-best
          // pair whenever the full heap's root improves — one shard's
          // strong hits then prune the other shards' tails through the
          // shared witness. The improved witness takes effect at the next
          // block boundary.
          const ScanWitness candidate{score, phi};
          if (local_topk.size() < bounds->k()) {
            local_topk.push(candidate);
            if (local_topk.size() == bounds->k()) {
              bounds->Publish(local_topk.top().phi, local_topk.top().gbd);
            }
          } else if (WitnessRankBefore(candidate, local_topk.top())) {
            local_topk.pop();
            local_topk.push(candidate);
            bounds->Publish(local_topk.top().phi, local_topk.top().gbd);
          }
        }
      }
    }
  }
  return Status::OK();
}

/// Candidate generation of the prefix filter (see ScanRange): walks the
/// postings of ctx.query_postings, rarest key first, restricted to the ids
/// in [begin, end), until at least `positions` query positions
/// (multiplicity included) are covered, or every key is. Returns in *ids
/// the ascending ids the walked keys touched, and in *caps each one's
/// common-count cap: its share min(query multiplicity, run) of the walked
/// keys plus every query position not walked.
void WalkPrefix(const ScanContext& ctx, const CandidateColumns& columns,
                size_t begin, size_t end, int64_t positions,
                std::vector<uint32_t>* ids, std::vector<uint32_t>* caps) {
  // Per-worker partial counts over the range, all zero between calls: only
  // touched slots are written, and they are zeroed again below. No scan
  // runs nested inside another on one thread.
  thread_local std::vector<uint32_t> partial;
  if (partial.size() < end - begin) partial.resize(end - begin, 0);
  ids->clear();
  int64_t covered = 0;
  for (const ScanContext::QueryPosting& key : ctx.query_postings) {
    if (covered >= positions) break;
    covered += key.multiplicity;
    // A key the corpus lacks covers its positions for free.
    if (key.slot == columns.num_distinct) continue;
    const uint32_t* const list_end =
        columns.posting_ids + columns.posting_offsets[key.slot + 1];
    const uint32_t* p = std::lower_bound(
        columns.posting_ids + columns.posting_offsets[key.slot], list_end,
        begin, [](uint32_t id, size_t b) { return id < b; });
    while (p != list_end && *p < end) {
      const uint32_t g = *p;
      uint32_t run = 1;
      while (++p != list_end && *p == g) ++run;
      uint32_t& count = partial[g - begin];
      if (count == 0) ids->push_back(g);
      count += std::min(run, key.multiplicity);
    }
  }
  std::sort(ids->begin(), ids->end());
  const uint32_t unwalked = static_cast<uint32_t>(
      static_cast<int64_t>(ctx.query_fps.size()) - covered);
  caps->resize(ids->size());
  for (size_t i = 0; i < ids->size(); ++i) {
    uint32_t& count = partial[(*ids)[i] - begin];
    (*caps)[i] = count + unwalked;
    count = 0;
  }
}

}  // namespace

Status ScanRange(const ScanContext& ctx, const IndexReader& index,
                 const Prefilter* prefilter, size_t begin, size_t end,
                 PosteriorEngine* posterior, SearchResult* result,
                 ScanBounds* bounds) {
  const CandidateColumns columns = index.columns();
  const int64_t two_tau = 2 * ctx.options.tau_hat;
  // The prefix filter (see the header) serves the gamma cut of the GBD
  // variants (VGBD can fall below the missed positions), for a query with
  // more than 2 * tau_hat branches whose postings were looked up in this
  // very column.
  const bool prefix = ctx.apply_gamma && ctx.options.gamma > 0.0 &&
                      ctx.options.topk_early_termination &&
                      ctx.options.variant != GbdaVariant::kWeightedGbd &&
                      ctx.postings_of == columns.fp_unique &&
                      static_cast<int64_t>(ctx.query_fps.size()) > two_tau;
  if (!prefix) {
    return ScanIdSequence(ctx, index, prefilter,
                          ContiguousIds{begin, end - begin}, posterior, result,
                          bounds);
  }
  std::vector<uint32_t> ids, caps;
  WalkPrefix(ctx, columns, begin, end, two_tau + 1, &ids, &caps);
  GBDA_RETURN_IF_ERROR(ScanIdSequence(ctx, index, prefilter,
                                      ListedIds{ids.data(), ids.size(),
                                                caps.data()},
                                      posterior, result, bounds));
  // Every id the walk missed has GBD > 2 * tau_hat, so Phi == 0 < gamma:
  // evaluated and pruned, without a visit.
  if (!ctx.options.use_prefilter) {
    const size_t unwalked = (end - begin) - ids.size();
    result->candidates_evaluated += unwalked;
    result->pruned_by_bound += unwalked;
    return Status::OK();
  }
  size_t w = 0;
  for (size_t id = begin; id < end; ++id) {
    if (w < ids.size() && ids[w] == id) {
      ++w;
    } else if (!prefilter->Passes(ctx.query_profile, id,
                                  ctx.options.tau_hat)) {
      ++result->prefiltered_out;
    } else {
      ++result->candidates_evaluated;
      ++result->pruned_by_bound;
    }
  }
  return Status::OK();
}

Status ScanCandidateList(const ScanContext& ctx, const IndexReader& index,
                         const Prefilter* prefilter,
                         const std::vector<uint32_t>& ids,
                         PosteriorEngine* posterior, SearchResult* result,
                         ScanBounds* bounds) {
  // The range scan's bounds are implicit in [0, num_graphs); a listed id is
  // caller data (the navigator, or eventually a wire client), so check it
  // before branch_set() would read out of bounds.
  for (uint32_t id : ids) {
    if (id >= index.num_graphs()) {
      return Status::InvalidArgument(
          "candidate id " + std::to_string(id) +
          " out of range for index of " + std::to_string(index.num_graphs()) +
          " graphs");
    }
  }
  return ScanIdSequence(ctx, index, prefilter, ListedIds{ids.data(), ids.size()},
                        posterior, result, bounds);
}

Result<std::unique_ptr<GbdaSearch>> GbdaSearch::Create(
    const GraphDatabase* db, const IndexReader* index) {
  Status agree = ValidateIndexForDatabase(*db, *index);
  if (!agree.ok()) return agree;
  return std::make_unique<GbdaSearch>(db, index);
}

GbdaSearch::GbdaSearch(const GraphDatabase* db, const IndexReader* index)
    : db_(db),
      index_(index),
      posterior_(index->num_vertex_labels(), index->num_edge_labels(),
                 index->tau_max(), index->mutable_ged_prior(),
                 &index->gbd_prior()) {}

Result<SearchResult> GbdaSearch::Scan(const Graph& query,
                                      const SearchOptions& options,
                                      bool apply_gamma, size_t top_k) {
  WallTimer timer;
  // Retired db slots would otherwise still be scanned (their index entries
  // are intact); PrepareScan catches the tombstoned-index direction.
  if (db_->has_tombstones()) {
    return Status::FailedPrecondition(
        "database is tombstoned: the frozen scan cannot serve a mutated "
        "corpus — use DynamicGbdaService");
  }
  Result<ScanContext> ctx =
      PrepareScan(query, options, apply_gamma, CorpusRef(db_), *index_);
  if (!ctx.ok()) return ctx.status();
  // Touch prefilter_ only on the use_prefilter branch: a non-prefiltered
  // query reading the pointer while another thread's call_once is
  // constructing it would be an unsynchronized read.
  //
  // k >= corpus can never prune (no k strictly-better matches exist), so
  // such scans skip the heap bookkeeping entirely and run exhaustively.
  const bool early_terminate = !apply_gamma && top_k != kScanAllMatches &&
                               top_k < db_->size() &&
                               options.topk_early_termination;
  const Prefilter* prefilter = nullptr;
  if (options.use_prefilter) {
    std::call_once(prefilter_once_,
                   [this] { prefilter_ = std::make_unique<Prefilter>(db_); });
    prefilter = prefilter_.get();
  }
  SearchResult result;
  ScanBounds bounds(top_k);
  Status scan = ScanRange(*ctx, *index_, prefilter, 0, db_->size(),
                          &posterior_, &result,
                          early_terminate ? &bounds : nullptr);
  if (!scan.ok()) return scan;
  result.seconds = timer.Seconds();
  return result;
}

Result<SearchResult> GbdaSearch::Query(const Graph& query,
                                       const SearchOptions& options) {
  return Scan(query, options, /*apply_gamma=*/true);
}

Result<SearchResult> GbdaSearch::QueryTopK(const Graph& query, size_t k,
                                           const SearchOptions& options) {
  // k == 0 asks for an empty ranking: defined as an empty result, decided
  // here at the API boundary so no scan runs (see kScanAllMatches).
  if (k == 0) return SearchResult{};
  // Clamp below the sentinel (as the service layers do) so an oversized k
  // cannot disarm the ranking sort; a scan never yields more matches than
  // the database has graphs, so the clamp is behavior-free.
  k = std::min(k, db_->size());
  Result<SearchResult> scan = Scan(query, options, /*apply_gamma=*/false, k);
  if (!scan.ok()) return scan.status();
  SearchResult result = std::move(*scan);
  SortTopK(&result.matches, k);
  return result;
}

}  // namespace gbda
