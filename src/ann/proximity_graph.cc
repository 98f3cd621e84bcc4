#include "ann/proximity_graph.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <utility>

#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace gbda {

ProximityGraphRef ProximityGraph::ref() const {
  ProximityGraphRef r;
  r.offsets = offsets.data();
  r.neighbors = neighbors.data();
  r.num_nodes = num_nodes();
  r.num_edges = neighbors.size();
  r.entry_point = entry_point;
  r.degree_bound = degree_bound;
  return r;
}

FingerprintStore FingerprintStore::FromPrefilter(const Prefilter& prefilter) {
  FingerprintStore store;
  const size_t n = prefilter.size();
  store.offsets_.assign(n + 1, 0);
  size_t total = 0;
  for (size_t id = 0; id < n; ++id) {
    total += prefilter.profile(id).branch_keys.size();
  }
  store.pool_.reserve(total);
  for (size_t id = 0; id < n; ++id) {
    const std::vector<uint64_t>& keys = prefilter.profile(id).branch_keys;
    store.pool_.insert(store.pool_.end(), keys.begin(), keys.end());
    store.offsets_[id + 1] = store.pool_.size();
  }
  return store;
}

FingerprintStore FingerprintStore::FromIndex(const IndexReader& index) {
  // The fingerprint column already holds every graph's sorted branch
  // fingerprints in exactly this store's layout: copy the blob wholesale.
  // (An empty fp_keys may be null; the empty range is never dereferenced.)
  const CandidateColumns columns = index.columns();
  const size_t n = index.num_graphs();
  FingerprintStore store;
  store.offsets_.assign(columns.fp_offsets, columns.fp_offsets + n + 1);
  store.pool_.assign(columns.fp_keys, columns.fp_keys + store.offsets_[n]);
  return store;
}

namespace {

/// The kernel table every distance of one build or one navigation call goes
/// through. Resolved once per call site, never per distance: ResolveKernels
/// reads the environment override on every call.
const ScanKernels& ActiveKernels() {
  return GetScanKernels(ResolveKernels(KernelDispatch::kAuto));
}

int64_t Distance(const ScanKernels& kernels, Span<const uint64_t> a,
                 Span<const uint64_t> b) {
  return static_cast<int64_t>(std::max(a.size(), b.size())) -
         kernels.intersect_count(a.data(), a.size(), b.data(), b.size());
}

/// One (distance, id) candidate; the pair order IS the navigation order —
/// ties in distance break by smaller id, keeping every search deterministic
/// on collision-heavy corpora.
using Candidate = std::pair<int64_t, uint32_t>;

/// Insertion batches grow 1, 2, 4, ... up to n / kBatchCapDivisor nodes.
/// Larger batches synchronize less but search a staler graph (no node of a
/// batch sees another's new edges); a ~6% cap keeps recall@10 at 1.0 on
/// the bench_recall corpora (docs/BENCHMARKS.md).
constexpr size_t kBatchCapDivisor = 16;

/// One thread's beam-search state, reused across searches: a visited array
/// stamped with an epoch (bumping the epoch clears it in O(1)), a min-heap
/// frontier of unexpanded candidates, a max-heap window of the best
/// candidates seen (worst on top), and the expansion log.
class BeamScratch {
 public:
  /// Clears the search state for ids in [0, n).
  void Reset(size_t n) {
    frontier.clear();
    window.clear();
    expanded.clear();
    NewEpoch(n);
  }

  /// Forgets every visit without touching the heaps or the log.
  void NewEpoch(size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
    if (++epoch_ == 0) {  // wrapped: old stamps would alias the new epoch
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `id` visited; false when it already was in this epoch.
  bool Visit(uint32_t id) {
    if (stamp_[id] == epoch_) return false;
    stamp_[id] = epoch_;
    return true;
  }

  std::vector<Candidate> frontier;
  std::vector<Candidate> window;
  std::vector<Candidate> expanded;

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// Beam search shared by the builder (adjacency still in per-node vectors)
/// and the query-time navigator (CSR ref): expand the closest unexpanded
/// candidate, keep the best `window` nodes seen, stop when a full window
/// beats the whole frontier. Leaves the expanded nodes, in expansion order
/// with their distances (the builder's RobustPrune pool), in
/// `s->expanded` and the final window, unordered, in `s->window`. The
/// caller Resets `s` first.
template <typename NeighborsFn, typename DistFn>
void BeamSearch(uint32_t entry, size_t window, const NeighborsFn& neighbors_of,
                const DistFn& dist_to, BeamScratch* s) {
  const std::greater<Candidate> min_heap;
  const Candidate start(dist_to(entry), entry);
  s->Visit(entry);
  s->frontier.push_back(start);
  s->window.push_back(start);
  while (!s->frontier.empty()) {
    const Candidate closest = s->frontier.front();
    // A full window whose worst retained distance beats every unexpanded
    // candidate cannot improve; equal distances keep expanding so ties are
    // explored deterministically rather than by insertion luck.
    if (s->window.size() >= window && closest.first > s->window.front().first) {
      break;
    }
    std::pop_heap(s->frontier.begin(), s->frontier.end(), min_heap);
    s->frontier.pop_back();
    s->expanded.push_back(closest);
    const auto [nbrs, count] = neighbors_of(closest.second);
    for (size_t e = 0; e < count; ++e) {
      const uint32_t nb = nbrs[e];
      if (!s->Visit(nb)) continue;
      const Candidate c(dist_to(nb), nb);
      if (s->window.size() >= window) {
        if (c >= s->window.front()) continue;  // can't enter the window
        std::pop_heap(s->window.begin(), s->window.end());
        s->window.pop_back();
      }
      s->window.push_back(c);
      std::push_heap(s->window.begin(), s->window.end());
      s->frontier.push_back(c);
      std::push_heap(s->frontier.begin(), s->frontier.end(), min_heap);
    }
  }
}

/// Vamana's RobustPrune over a (distance-to-p, id) pool: greedily keep the
/// closest candidate, then drop every pool member an alpha factor closer to
/// a kept neighbor than to p — the kept set stays diverse in direction, so
/// a bounded degree still navigates well. Pool may contain p and
/// duplicates; both are ignored.
std::vector<uint32_t> RobustPrune(uint32_t p, std::vector<Candidate> pool,
                                  double alpha, uint32_t degree,
                                  const FingerprintStore& store,
                                  const ScanKernels& kernels) {
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  std::vector<uint32_t> kept;
  kept.reserve(degree);
  std::vector<char> dropped(pool.size(), 0);
  for (size_t i = 0; i < pool.size() && kept.size() < degree; ++i) {
    if (dropped[i]) continue;
    const uint32_t c = pool[i].second;
    if (c == p) continue;
    kept.push_back(c);
    const Span<const uint64_t> c_keys = store.keys(c);
    for (size_t j = i + 1; j < pool.size(); ++j) {
      if (dropped[j]) continue;
      const auto [dist_pj, cj] = pool[j];
      if (cj == c) {
        dropped[j] = 1;
        continue;
      }
      const int64_t dist_ccj = Distance(kernels, c_keys, store.keys(cj));
      if (static_cast<double>(dist_ccj) * alpha <=
          static_cast<double>(dist_pj)) {
        dropped[j] = 1;
      }
    }
  }
  return kept;
}

/// Runs body(slot, item) for every item in [0, count) on up to
/// pool->size() pool tasks (slot = task number), all claiming items from
/// one shared counter; a null pool runs them on the calling thread as slot
/// 0. `slot` picks per-thread scratch; items must be independent, so which
/// thread ran one never shows in the result. Returns once every task has
/// finished.
template <typename Body>
void ParallelFor(ThreadPool* pool, size_t count, const Body& body) {
  std::atomic<size_t> next{0};
  const auto drain = [&next, count, &body](size_t slot) {
    for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      body(slot, i);
    }
  };
  if (pool == nullptr) {
    drain(0);
    return;
  }
  const size_t tasks = std::min(pool->size(), count);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  std::exception_ptr error;
  try {
    for (size_t t = 0; t < tasks; ++t) {
      futures.push_back(pool->Submit([&drain, t] { drain(t); }));
    }
  } catch (...) {
    error = std::current_exception();
  }
  // Tasks hold references into this frame: wait every one out before any
  // rethrow.
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace

int64_t FingerprintDistance(Span<const uint64_t> a, Span<const uint64_t> b) {
  return Distance(ActiveKernels(), a, b);
}

Result<ProximityGraph> BuildProximityGraph(const FingerprintStore& store,
                                           const AnnBuildParams& params) {
  ThreadPool pool(0);
  return BuildProximityGraph(store, params, &pool);
}

Result<ProximityGraph> BuildProximityGraph(const FingerprintStore& store,
                                           const AnnBuildParams& params,
                                           ThreadPool* pool) {
  if (params.graph_degree == 0) {
    return Status::InvalidArgument("ann graph_degree must be >= 1");
  }
  if (params.build_window == 0) {
    return Status::InvalidArgument("ann build_window must be >= 1");
  }
  if (!(params.alpha >= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("ann alpha must be >= 1.0");
  }
  const size_t n = store.size();
  ProximityGraph out;
  out.degree_bound = params.graph_degree;
  out.entry_point = 0;
  if (n == 0) {
    out.offsets.assign(1, 0);
    return out;
  }
  if (n > static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument(
        "ann graph supports at most 2^32 - 1 nodes");
  }
  const uint32_t degree = params.graph_degree;
  const ScanKernels& kernels = ActiveKernels();
  Rng rng(params.seed);

  // Random bounded-degree initialization: navigable from the first
  // insertion, and the prune passes below only ever improve edges.
  std::vector<std::vector<uint32_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t want = std::min<size_t>(degree, n - 1);
    const std::vector<size_t> picks =
        rng.SampleWithoutReplacement(n - 1, want);
    adj[i].reserve(want);
    for (size_t p : picks) {
      // Sampled from [0, n-2] with the self slot spliced out.
      adj[i].push_back(static_cast<uint32_t>(p >= i ? p + 1 : p));
    }
  }

  // Entry point: approximate medoid — the sampled node with the smallest
  // total distance to the sample (ties to the smaller id), so greedy
  // searches start near the corpus center.
  {
    const size_t sample_count = std::min<size_t>(n, 64);
    std::vector<size_t> sample = rng.SampleWithoutReplacement(n, sample_count);
    std::sort(sample.begin(), sample.end());
    int64_t best_total = std::numeric_limits<int64_t>::max();
    for (size_t c : sample) {
      int64_t total = 0;
      for (size_t s : sample) {
        total += Distance(kernels, store.keys(c), store.keys(s));
      }
      if (total < best_total) {
        best_total = total;
        out.entry_point = static_cast<uint32_t>(c);
      }
    }
  }

  const auto neighbors_of = [&adj](uint32_t id) {
    return std::make_pair(adj[id].data(), adj[id].size());
  };
  std::vector<BeamScratch> scratch(pool == nullptr ? 1 : pool->size());

  // Batch-synchronous insertion (Vamana, in seeded random order): every
  // node of a batch greedy-searches the graph as it stood when the batch
  // began and RobustPrunes the visited pool into its new out-edges; those
  // are committed together, then each node named by the batch's new edges
  // takes the backward edges in ascending source order and is re-pruned if
  // it overflows the bound. No step reads what a concurrent step writes, so
  // the graph depends on (store, params) alone — never on the pool size.
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng.Shuffle(&perm);
  const size_t max_batch = std::max<size_t>(1, n / kBatchCapDivisor);
  std::vector<std::vector<uint32_t>> staged;
  std::vector<std::pair<uint32_t, uint32_t>> back_edges;  // (target, source)
  std::vector<size_t> group_begin;
  for (size_t begin = 0, batch = 1; begin < n;
       begin += batch, batch = std::min(batch * 2, max_batch)) {
    batch = std::min(batch, n - begin);
    const uint32_t* nodes = perm.data() + begin;
    staged.assign(batch, {});
    ParallelFor(pool, batch, [&](size_t slot, size_t i) {
      const uint32_t p = nodes[i];
      const Span<const uint64_t> p_keys = store.keys(p);
      const auto dist_to = [&kernels, &store, &p_keys](uint32_t id) {
        return Distance(kernels, p_keys, store.keys(id));
      };
      BeamScratch& s = scratch[slot];
      s.Reset(n);
      BeamSearch(out.entry_point, params.build_window, neighbors_of, dist_to,
                 &s);
      std::vector<Candidate> candidates = s.expanded;
      for (uint32_t nb : adj[p]) candidates.emplace_back(dist_to(nb), nb);
      staged[i] = RobustPrune(p, std::move(candidates), params.alpha, degree,
                              store, kernels);
    });

    back_edges.clear();
    for (size_t i = 0; i < batch; ++i) {
      adj[nodes[i]] = std::move(staged[i]);
      for (uint32_t j : adj[nodes[i]]) back_edges.emplace_back(j, nodes[i]);
    }
    std::sort(back_edges.begin(), back_edges.end());
    group_begin.clear();
    for (size_t e = 0; e < back_edges.size(); ++e) {
      if (e == 0 || back_edges[e].first != back_edges[e - 1].first) {
        group_begin.push_back(e);
      }
    }
    group_begin.push_back(back_edges.size());
    ParallelFor(pool, group_begin.size() - 1, [&](size_t, size_t g) {
      const uint32_t j = back_edges[group_begin[g]].first;
      std::vector<uint32_t>& list = adj[j];
      for (size_t e = group_begin[g]; e < group_begin[g + 1]; ++e) {
        const uint32_t p = back_edges[e].second;
        if (std::find(list.begin(), list.end(), p) == list.end()) {
          list.push_back(p);
        }
      }
      if (list.size() <= degree) return;
      const Span<const uint64_t> j_keys = store.keys(j);
      std::vector<Candidate> candidates;
      candidates.reserve(list.size());
      for (uint32_t nb : list) {
        candidates.emplace_back(Distance(kernels, j_keys, store.keys(nb)), nb);
      }
      list = RobustPrune(j, std::move(candidates), params.alpha, degree, store,
                         kernels);
    });
  }

  // Reachability repair: RobustPrune can orphan nodes (every in-edge
  // pruned away). Attach each BFS-unreachable node, in id order, to the
  // entry point — only the entry point's degree may exceed the bound — so
  // beam search with window >= n provably reaches the whole corpus (the
  // guarantee the full-window equivalence tests rely on).
  {
    std::vector<char> reached(n, 0);
    std::vector<uint32_t> stack;
    const auto drain = [&] {
      while (!stack.empty()) {
        const uint32_t u = stack.back();
        stack.pop_back();
        for (uint32_t nb : adj[u]) {
          if (!reached[nb]) {
            reached[nb] = 1;
            stack.push_back(nb);
          }
        }
      }
    };
    reached[out.entry_point] = 1;
    stack.push_back(out.entry_point);
    drain();
    for (uint32_t u = 0; u < n; ++u) {
      if (reached[u]) continue;
      adj[out.entry_point].push_back(u);
      reached[u] = 1;
      stack.push_back(u);
      drain();
    }
  }

  // Flatten to CSR.
  out.offsets.assign(n + 1, 0);
  size_t total_edges = 0;
  for (size_t i = 0; i < n; ++i) total_edges += adj[i].size();
  out.neighbors.reserve(total_edges);
  for (size_t i = 0; i < n; ++i) {
    out.neighbors.insert(out.neighbors.end(), adj[i].begin(), adj[i].end());
    out.offsets[i + 1] = out.neighbors.size();
  }
  return out;
}

std::vector<uint32_t> NavigateProximityGraph(const ProximityGraphRef& graph,
                                             const FingerprintStore& store,
                                             Span<const uint64_t> query_keys,
                                             size_t window) {
  if (graph.num_nodes == 0) return {};
  window = std::max<size_t>(1, window);
  const ScanKernels& kernels = ActiveKernels();
  const auto neighbors_of = [&graph](uint32_t id) {
    return std::make_pair(graph.neighbors + graph.offsets[id],
                          static_cast<size_t>(graph.offsets[id + 1] -
                                              graph.offsets[id]));
  };
  const auto dist_to = [&kernels, &store, &query_keys](uint32_t id) {
    return Distance(kernels, query_keys, store.keys(id));
  };
  // One scratch per calling thread (the service's pool workers), reused
  // across queries so a navigation allocates only its result.
  thread_local BeamScratch s;
  const size_t n = static_cast<size_t>(graph.num_nodes);
  s.Reset(n);
  BeamSearch(graph.entry_point, window, neighbors_of, dist_to, &s);
  // Verification set: every expanded node (in expansion order) plus any
  // window survivor the loop never got to expand, in (distance, id) order —
  // all distance-computed nodes the search considered worth keeping.
  std::sort(s.window.begin(), s.window.end());
  s.NewEpoch(n);
  std::vector<uint32_t> out;
  out.reserve(s.expanded.size() + s.window.size());
  for (const Candidate& c : s.expanded) {
    s.Visit(c.second);
    out.push_back(c.second);
  }
  for (const Candidate& c : s.window) {
    if (s.Visit(c.second)) out.push_back(c.second);
  }
  return out;
}

namespace {

template <typename T>
void AppendScalar(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

}  // namespace

std::string SerializeProximityGraph(const ProximityGraph& graph) {
  std::string out;
  const uint64_t num_nodes = graph.num_nodes();
  const uint64_t num_edges = graph.neighbors.size();
  out.reserve(32 + (num_nodes + 1) * sizeof(uint64_t) +
              num_edges * sizeof(uint32_t));
  AppendScalar<uint32_t>(&out, kAnnGraphFormatVersion);
  AppendScalar<uint32_t>(&out, graph.degree_bound);
  AppendScalar<uint32_t>(&out, graph.entry_point);
  AppendScalar<uint32_t>(&out, 0);  // reserved
  AppendScalar<uint64_t>(&out, num_nodes);
  AppendScalar<uint64_t>(&out, num_edges);
  out.append(reinterpret_cast<const char*>(graph.offsets.data()),
             graph.offsets.size() * sizeof(uint64_t));
  out.append(reinterpret_cast<const char*>(graph.neighbors.data()),
             graph.neighbors.size() * sizeof(uint32_t));
  return out;
}

Result<ProximityGraphRef> ParseProximityGraphSection(
    const void* data, size_t length, uint64_t expected_nodes,
    const std::string& source) {
  const auto fail = [&source](const std::string& what) {
    return Status::InvalidArgument(source + ": ann_graph section " + what);
  };
  if (reinterpret_cast<uintptr_t>(data) % alignof(uint64_t) != 0) {
    return fail("payload is not 8-byte aligned");
  }
  constexpr size_t kHeaderBytes = 32;
  if (length < kHeaderBytes) return fail("truncated header");
  const char* bytes = static_cast<const char*>(data);
  uint32_t format = 0, degree = 0, entry = 0, reserved = 0;
  uint64_t num_nodes = 0, num_edges = 0;
  std::memcpy(&format, bytes, sizeof(format));
  std::memcpy(&degree, bytes + 4, sizeof(degree));
  std::memcpy(&entry, bytes + 8, sizeof(entry));
  std::memcpy(&reserved, bytes + 12, sizeof(reserved));
  std::memcpy(&num_nodes, bytes + 16, sizeof(num_nodes));
  std::memcpy(&num_edges, bytes + 24, sizeof(num_edges));
  if (format != kAnnGraphFormatVersion) {
    return Status::NotSupported(source + ": ann_graph format version " +
                                std::to_string(format) +
                                " (this build reads version " +
                                std::to_string(kAnnGraphFormatVersion) + ")");
  }
  if (num_nodes != expected_nodes) {
    return fail("covers " + std::to_string(num_nodes) +
                " nodes but the artifact holds " +
                std::to_string(expected_nodes) + " graphs");
  }
  // Overflow-safe exact-length check: both counts are bounded before the
  // multiplications can wrap.
  constexpr uint64_t kMaxCount = uint64_t{1} << 48;
  if (num_nodes >= kMaxCount || num_edges >= kMaxCount) {
    return fail("has an implausible node/edge count");
  }
  const uint64_t want = kHeaderBytes + (num_nodes + 1) * sizeof(uint64_t) +
                        num_edges * sizeof(uint32_t);
  if (want != length) {
    return fail("length " + std::to_string(length) + " does not match its " +
                std::to_string(num_nodes) + " nodes / " +
                std::to_string(num_edges) + " edges");
  }
  ProximityGraphRef ref;
  ref.offsets = reinterpret_cast<const uint64_t*>(bytes + kHeaderBytes);
  ref.neighbors = reinterpret_cast<const uint32_t*>(
      bytes + kHeaderBytes + (num_nodes + 1) * sizeof(uint64_t));
  ref.num_nodes = num_nodes;
  ref.num_edges = num_edges;
  ref.entry_point = entry;
  ref.degree_bound = degree;
  if (num_nodes == 0) {
    if (ref.offsets[0] != 0 || num_edges != 0 || entry != 0) {
      return fail("is empty but carries edges or an entry point");
    }
    return ref;
  }
  if (entry >= num_nodes) return fail("entry point out of range");
  if (ref.offsets[0] != 0) return fail("offsets do not start at 0");
  for (uint64_t i = 0; i < num_nodes; ++i) {
    if (ref.offsets[i + 1] < ref.offsets[i]) {
      return fail("offsets are not nondecreasing");
    }
  }
  if (ref.offsets[num_nodes] != num_edges) {
    return fail("offsets do not end at the edge count");
  }
  for (uint64_t e = 0; e < num_edges; ++e) {
    if (ref.neighbors[e] >= num_nodes) {
      return fail("neighbor id out of range");
    }
  }
  return ref;
}

}  // namespace gbda
