// The offline half of approximate candidate navigation (src/ann):
// FingerprintDistance, the FingerprintStore's two construction paths, the
// Vamana-style builder's invariants, the section serialize/parse round trip
// and the beam navigator's determinism/termination properties — including
// the degenerate corpora (identical fingerprints, collision-heavy label
// soups) where a naive nearest-neighbor walk could cycle. The builder must
// give the same graph for every thread count, and the navigator must return
// exactly the ids of a reference ordered-set beam search.
#include "ann/proximity_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ann/navigator.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/gbda_index.h"
#include "core/prefilter.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph_database.h"

namespace gbda {
namespace {

Span<const uint64_t> KeySpan(const std::vector<uint64_t>& keys) {
  return Span<const uint64_t>(keys.data(), keys.size());
}

// Parses a serialized payload through an 8-byte-aligned copy
// (SerializeProximityGraph returns a std::string, whose buffer alignment is
// unspecified; the arena guarantees 64-byte-aligned sections).
Result<ProximityGraphRef> ParseAligned(const std::string& payload,
                                       uint64_t expected_nodes,
                                       std::vector<uint64_t>* storage) {
  storage->assign((payload.size() + 7) / 8, 0);
  std::memcpy(storage->data(), payload.data(), payload.size());
  return ParseProximityGraphSection(storage->data(), payload.size(),
                                    expected_nodes, "test");
}

// BFS over the CSR adjacency from the entry point.
size_t CountReachable(const ProximityGraphRef& g) {
  std::vector<char> seen(g.num_nodes, 0);
  std::vector<uint32_t> frontier = {g.entry_point};
  seen[g.entry_point] = 1;
  size_t reached = 1;
  while (!frontier.empty()) {
    const uint32_t node = frontier.back();
    frontier.pop_back();
    for (uint64_t e = g.offsets[node]; e < g.offsets[node + 1]; ++e) {
      const uint32_t next = g.neighbors[e];
      if (!seen[next]) {
        seen[next] = 1;
        ++reached;
        frontier.push_back(next);
      }
    }
  }
  return reached;
}

void ExpectCsrInvariants(const ProximityGraph& g, size_t expected_nodes) {
  ASSERT_EQ(g.num_nodes(), expected_nodes);
  ASSERT_EQ(g.offsets.size(), expected_nodes + 1);
  EXPECT_EQ(g.offsets.front(), 0u);
  for (size_t i = 0; i < expected_nodes; ++i) {
    ASSERT_LE(g.offsets[i], g.offsets[i + 1]) << "node " << i;
    const uint64_t degree = g.offsets[i + 1] - g.offsets[i];
    if (i != g.entry_point) {
      // Only the entry point may exceed the bound (reachability repair).
      EXPECT_LE(degree, g.degree_bound) << "node " << i;
    }
  }
  EXPECT_EQ(g.offsets.back(), g.neighbors.size());
  for (uint32_t neighbor : g.neighbors) {
    EXPECT_LT(neighbor, expected_nodes);
  }
  EXPECT_LT(g.entry_point, expected_nodes);
  EXPECT_EQ(CountReachable(g.ref()), expected_nodes);
}

// A corpus of `copies` structurally identical graphs: every node carries the
// SAME fingerprint multiset, so all pairwise distances are 0 — the
// worst case for tie-breaking in both the builder and the navigator.
GraphDatabase IdenticalCorpus(size_t copies) {
  GraphDatabase db;
  const LabelId a = db.vertex_labels().Intern("A");
  const LabelId b = db.vertex_labels().Intern("B");
  const LabelId x = db.edge_labels().Intern("x");
  for (size_t i = 0; i < copies; ++i) {
    Graph g;
    g.AddVertex(a);
    g.AddVertex(b);
    g.AddVertex(a);
    (void)g.AddEdge(0, 1, x);
    (void)g.AddEdge(1, 2, x);
    db.Add(g);
  }
  return db;
}

// ---------------------------------------------------------------------------
// FingerprintDistance
// ---------------------------------------------------------------------------

TEST(FingerprintDistanceTest, EmptyMultisets) {
  const std::vector<uint64_t> empty;
  const std::vector<uint64_t> three = {5, 9, 9};
  // Two empty branch multisets are identical: distance 0, not an error.
  EXPECT_EQ(FingerprintDistance(KeySpan(empty), KeySpan(empty)), 0);
  EXPECT_EQ(FingerprintDistance(KeySpan(empty), KeySpan(three)), 3);
  EXPECT_EQ(FingerprintDistance(KeySpan(three), KeySpan(empty)), 3);
}

TEST(FingerprintDistanceTest, MatchesDefinition) {
  const std::vector<uint64_t> a = {1, 1, 2, 7};
  const std::vector<uint64_t> b = {1, 2, 2, 7, 9};
  // Multiset intersection {1, 2, 7} = 3; max(4, 5) - 3 = 2.
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(b)), 2);
  EXPECT_EQ(FingerprintDistance(KeySpan(b), KeySpan(a)), 2);  // symmetric
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(a)), 0);
  const std::vector<uint64_t> disjoint = {100, 200};
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(disjoint)), 4);
}

TEST(FingerprintDistanceTest, DuplicateKeysCountWithMultiplicity) {
  // Collision-heavy shape: one key repeated many times on both sides.
  const std::vector<uint64_t> a(6, 42);
  const std::vector<uint64_t> b(4, 42);
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(b)), 2);  // 6 - 4
  EXPECT_EQ(FingerprintDistance(KeySpan(a), KeySpan(a)), 0);
}

// Sets GBDA_FORCE_SCALAR_KERNELS for one scope and restores the previous
// value (the CI leg that forces scalar process-wide must stay forced).
class ScopedScalarOverride {
 public:
  explicit ScopedScalarOverride(const char* value) {
    const char* old = std::getenv(kVar);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv(kVar, value, 1);
    } else {
      unsetenv(kVar);
    }
  }
  ~ScopedScalarOverride() {
    if (had_old_) {
      setenv(kVar, old_.c_str(), 1);
    } else {
      unsetenv(kVar);
    }
  }
  ScopedScalarOverride(const ScopedScalarOverride&) = delete;
  ScopedScalarOverride& operator=(const ScopedScalarOverride&) = delete;

 private:
  static constexpr const char* kVar = "GBDA_FORCE_SCALAR_KERNELS";
  bool had_old_ = false;
  std::string old_;
};

TEST(FingerprintDistanceTest, MatchesScalarIntersectionUnderEveryTable) {
  // FingerprintDistance counts through the dispatched kernel table; it must
  // equal max(|a|, |b|) - the scalar reference count on every input, under
  // the scalar table (forced) and the cpuid-selected one (AVX2 where the
  // CPU has it). Small key alphabets force long duplicate runs.
  const ScanKernels& scalar = GetScanKernels(KernelImpl::kScalar);
  Rng rng(2024);
  for (const char* force : {"1", static_cast<const char*>(nullptr)}) {
    ScopedScalarOverride override_env(force);
    const KernelImpl impl = ResolveKernels(KernelDispatch::kAuto);
    if (force != nullptr) {
      EXPECT_EQ(impl, KernelImpl::kScalar);
    }
    for (int trial = 0; trial < 2000; ++trial) {
      const int64_t alphabet = rng.UniformInt(0, 12);
      std::vector<uint64_t> a(static_cast<size_t>(rng.UniformInt(0, 40)));
      std::vector<uint64_t> b(static_cast<size_t>(rng.UniformInt(0, 40)));
      for (uint64_t& key : a) {
        key = static_cast<uint64_t>(rng.UniformInt(0, alphabet));
      }
      for (uint64_t& key : b) {
        key = static_cast<uint64_t>(rng.UniformInt(0, alphabet));
      }
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      const int64_t common =
          scalar.intersect_count(a.data(), a.size(), b.data(), b.size());
      const int64_t want =
          static_cast<int64_t>(std::max(a.size(), b.size())) - common;
      ASSERT_EQ(FingerprintDistance(KeySpan(a), KeySpan(b)), want)
          << KernelImplName(impl) << " trial " << trial;
      ASSERT_EQ(FingerprintDistance(KeySpan(b), KeySpan(a)), want)
          << KernelImplName(impl) << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// FingerprintStore
// ---------------------------------------------------------------------------

TEST(FingerprintStoreTest, FromPrefilterAndFromIndexAgree) {
  DatasetProfile profile = GrecProfile(0.03);
  profile.seed = 23;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  GbdaIndexOptions options;
  options.tau_max = 6;
  options.gbd_prior.num_sample_pairs = 200;
  Result<GbdaIndex> index = GbdaIndex::Build(ds->db, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  const Prefilter prefilter(&ds->db);
  const FingerprintStore from_profiles =
      FingerprintStore::FromPrefilter(prefilter);
  const FingerprintStore from_index = FingerprintStore::FromIndex(*index);

  // The two construction paths (FilterProfile branch_keys vs fingerprinting
  // the index's flat branch arrays) must yield identical keys — the
  // services build from profiles, the tooling from artifacts, and both must
  // navigate the same space.
  ASSERT_EQ(from_profiles.size(), ds->db.size());
  ASSERT_EQ(from_index.size(), ds->db.size());
  for (size_t g = 0; g < ds->db.size(); ++g) {
    const Span<const uint64_t> a = from_profiles.keys(g);
    const Span<const uint64_t> b = from_index.keys(g);
    ASSERT_EQ(a.size(), b.size()) << "graph " << g;
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end())) << "graph " << g;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "graph " << g << " key " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// BuildProximityGraph
// ---------------------------------------------------------------------------

TEST(ProximityGraphBuildTest, RejectsInvalidParams) {
  GraphDatabase db = IdenticalCorpus(4);
  const Prefilter prefilter(&db);
  const FingerprintStore store = FingerprintStore::FromPrefilter(prefilter);

  AnnBuildParams params;
  params.graph_degree = 0;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
  params = AnnBuildParams();
  params.build_window = 0;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
  params = AnnBuildParams();
  params.alpha = 0.5;
  EXPECT_EQ(BuildProximityGraph(store, params).status().code(),
            StatusCode::kInvalidArgument);
}

// Builds `store` with no pool, with pools of 1-4 workers and through the
// 2-arg form (a pool per hardware thread): every build must be the same
// graph, valid, and fully reachable by a full-window navigation.
void ExpectThreadCountInvariant(const FingerprintStore& store,
                                const AnnBuildParams& params) {
  std::vector<Result<ProximityGraph>> builds;
  builds.push_back(BuildProximityGraph(store, params, nullptr));
  for (size_t workers = 1; workers <= 4; ++workers) {
    ThreadPool pool(workers);
    builds.push_back(BuildProximityGraph(store, params, &pool));
  }
  builds.push_back(BuildProximityGraph(store, params));
  for (size_t b = 0; b < builds.size(); ++b) {
    SCOPED_TRACE("build " + std::to_string(b));
    ASSERT_TRUE(builds[b].ok()) << builds[b].status().ToString();
    const ProximityGraph& g = *builds[b];
    ExpectCsrInvariants(g, store.size());
    EXPECT_EQ(g.entry_point, builds.front()->entry_point);
    EXPECT_EQ(g.offsets, builds.front()->offsets);
    EXPECT_EQ(g.neighbors, builds.front()->neighbors);
    const Span<const uint64_t> query = store.keys(0);
    std::vector<uint32_t> visited =
        NavigateProximityGraph(g.ref(), store, query, store.size());
    std::sort(visited.begin(), visited.end());
    std::vector<uint32_t> all(store.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
    EXPECT_EQ(visited, all);
  }
}

TEST(ProximityGraphBuildTest, InvariantsAndDeterminismOnRealCorpus) {
  DatasetProfile profile = AidsProfile(0.03);
  profile.seed = 31;
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  const Prefilter prefilter(&ds->db);
  AnnBuildParams params;
  params.graph_degree = 8;
  params.build_window = 16;
  ExpectThreadCountInvariant(FingerprintStore::FromPrefilter(prefilter),
                             params);
}

TEST(ProximityGraphBuildTest, IdenticalFingerprintCorpus) {
  // Every pairwise distance is 0: the builder must still produce a valid,
  // fully reachable, deterministic graph (ties broken by id).
  GraphDatabase db = IdenticalCorpus(12);
  const Prefilter prefilter(&db);
  AnnBuildParams params;
  params.graph_degree = 4;
  params.build_window = 8;
  ExpectThreadCountInvariant(FingerprintStore::FromPrefilter(prefilter),
                             params);
}

TEST(ProximityGraphBuildTest, TinyCorpus) {
  // Fewer nodes than the degree bound: the graph degenerates gracefully.
  GraphDatabase db = IdenticalCorpus(2);
  const Prefilter prefilter(&db);
  ExpectThreadCountInvariant(FingerprintStore::FromPrefilter(prefilter),
                             AnnBuildParams());
}

// ---------------------------------------------------------------------------
// Serialize / parse round trip
// ---------------------------------------------------------------------------

TEST(ProximityGraphSerializeTest, RoundTripPreservesEverything) {
  GraphDatabase db = IdenticalCorpus(9);
  const Prefilter prefilter(&db);
  const FingerprintStore store = FingerprintStore::FromPrefilter(prefilter);
  AnnBuildParams params;
  params.graph_degree = 3;
  params.build_window = 6;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok());

  const std::string payload = SerializeProximityGraph(*graph);
  std::vector<uint64_t> storage;
  Result<ProximityGraphRef> parsed = ParseAligned(payload, 9, &storage);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_nodes, graph->num_nodes());
  EXPECT_EQ(parsed->num_edges, graph->neighbors.size());
  EXPECT_EQ(parsed->entry_point, graph->entry_point);
  EXPECT_EQ(parsed->degree_bound, graph->degree_bound);
  for (size_t i = 0; i <= graph->num_nodes(); ++i) {
    EXPECT_EQ(parsed->offsets[i], graph->offsets[i]) << "offset " << i;
  }
  for (size_t e = 0; e < graph->neighbors.size(); ++e) {
    EXPECT_EQ(parsed->neighbors[e], graph->neighbors[e]) << "edge " << e;
  }
}

TEST(ProximityGraphSerializeTest, RejectsHostilePayloads) {
  GraphDatabase db = IdenticalCorpus(5);
  const Prefilter prefilter(&db);
  const FingerprintStore store = FingerprintStore::FromPrefilter(prefilter);
  Result<ProximityGraph> graph = BuildProximityGraph(store, AnnBuildParams());
  ASSERT_TRUE(graph.ok());
  const std::string payload = SerializeProximityGraph(*graph);
  std::vector<uint64_t> storage;

  // A future format version is kNotSupported — the degrade-don't-fail
  // signal GbdaIndexView::Open keys on.
  {
    std::string future = payload;
    const uint32_t version = kAnnGraphFormatVersion + 1;
    std::memcpy(&future[0], &version, sizeof(version));
    EXPECT_EQ(ParseAligned(future, 5, &storage).status().code(),
              StatusCode::kNotSupported);
  }
  // Truncation.
  EXPECT_FALSE(
      ParseAligned(payload.substr(0, payload.size() - 4), 5, &storage).ok());
  // Node-count disagreement with the artifact header.
  EXPECT_FALSE(ParseAligned(payload, 6, &storage).ok());
  // Entry point out of range (u32 at payload offset 8).
  {
    std::string bad = payload;
    const uint32_t hostile = 1000;
    std::memcpy(&bad[8], &hostile, sizeof(hostile));
    EXPECT_FALSE(ParseAligned(bad, 5, &storage).ok());
  }
}

// ---------------------------------------------------------------------------
// NavigateProximityGraph
// ---------------------------------------------------------------------------

// The navigator as it stood before its flat rewrite — an ordered-set
// frontier and window, a hash-set visited set, FingerprintDistance per
// pair. NavigateProximityGraph must return exactly its id vector.
std::vector<uint32_t> ReferenceNavigate(const ProximityGraphRef& graph,
                                        const FingerprintStore& store,
                                        Span<const uint64_t> query_keys,
                                        size_t window) {
  using Candidate = std::pair<int64_t, uint32_t>;
  if (graph.num_nodes == 0) return {};
  window = std::max<size_t>(1, window);
  std::set<Candidate> frontier;
  std::set<Candidate> window_set;
  std::unordered_set<uint32_t> seen;
  std::vector<Candidate> expanded;
  const auto dist_to = [&](uint32_t id) {
    return FingerprintDistance(query_keys, store.keys(id));
  };
  const Candidate start(dist_to(graph.entry_point), graph.entry_point);
  frontier.insert(start);
  window_set.insert(start);
  seen.insert(start.second);
  while (!frontier.empty()) {
    const Candidate closest = *frontier.begin();
    if (window_set.size() >= window &&
        closest.first > std::prev(window_set.end())->first) {
      break;
    }
    frontier.erase(frontier.begin());
    expanded.push_back(closest);
    for (uint64_t e = graph.offsets[closest.second];
         e < graph.offsets[closest.second + 1]; ++e) {
      const uint32_t nb = graph.neighbors[e];
      if (!seen.insert(nb).second) continue;
      const Candidate c(dist_to(nb), nb);
      if (window_set.size() >= window) {
        const auto worst = std::prev(window_set.end());
        if (c >= *worst) continue;
        window_set.erase(worst);
      }
      window_set.insert(c);
      frontier.insert(c);
    }
  }
  std::vector<uint32_t> out;
  std::unordered_set<uint32_t> emitted;
  for (const Candidate& c : expanded) {
    if (emitted.insert(c.second).second) out.push_back(c.second);
  }
  for (const Candidate& c : window_set) {
    if (emitted.insert(c.second).second) out.push_back(c.second);
  }
  return out;
}

class NavigationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetProfile profile = AidsProfile(0.03);
    profile.seed = 47;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    db_ = std::move(ds->db);
    queries_ = std::move(ds->queries);
    prefilter_ = std::make_unique<Prefilter>(&db_);
    store_ = FingerprintStore::FromPrefilter(*prefilter_);
    AnnBuildParams params;
    params.graph_degree = 8;
    params.build_window = 16;
    Result<ProximityGraph> graph = BuildProximityGraph(store_, params);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graph_ = std::move(*graph);
  }

  std::vector<uint64_t> QueryKeys(const Graph& q) const {
    return BuildFilterProfile(q).branch_keys;
  }

  GraphDatabase db_;
  std::vector<Graph> queries_;
  std::unique_ptr<Prefilter> prefilter_;
  FingerprintStore store_;
  ProximityGraph graph_;
};

TEST_F(NavigationTest, FullWindowVisitsTheWholeCorpus) {
  // window >= corpus size must visit every node — the property that makes
  // full-window approximate queries provably bit-identical to exhaustive
  // ones (the reachability repair guarantees it).
  const std::vector<uint64_t> keys = QueryKeys(queries_[0]);
  const std::vector<uint32_t> visited = NavigateProximityGraph(
      graph_.ref(), store_, KeySpan(keys), store_.size());
  EXPECT_EQ(visited.size(), store_.size());
  std::set<uint32_t> unique(visited.begin(), visited.end());
  EXPECT_EQ(unique.size(), store_.size());
}

TEST_F(NavigationTest, SmallWindowIsDeterministicAndBounded) {
  for (size_t window : {size_t{1}, size_t{4}, size_t{16}}) {
    for (size_t q = 0; q < std::min<size_t>(queries_.size(), 4); ++q) {
      const std::vector<uint64_t> keys = QueryKeys(queries_[q]);
      const std::vector<uint32_t> a = NavigateProximityGraph(
          graph_.ref(), store_, KeySpan(keys), window);
      const std::vector<uint32_t> b = NavigateProximityGraph(
          graph_.ref(), store_, KeySpan(keys), window);
      EXPECT_EQ(a, b) << "window " << window << " query " << q;
      ASSERT_FALSE(a.empty()) << "window " << window;
      std::set<uint32_t> unique(a.begin(), a.end());
      EXPECT_EQ(unique.size(), a.size()) << "duplicate candidate ids";
      for (uint32_t id : a) EXPECT_LT(id, store_.size());
    }
  }
}

TEST_F(NavigationTest, EmptyQueryKeysTerminate) {
  // An empty branch multiset makes every distance |candidate keys| — valid,
  // and navigation must terminate deterministically rather than cycle.
  const std::vector<uint64_t> empty;
  const std::vector<uint32_t> a =
      NavigateProximityGraph(graph_.ref(), store_, KeySpan(empty), 8);
  const std::vector<uint32_t> b =
      NavigateProximityGraph(graph_.ref(), store_, KeySpan(empty), 8);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(NavigationTest, MatchesReferenceBeamSearchExactly) {
  std::vector<std::vector<uint64_t>> queries;
  for (const Graph& q : queries_) queries.push_back(QueryKeys(q));
  queries.emplace_back();  // empty branch multiset
  for (size_t window : {size_t{1}, size_t{4}, size_t{16}, size_t{64},
                        store_.size()}) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const Span<const uint64_t> keys = KeySpan(queries[q]);
      EXPECT_EQ(NavigateProximityGraph(graph_.ref(), store_, keys, window),
                ReferenceNavigate(graph_.ref(), store_, keys, window))
          << "window " << window << " query " << q;
    }
  }
  // All-tied corpus: every distance is 0, so only the id tie-break orders
  // the search.
  GraphDatabase db = IdenticalCorpus(16);
  const Prefilter prefilter(&db);
  const FingerprintStore store = FingerprintStore::FromPrefilter(prefilter);
  AnnBuildParams params;
  params.graph_degree = 4;
  params.build_window = 8;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok());
  for (size_t window : {size_t{1}, size_t{4}, size_t{16}}) {
    EXPECT_EQ(
        NavigateProximityGraph(graph->ref(), store, store.keys(3), window),
        ReferenceNavigate(graph->ref(), store, store.keys(3), window))
        << "window " << window;
  }
}

TEST_F(NavigationTest, AllTiedDistancesTerminate) {
  // Identical-fingerprint corpus: every candidate ties at distance 0 from a
  // matching query. Termination rests purely on the id tie-break.
  GraphDatabase db = IdenticalCorpus(16);
  const Prefilter prefilter(&db);
  const FingerprintStore store = FingerprintStore::FromPrefilter(prefilter);
  AnnBuildParams params;
  params.graph_degree = 4;
  params.build_window = 8;
  Result<ProximityGraph> graph = BuildProximityGraph(store, params);
  ASSERT_TRUE(graph.ok());
  const std::vector<uint64_t> keys(store.keys(0).begin(),
                                   store.keys(0).end());
  const std::vector<uint32_t> small =
      NavigateProximityGraph(graph->ref(), store, KeySpan(keys), 4);
  EXPECT_FALSE(small.empty());
  const std::vector<uint32_t> full =
      NavigateProximityGraph(graph->ref(), store, KeySpan(keys), 16);
  EXPECT_EQ(full.size(), 16u);
}

// ---------------------------------------------------------------------------
// AnnContext
// ---------------------------------------------------------------------------

TEST(AnnContextTest, BuildOwnsAValidGraph) {
  GraphDatabase db = IdenticalCorpus(6);
  const Prefilter prefilter(&db);
  Result<AnnContext> ctx = AnnContext::Build(
      FingerprintStore::FromPrefilter(prefilter), AnnBuildParams());
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ(ctx->store().size(), 6u);
  EXPECT_EQ(ctx->owned_graph().num_nodes(), 6u);
  EXPECT_EQ(ctx->graph().num_nodes, 6u);
}

TEST(AnnContextTest, AdoptRejectsNodeCountMismatch) {
  GraphDatabase small = IdenticalCorpus(4);
  GraphDatabase big = IdenticalCorpus(7);
  const Prefilter small_pf(&small);
  const Prefilter big_pf(&big);
  Result<ProximityGraph> graph = BuildProximityGraph(
      FingerprintStore::FromPrefilter(small_pf), AnnBuildParams());
  ASSERT_TRUE(graph.ok());
  EXPECT_FALSE(AnnContext::Adopt(FingerprintStore::FromPrefilter(big_pf),
                                 graph->ref())
                   .ok());
  EXPECT_TRUE(AnnContext::Adopt(FingerprintStore::FromPrefilter(small_pf),
                                graph->ref())
                  .ok());
}

}  // namespace
}  // namespace gbda
