// The seeded ranking walk (core/gbda_search.h, SeedRankWitness and
// ScanRange): a ranking scan arms its witness from the k candidates that
// share most of the query's rarest branch positions, then walks only the
// postings inside the witness radius — 2 * tau_hat + 1 positions when the
// witness Phi is positive, max(2 * tau_hat, G_w) + 1 when it is 0. The
// result must stay bit-identical to the exhaustive scan
// (SearchOptions::topk_early_termination = false) — ids, exact phi bits,
// GBDs, order, candidates_evaluated and prefiltered_out — serially and
// through services of 1, 2 and 7 shards, with verified_count +
// pruned_by_bound == candidates_evaluated. The sweep runs the fingerprint
// profile under its own label model and AASD over all three variants, the
// prefilter on and off, tau_hat {0, 2, 5} and k {1, 10, 200, n - 1}, and
// must meet positive-Phi and Phi == 0 witnesses. Constructed corpora pin
// the radius (a match missing exactly the radius's rarest positions must be
// found), a Phi == 0 witness whose gbd lies inside 2 * tau_hat, the
// fallbacks (fewer than k ids share a walked key, or the seeds' GBD lower
// bounds already put the radius past the query: no witness, the one-pass
// count) and the prefilter (a rejected candidate with the largest shared
// count must not seed the witness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/posterior.h"
#include "core/prefilter.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"

namespace gbda {
namespace {

uint64_t PhiBits(double phi) {
  uint64_t bits;
  std::memcpy(&bits, &phi, sizeof bits);
  return bits;
}

void ExpectSameResult(const SearchResult& exhaustive,
                      const SearchResult& walked, const std::string& label) {
  ASSERT_EQ(exhaustive.matches.size(), walked.matches.size()) << label;
  for (size_t i = 0; i < exhaustive.matches.size(); ++i) {
    EXPECT_EQ(exhaustive.matches[i].graph_id, walked.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(PhiBits(exhaustive.matches[i].phi_score),
              PhiBits(walked.matches[i].phi_score))
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].gbd, walked.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(exhaustive.candidates_evaluated, walked.candidates_evaluated)
      << label;
  EXPECT_EQ(exhaustive.prefiltered_out, walked.prefiltered_out) << label;
  EXPECT_EQ(exhaustive.pruned_by_bound, 0u) << label;
  EXPECT_EQ(walked.verified_count + walked.pruned_by_bound,
            walked.candidates_evaluated)
      << label;
}

/// `n` vertices of label `vertex_label` on a cycle of `edge_label` edges.
Graph Ring(size_t n, LabelId vertex_label, LabelId edge_label) {
  Graph g;
  for (size_t i = 0; i < n; ++i) g.AddVertex(vertex_label);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(g.AddEdge(static_cast<uint32_t>(i),
                          static_cast<uint32_t>((i + 1) % n), edge_label)
                    .ok());
  }
  return g;
}

/// `query` plus a hub joined to its first vertices by edges of every label
/// in turn: a root whose edge-label multiset no corpus graph has.
Graph WithHub(const Graph& query, size_t num_edge_labels) {
  Graph g = query;
  const uint32_t hub = g.AddVertex(0);
  const size_t degree = std::min<size_t>(query.num_vertices(), 9);
  for (size_t i = 0; i < degree; ++i) {
    EXPECT_TRUE(g.AddEdge(hub, static_cast<uint32_t>(i),
                          static_cast<LabelId>(i % num_edge_labels))
                    .ok());
  }
  return g;
}

std::vector<std::unique_ptr<GbdaService>> Services(const GraphDatabase* db,
                                                   const GbdaIndex* index) {
  std::vector<std::unique_ptr<GbdaService>> services;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions options;
    options.num_threads = 3;
    options.num_shards = shards;
    services.push_back(std::make_unique<GbdaService>(db, index, options));
  }
  return services;
}

/// Runs `queries` ranked by k through the serial scan and `services`, walked
/// and exhaustive, and holds every walked result to the exhaustive one.
/// Returns the serial walked results.
std::vector<SearchResult> ExpectWalkMatchesExhaustive(
    const GraphDatabase& db, const GbdaIndex& index,
    const std::vector<std::unique_ptr<GbdaService>>& services,
    const std::vector<Graph>& queries, size_t k, const SearchOptions& walked,
    const std::string& config) {
  SearchOptions exhaustive = walked;
  exhaustive.topk_early_termination = false;
  GbdaSearch serial(&db, &index);
  std::vector<SearchResult> reference, serial_walked;
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string label = config + " query=" + std::to_string(q);
    Result<SearchResult> a = serial.QueryTopK(queries[q], k, exhaustive);
    Result<SearchResult> b = serial.QueryTopK(queries[q], k, walked);
    EXPECT_TRUE(a.ok()) << label << ": " << a.status().ToString();
    EXPECT_TRUE(b.ok()) << label << ": " << b.status().ToString();
    if (!a.ok() || !b.ok()) return {};
    ExpectSameResult(*a, *b, "serial " + label);
    reference.push_back(std::move(*a));
    serial_walked.push_back(std::move(*b));
  }
  const Span<Graph> batch_queries(queries.data(), queries.size());
  for (const std::unique_ptr<GbdaService>& service : services) {
    const std::string label =
        config + " shards=" + std::to_string(service->num_shards());
    Result<std::vector<SearchResult>> batch =
        service->QueryTopKBatch(batch_queries, k, walked);
    EXPECT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
    if (!batch.ok()) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      ExpectSameResult(reference[q], (*batch)[q],
                       label + " query=" + std::to_string(q));
    }
  }
  return serial_walked;
}

/// The witness SeedRankWitness publishes for `query` ranked by k over the
/// whole index (phi == -inf when it publishes none).
ScanWitness SeededWitness(const GraphDatabase& db, const GbdaIndex& index,
                          const Graph& query, size_t k,
                          const SearchOptions& options) {
  Result<ScanContext> ctx = PrepareScan(query, options, /*apply_gamma=*/false,
                                        CorpusRef(&db), index);
  EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
  if (!ctx.ok()) return ScanWitness{};
  PosteriorEngine engine(index.num_vertex_labels(), index.num_edge_labels(),
                         index.tau_max(), index.mutable_ged_prior(),
                         &index.gbd_prior());
  const Prefilter prefilter(&db);
  ScanBounds bounds(k);
  const Status seeded =
      SeedRankWitness(*ctx, index, &prefilter, &engine, &bounds);
  EXPECT_TRUE(seeded.ok()) << seeded.ToString();
  return bounds.witness();
}

class RankWalkEquivalenceTest : public ::testing::Test {
 protected:
  struct Fixture {
    std::string name;
    GeneratedDataset data;
    std::unique_ptr<GbdaIndex> index;
    /// The profile's first queries, then two rings (a query shorter than
    /// 2 * tau_hat + 1 branches, and one key of multiplicity 8) and a query
    /// with a key the corpus lacks.
    std::vector<Graph> queries;
  };

  static void SetUpTestSuite() {
    fixtures_ = new std::vector<Fixture>();
    for (const DatasetProfile& profile :
         {FingerprintProfile(0.05), AasdProfile(0.02)}) {
      Result<GeneratedDataset> ds = GenerateDataset(profile);
      ASSERT_TRUE(ds.ok()) << ds.status().ToString();
      GbdaIndexOptions options;
      options.tau_max = 10;
      options.gbd_prior.num_sample_pairs = 1500;
      options.model_vertex_labels =
          static_cast<int64_t>(profile.num_vertex_labels);
      options.model_edge_labels =
          static_cast<int64_t>(profile.num_edge_labels);
      Result<GbdaIndex> index = GbdaIndex::Build(ds->db, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      Fixture f;
      f.name = profile.name;
      f.data = std::move(*ds);
      f.index = std::make_unique<GbdaIndex>(std::move(*index));
      const size_t n = std::min<size_t>(f.data.queries.size(), 4);
      f.queries.assign(f.data.queries.begin(), f.data.queries.begin() + n);
      f.queries.push_back(Ring(3, 0, 0));
      f.queries.push_back(Ring(8, 1, 0));
      f.queries.push_back(WithHub(f.data.queries[0], profile.num_edge_labels));
      fixtures_->push_back(std::move(f));
    }
  }
  static void TearDownTestSuite() {
    delete fixtures_;
    fixtures_ = nullptr;
  }

  static std::vector<Fixture>* fixtures_;
};

std::vector<RankWalkEquivalenceTest::Fixture>*
    RankWalkEquivalenceTest::fixtures_ = nullptr;

TEST_F(RankWalkEquivalenceTest, SweepMeetsPositivePhiWitnesses) {
  // A positive-Phi witness walks 2 * tau_hat + 1 positions, a Phi == 0 one
  // max(2 * tau_hat, G_w) + 1. The generated corpora seed both kinds; a
  // Phi == 0 witness inside 2 * tau_hat needs the corpus built below
  // (ZeroPhiWitnessInsideTwoTauWalksTwoTauPlusOne).
  bool positive_phi = false, zero_phi = false;
  for (const Fixture& f : *fixtures_) {
    for (int64_t tau_hat : {int64_t{2}, int64_t{5}}) {
      for (size_t k : {size_t{1}, size_t{10}}) {
        SearchOptions options;
        options.tau_hat = tau_hat;
        for (const Graph& q : f.queries) {
          const ScanWitness w = SeededWitness(f.data.db, *f.index, q, k,
                                              options);
          positive_phi |= w.phi > 0.0;
          zero_phi |= w.phi == 0.0;
        }
      }
    }
  }
  EXPECT_TRUE(positive_phi);
  EXPECT_TRUE(zero_phi);
}

TEST_F(RankWalkEquivalenceTest, TopKScansMatchExhaustive) {
  for (const Fixture& f : *fixtures_) {
    const std::vector<std::unique_ptr<GbdaService>> services =
        Services(&f.data.db, f.index.get());
    const size_t n = f.data.db.size();
    size_t pruned = 0;
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
          GbdaVariant::kWeightedGbd}) {
      for (bool prefilter : {false, true}) {
        for (int64_t tau_hat : {int64_t{0}, int64_t{2}, int64_t{5}}) {
          for (size_t k : {size_t{1}, size_t{10}, size_t{200}, n - 1}) {
            SearchOptions walked;
            walked.tau_hat = tau_hat;
            walked.variant = variant;
            walked.use_prefilter = prefilter;
            const std::string config =
                f.name + " variant=" +
                std::to_string(static_cast<int>(variant)) +
                " prefilter=" + std::to_string(prefilter) +
                " tau=" + std::to_string(tau_hat) +
                " k=" + std::to_string(k);
            for (const SearchResult& r : ExpectWalkMatchesExhaustive(
                     f.data.db, *f.index, services, f.queries, k, walked,
                     config)) {
              pruned += r.pruned_by_bound;
            }
          }
        }
      }
    }
    EXPECT_GT(pruned, 0u) << f.name;
  }
}

/// A corpus of AIDS graphs plus constructed graphs over a query that shares
/// no key with them: a path of kPathLength vertices with distinct labels, so
/// vertex i's branch is a key of its own and relabelling vertex i removes
/// exactly that key.
class ConstructedCorpusTest : public ::testing::Test {
 protected:
  static constexpr LabelId kQueryLabels = 1000;
  static constexpr LabelId kOtherLabel = 3000;
  static constexpr size_t kPathLength = 32;

  void SetUp() override {
    Result<GeneratedDataset> ds = GenerateDataset(AidsProfile(0.03));
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    background_ = std::move(ds->db);
    db_ = background_;
    query_ = Path(0, kPathLength);
  }

  /// The query's vertices [first, last) as a path.
  static Graph Path(size_t first, size_t last) {
    Graph g;
    for (size_t i = first; i < last; ++i) {
      g.AddVertex(static_cast<LabelId>(kQueryLabels + i));
    }
    for (uint32_t i = 0; i + 1 < last - first; ++i) {
      EXPECT_TRUE(g.AddEdge(i, i + 1, 1).ok());
    }
    return g;
  }

  /// The query with vertices [first, last) relabelled: it lacks exactly
  /// those keys.
  Graph Missing(size_t first, size_t last) const {
    Graph g = query_;
    for (size_t i = first; i < last; ++i) {
      EXPECT_TRUE(g.RelabelVertex(static_cast<uint32_t>(i), kOtherLabel).ok());
    }
    return g;
  }

  /// Adds Z, missing the first `gap` keys; S, missing the last `gap`; and
  /// F, holding what Z holds plus a two-vertex component (GBD gap + 2).
  /// The first `gap` keys are then held by S alone, the query's rarest.
  /// Returns Z's id, which is smaller than S's.
  size_t AddRadiusCorpus(size_t gap) {
    db_ = background_;
    const size_t z_id = db_.Add(Missing(0, gap));
    db_.Add(Missing(kPathLength - gap, kPathLength));
    Graph filler = Missing(0, gap);
    const uint32_t a = filler.AddVertex(kOtherLabel + 1);
    const uint32_t b = filler.AddVertex(kOtherLabel + 1);
    EXPECT_TRUE(filler.AddEdge(a, b, 1).ok());
    db_.Add(filler);
    BuildIndex();
    return z_id;
  }

  void BuildIndex() {
    GbdaIndexOptions options;
    options.tau_max = 8;
    options.gbd_prior.num_sample_pairs = 500;
    Result<GbdaIndex> index = GbdaIndex::Build(db_, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::make_unique<GbdaIndex>(std::move(*index));
  }

  /// Z and S tie at (0, gap) and Z has the smaller id, so a k = 1 ranking
  /// must return Z, walked or not.
  void ExpectZRanksFirst(size_t z_id, size_t gap,
                         const SearchOptions& options,
                         const std::string& config) {
    const std::vector<SearchResult> walked = ExpectWalkMatchesExhaustive(
        db_, *index_, Services(&db_, index_.get()), {query_}, 1, options,
        config);
    ASSERT_EQ(walked.size(), 1u) << config;
    ASSERT_EQ(walked[0].matches.size(), 1u) << config;
    EXPECT_EQ(walked[0].matches[0].graph_id, z_id) << config;
    EXPECT_EQ(walked[0].matches[0].phi_score, 0.0) << config;
    EXPECT_EQ(walked[0].matches[0].gbd, static_cast<int64_t>(gap)) << config;
    EXPECT_GT(walked[0].pruned_by_bound, 0u) << config;
  }

  GraphDatabase background_;
  GraphDatabase db_;
  Graph query_;
  std::unique_ptr<GbdaIndex> index_;
};

TEST_F(ConstructedCorpusTest, MatchMissingTheRadiusRarestPositionsIsFound) {
  // tau_hat = 1 and G > 2 * tau_hat. The seed walks three of the first G
  // keys, touches only S and publishes S's (0, G). Z first appears at walk
  // position G + 1: a radius one position shorter would count it as
  // pruned and return S.
  for (size_t gap : {size_t{3}, size_t{4}, size_t{6}}) {
    const size_t z_id = AddRadiusCorpus(gap);
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize}) {
      SearchOptions options;
      options.tau_hat = 1;
      options.variant = variant;
      const std::string config = "G=" + std::to_string(gap) + " variant=" +
                                 std::to_string(static_cast<int>(variant));
      const ScanWitness w = SeededWitness(db_, *index_, query_, 1, options);
      EXPECT_EQ(w.phi, 0.0) << config;
      EXPECT_EQ(w.gbd, static_cast<int64_t>(gap)) << config;
      ExpectZRanksFirst(z_id, gap, options, config);
    }
  }
}

TEST_F(ConstructedCorpusTest, ZeroPhiWitnessInsideTwoTauWalksTwoTauPlusOne) {
  // GBDA-V1 scores every candidate at the corpus-average size v1, and Phi
  // is exactly 0 past phi = min(v1, 2 * tau_hat): with G = v1 + 1 <
  // 2 * tau_hat the seed publishes (0, G) inside 2 * tau_hat, and the walk
  // must still cover 2 * tau_hat + 1 positions.
  // A background of small graphs keeps v1 far below 2 * tau_hat. The
  // constructed graphs have the same sizes for every G, so v1 (sampled by
  // id from sizes alone) does not depend on it.
  GraphDatabase small;
  small.vertex_labels() = background_.vertex_labels();
  small.edge_labels() = background_.edge_labels();
  for (size_t i = 0; i < 200; ++i) {
    const size_t n = 2 + i % 3;
    Graph g;
    for (size_t j = 0; j < n; ++j) {
      g.AddVertex(static_cast<LabelId>(1 + (i + j) % 5));
    }
    for (uint32_t j = 0; j + 1 < n; ++j) {
      ASSERT_TRUE(g.AddEdge(j, j + 1, 1).ok());
    }
    small.Add(std::move(g));
  }
  background_ = std::move(small);
  SearchOptions options;
  options.tau_hat = 8;
  options.variant = GbdaVariant::kAverageSize;
  AddRadiusCorpus(1);
  Result<ScanContext> ctx =
      PrepareScan(query_, options, false, CorpusRef(&db_), *index_);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  const size_t gap = static_cast<size_t>(ctx->v1_size) + 1;
  ASSERT_LT(static_cast<int64_t>(gap), 2 * options.tau_hat);
  const size_t z_id = AddRadiusCorpus(gap);
  const ScanWitness w = SeededWitness(db_, *index_, query_, 1, options);
  EXPECT_EQ(w.phi, 0.0);
  EXPECT_EQ(w.gbd, static_cast<int64_t>(gap));
  ExpectZRanksFirst(z_id, gap, options, "G=" + std::to_string(gap));
}

TEST_F(ConstructedCorpusTest, FewerThanKTouchedIdsTakesTheFallback) {
  // Only three graphs share a query key, so no k = 10 seed exists: the
  // witness stays empty and the scans run the one-pass count.
  db_.Add(Missing(0, 4));
  db_.Add(Missing(8, 12));
  db_.Add(Missing(2, 9));
  BuildIndex();
  for (bool prefilter : {false, true}) {
    SearchOptions options;
    options.tau_hat = 2;
    options.use_prefilter = prefilter;
    const std::string config = "prefilter=" + std::to_string(prefilter);
    const ScanWitness w = SeededWitness(db_, *index_, query_, 10, options);
    EXPECT_EQ(w.phi, -std::numeric_limits<double>::infinity()) << config;
    ExpectWalkMatchesExhaustive(db_, *index_, Services(&db_, index_.get()),
                                {query_}, 10, options, config);
  }
}

TEST_F(ConstructedCorpusTest, SeedsThatCannotArmAWalkAreNotScored) {
  // Ten copies of the query padded with 100 isolated vertices: each holds
  // every query key, but its GBD lower bound from the walked keys alone is
  // 100 > |B_q|, so the witness it would give, (0, 100), has a radius past
  // the query and no range could walk. The seed publishes nothing, and
  // the scans run the one-pass count with the exhaustive result.
  Graph padded = query_;
  for (int i = 0; i < 100; ++i) padded.AddVertex(kOtherLabel);
  for (int copy = 0; copy < 10; ++copy) db_.Add(padded);
  BuildIndex();
  SearchOptions options;
  options.tau_hat = 2;
  const ScanWitness w = SeededWitness(db_, *index_, query_, 10, options);
  EXPECT_EQ(w.phi, -std::numeric_limits<double>::infinity());
  ExpectWalkMatchesExhaustive(db_, *index_, Services(&db_, index_.get()),
                              {query_}, 10, options, "padded");
}

TEST_F(ConstructedCorpusTest, PrefilteredBestSharedCountDoesNotSeed) {
  // tau_hat = 0, so the seed walks one key. X is the query plus an isolated
  // vertex (GBD 1), which the prefilter rejects (one vertex too many). Y
  // reattaches the last vertex to the third-last (same sizes and labels:
  // the prefilter admits it; GBD 2). Two copies of the query's last four
  // vertices make the keys Y lacks commoner than the others, so the walked
  // key is held by X and Y alike and X, the smaller id, heads the
  // shared-count order. The seed must skip X and publish Y's (0, 2): X's
  // (0, 1) would prune Y, the only admitted candidate.
  Graph x = query_;
  x.AddVertex(kOtherLabel);
  db_.Add(x);
  Graph y = Path(0, kPathLength - 1);
  y.AddVertex(static_cast<LabelId>(kQueryLabels + kPathLength - 1));
  ASSERT_TRUE(y.AddEdge(kPathLength - 3, kPathLength - 1, 1).ok());
  const size_t y_id = db_.Add(y);
  db_.Add(Path(kPathLength - 4, kPathLength));
  db_.Add(Path(kPathLength - 4, kPathLength));
  BuildIndex();

  SearchOptions options;
  options.tau_hat = 0;
  options.use_prefilter = true;
  const ScanWitness w = SeededWitness(db_, *index_, query_, 1, options);
  EXPECT_EQ(w.phi, 0.0);
  EXPECT_EQ(w.gbd, 2);
  const std::vector<SearchResult> walked = ExpectWalkMatchesExhaustive(
      db_, *index_, Services(&db_, index_.get()), {query_}, 1, options,
      "prefilter");
  ASSERT_EQ(walked.size(), 1u);
  ASSERT_EQ(walked[0].matches.size(), 1u);
  EXPECT_EQ(walked[0].matches[0].graph_id, y_id);
  EXPECT_EQ(walked[0].matches[0].gbd, 2);
  // Without the prefilter X itself seeds.
  options.use_prefilter = false;
  EXPECT_EQ(SeededWitness(db_, *index_, query_, 1, options).gbd, 1);
}

}  // namespace
}  // namespace gbda
