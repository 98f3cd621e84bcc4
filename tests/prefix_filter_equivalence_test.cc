// The prefix-filtered range scan (core/gbda_search.h, ScanRange): the gamma
// cut of a non-weighted variant visits only the candidates sharing one of
// the query's rarest 2 * tau_hat + 1 branch positions, and must stay
// bit-identical to the exhaustive scan (SearchOptions::topk_early_termination
// = false) — ids, exact phi bits, GBDs, order, candidates_evaluated and
// prefiltered_out — serially and through services of 1, 2 and 7 shards,
// with verified_count + pruned_by_bound == candidates_evaluated, and must
// prune the same number of candidates on every shard layout. Two corpora:
// the fingerprint profile under its own label model and AASD. The sweep
// covers queries shorter than 2 * tau_hat + 1 branches, tau_hat = 0, a
// query key the corpus lacks, a repeated key straddling the 2 * tau_hat + 1
// boundary, and the prefilter on and off. A constructed corpus pins the
// walk's length: a match that shares only the (2 * tau_hat + 1)-th rarest
// position must be found. Ranking scans (which keep the one-pass postings
// count) are held to the same contract. A last case pins the empty query
// against zero-vertex graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
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

/// `n` vertices of label `vertex_label` on a cycle of `edge_label` edges:
/// every branch is identical, so its key has multiplicity n.
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

class PrefixFilterEquivalenceTest : public ::testing::Test {
 protected:
  struct Fixture {
    std::string name;
    GeneratedDataset data;
    std::unique_ptr<GbdaIndex> index;
    /// The profile's first queries, then the constructed corner cases.
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
      const size_t n = std::min<size_t>(f.data.queries.size(), 3);
      f.queries.assign(f.data.queries.begin(), f.data.queries.begin() + n);
      f.queries.push_back(Ring(3, 0, 0));  // 3 branches: below 2 * 5 + 1
      f.queries.push_back(Ring(8, 1, 0));  // one key, multiplicity 8
      f.queries.push_back(WithHub(f.data.queries[0], profile.num_edge_labels));
      fixtures_->push_back(std::move(f));
    }
  }
  static void TearDownTestSuite() {
    delete fixtures_;
    fixtures_ = nullptr;
  }

  static std::vector<std::unique_ptr<GbdaService>> Services(const Fixture& f) {
    std::vector<std::unique_ptr<GbdaService>> services;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
      ServiceOptions options;
      options.num_threads = 3;
      options.num_shards = shards;
      services.push_back(
          std::make_unique<GbdaService>(&f.data.db, f.index.get(), options));
    }
    return services;
  }

  static std::vector<Fixture>* fixtures_;
};

std::vector<PrefixFilterEquivalenceTest::Fixture>*
    PrefixFilterEquivalenceTest::fixtures_ = nullptr;

TEST_F(PrefixFilterEquivalenceTest, SweepCoversTheCornerCases) {
  bool short_query = false, absent_key = false, straddle = false;
  for (const Fixture& f : *fixtures_) {
    const CandidateColumns columns = f.index->columns();
    for (int64_t tau_hat : {int64_t{0}, int64_t{2}, int64_t{5}}) {
      SearchOptions options;
      options.tau_hat = tau_hat;
      for (const Graph& q : f.queries) {
        Result<ScanContext> ctx =
            PrepareScan(q, options, true, CorpusRef(&f.data.db), *f.index);
        ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
        const int64_t prefix = 2 * tau_hat + 1;
        short_query |= static_cast<int64_t>(ctx->query_fps.size()) < prefix;
        int64_t covered = 0;
        for (const ScanContext::QueryPosting& p : ctx->query_postings) {
          absent_key |= p.slot == columns.num_distinct;
          // A repeated key the corpus holds, walked across the boundary.
          straddle |= p.multiplicity > 1 && p.slot != columns.num_distinct &&
                      covered < prefix && covered + p.multiplicity > prefix;
          covered += p.multiplicity;
        }
      }
    }
  }
  EXPECT_TRUE(short_query);
  EXPECT_TRUE(absent_key);
  EXPECT_TRUE(straddle);
}

TEST_F(PrefixFilterEquivalenceTest, ThresholdScansMatchExhaustive) {
  for (const Fixture& f : *fixtures_) {
    GbdaSearch serial(&f.data.db, f.index.get());
    const std::vector<std::unique_ptr<GbdaService>> services = Services(f);
    const Span<Graph> queries(f.queries.data(), f.queries.size());
    size_t pruned_at_09 = 0;
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize}) {
      for (bool prefilter : {false, true}) {
        for (int64_t tau_hat : {int64_t{0}, int64_t{2}, int64_t{5}}) {
          // 1e-9 admits every candidate with posterior mass.
          for (double gamma : {1e-9, 0.5, 0.9}) {
            SearchOptions exhaustive;
            exhaustive.tau_hat = tau_hat;
            exhaustive.gamma = gamma;
            exhaustive.variant = variant;
            exhaustive.use_prefilter = prefilter;
            exhaustive.topk_early_termination = false;
            SearchOptions walked = exhaustive;
            walked.topk_early_termination = true;
            const std::string config =
                f.name + " variant=" +
                std::to_string(static_cast<int>(variant)) +
                " prefilter=" + std::to_string(prefilter) +
                " tau=" + std::to_string(tau_hat) +
                " gamma=" + std::to_string(gamma);
            std::vector<SearchResult> reference;
            std::vector<size_t> serial_pruned;
            for (size_t q = 0; q < f.queries.size(); ++q) {
              const std::string label = config + " query=" + std::to_string(q);
              Result<SearchResult> a = serial.Query(f.queries[q], exhaustive);
              Result<SearchResult> b = serial.Query(f.queries[q], walked);
              ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
              ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
              ExpectSameResult(*a, *b, "serial " + label);
              if (gamma == 0.9 && tau_hat == 5) {
                pruned_at_09 += b->pruned_by_bound;
              }
              reference.push_back(std::move(*a));
              serial_pruned.push_back(b->pruned_by_bound);
            }
            for (const std::unique_ptr<GbdaService>& service : services) {
              const std::string label =
                  config + " shards=" + std::to_string(service->num_shards());
              Result<std::vector<SearchResult>> batch =
                  service->QueryBatch(queries, walked);
              ASSERT_TRUE(batch.ok()) << label << ": "
                                      << batch.status().ToString();
              for (size_t q = 0; q < f.queries.size(); ++q) {
                const std::string qlabel =
                    label + " query=" + std::to_string(q);
                ExpectSameResult(reference[q], (*batch)[q], qlabel);
                EXPECT_EQ((*batch)[q].pruned_by_bound, serial_pruned[q])
                    << qlabel;
              }
            }
          }
        }
      }
    }
    EXPECT_GT(pruned_at_09, 0u) << f.name;
  }
}

TEST_F(PrefixFilterEquivalenceTest, TopKScansMatchExhaustive) {
  for (const Fixture& f : *fixtures_) {
    GbdaSearch serial(&f.data.db, f.index.get());
    const std::vector<std::unique_ptr<GbdaService>> services = Services(f);
    const Span<Graph> queries(f.queries.data(), f.queries.size());
    const size_t n = f.data.db.size();
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize}) {
      for (bool prefilter : {false, true}) {
        for (int64_t tau_hat : {int64_t{0}, int64_t{5}}) {
          for (size_t k : {size_t{1}, size_t{10}, size_t{200}, n - 1}) {
            SearchOptions exhaustive;
            exhaustive.tau_hat = tau_hat;
            exhaustive.variant = variant;
            exhaustive.use_prefilter = prefilter;
            exhaustive.topk_early_termination = false;
            SearchOptions walked = exhaustive;
            walked.topk_early_termination = true;
            const std::string config =
                f.name + " variant=" +
                std::to_string(static_cast<int>(variant)) +
                " prefilter=" + std::to_string(prefilter) +
                " tau=" + std::to_string(tau_hat) +
                " k=" + std::to_string(k);
            std::vector<SearchResult> reference;
            for (size_t q = 0; q < f.queries.size(); ++q) {
              const std::string label = config + " query=" + std::to_string(q);
              Result<SearchResult> a =
                  serial.QueryTopK(f.queries[q], k, exhaustive);
              Result<SearchResult> b =
                  serial.QueryTopK(f.queries[q], k, walked);
              ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
              ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
              ExpectSameResult(*a, *b, "serial " + label);
              reference.push_back(std::move(*a));
            }
            for (const std::unique_ptr<GbdaService>& service : services) {
              const std::string label =
                  config + " shards=" + std::to_string(service->num_shards());
              Result<std::vector<SearchResult>> batch =
                  service->QueryTopKBatch(queries, k, walked);
              ASSERT_TRUE(batch.ok()) << label << ": "
                                      << batch.status().ToString();
              for (size_t q = 0; q < f.queries.size(); ++q) {
                ExpectSameResult(reference[q], (*batch)[q],
                                 label + " query=" + std::to_string(q));
              }
            }
          }
        }
      }
    }
  }
}

TEST(PrefixFilterBoundaryTest, MatchSharingOnlyTheLastWalkedPositionIsFound) {
  // The query is a path of distinct vertex labels, so its branches are
  // distinct keys no generated graph holds. The corpus adds two copies of
  // the query and a target: the query with its first 2 * tau_hat vertices
  // relabelled, so it misses exactly those 2 * tau_hat branches and shares
  // the rest. Each copy holds every query key and the target only the
  // rest, so the missed keys are the query's rarest, and the target first
  // appears at the walk's (2 * tau_hat + 1)-th position. Its GBD is
  // 2 * tau_hat, inside Phi's support: a walk one position shorter would
  // count it as pruned.
  DatasetProfile profile = AidsProfile(0.03);
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  constexpr LabelId kQueryLabels = 1000;
  constexpr size_t kPathLength = 12;
  Graph query;
  for (size_t i = 0; i < kPathLength; ++i) {
    query.AddVertex(static_cast<LabelId>(kQueryLabels + i));
  }
  for (size_t i = 0; i + 1 < kPathLength; ++i) {
    ASSERT_TRUE(query
                    .AddEdge(static_cast<uint32_t>(i),
                             static_cast<uint32_t>(i + 1), 0)
                    .ok());
  }
  for (int64_t tau_hat : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    const std::string label = "tau=" + std::to_string(tau_hat);
    GraphDatabase db(ds->db);
    db.Add(query);
    db.Add(query);
    Graph target = query;
    for (int64_t i = 0; i < 2 * tau_hat; ++i) {
      ASSERT_TRUE(target
                      .RelabelVertex(static_cast<uint32_t>(i),
                                     kQueryLabels + 2 * kPathLength)
                      .ok());
    }
    const size_t target_id = db.Add(target);
    GbdaIndexOptions index_options;
    index_options.tau_max = 8;
    index_options.gbd_prior.num_sample_pairs = 500;
    Result<GbdaIndex> index = GbdaIndex::Build(db, index_options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();

    SearchOptions walked;
    walked.tau_hat = tau_hat;
    walked.gamma = 1e-12;
    SearchOptions exhaustive = walked;
    exhaustive.topk_early_termination = false;
    GbdaSearch serial(&db, &*index);
    Result<SearchResult> a = serial.Query(query, exhaustive);
    Result<SearchResult> b = serial.Query(query, walked);
    ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
    const auto has_target = [&](const SearchResult& r) {
      for (const SearchMatch& m : r.matches) {
        if (m.graph_id == target_id) return m.gbd == 2 * tau_hat;
      }
      return false;
    };
    ASSERT_TRUE(has_target(*a)) << label;
    EXPECT_TRUE(has_target(*b)) << label;
    ExpectSameResult(*a, *b, label);
    EXPECT_GT(b->pruned_by_bound, 0u) << label;
  }
}

TEST(PrefixFilterEmptyQueryTest, EmptyQueryOverEmptyGraphsScoresAtSizeOne) {
  // An empty query against a zero-vertex graph has extended size
  // max(|B_q|, |B_g|) = 0; the scan scores the pair at v = 1 instead of
  // failing the whole batch.
  DatasetProfile profile = AidsProfile(0.03);
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  GraphDatabase db(ds->db);
  db.Add(Graph());
  db.Add(Graph());
  GbdaIndexOptions index_options;
  index_options.tau_max = 8;
  index_options.gbd_prior.num_sample_pairs = 500;
  Result<GbdaIndex> index = GbdaIndex::Build(db, index_options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const std::vector<Graph> queries = {ds->queries[0], Graph()};
  const Span<Graph> batch_queries(queries.data(), queries.size());

  GbdaSearch serial(&db, &*index);
  for (bool prune : {false, true}) {
    SearchOptions options;
    options.tau_hat = 2;
    options.gamma = 0.0;
    options.topk_early_termination = prune;
    SearchOptions exhaustive = options;
    exhaustive.topk_early_termination = false;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
      ServiceOptions service_options;
      service_options.num_threads = 2;
      service_options.num_shards = shards;
      GbdaService service(&db, &*index, service_options);
      const std::string label = "prune=" + std::to_string(prune) +
                                " shards=" + std::to_string(shards);
      Result<std::vector<SearchResult>> threshold =
          service.QueryBatch(batch_queries, options);
      ASSERT_TRUE(threshold.ok()) << label << ": "
                                  << threshold.status().ToString();
      Result<std::vector<SearchResult>> top =
          service.QueryTopKBatch(batch_queries, 5, options);
      ASSERT_TRUE(top.ok()) << label << ": " << top.status().ToString();
      for (size_t q = 0; q < queries.size(); ++q) {
        Result<SearchResult> a = serial.Query(queries[q], exhaustive);
        ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
        ExpectSameResult(*a, (*threshold)[q],
                         "threshold " + label + " query=" + std::to_string(q));
        Result<SearchResult> b = serial.QueryTopK(queries[q], 5, exhaustive);
        ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
        ExpectSameResult(*b, (*top)[q],
                         "top-k " + label + " query=" + std::to_string(q));
      }
    }
  }
  // Every graph matches the empty query at gamma 0, the empty ones at GBD 0.
  SearchOptions options;
  options.tau_hat = 2;
  options.gamma = 0.0;
  Result<SearchResult> empty = serial.Query(Graph(), options);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_EQ(empty->matches.size(), db.size());
  EXPECT_EQ(empty->matches[db.size() - 1].gbd, 0);
  EXPECT_EQ(empty->matches[db.size() - 2].gbd, 0);
}

}  // namespace
}  // namespace gbda
