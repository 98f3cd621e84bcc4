// The top-k early-termination contract (docs/ARCHITECTURE.md, "Serving
// layer"): a pruned ranking scan — serial GbdaSearch, sharded GbdaService,
// and the dynamic snapshot path — is bit-identical to the exhaustive scan:
// ids, exact phi doubles, GBDs, ordering including every tie at the bound,
// and the deterministic counters (candidates_evaluated, prefiltered_out).
// Only SearchResult::pruned_by_bound may differ (it is timing-dependent
// under sharding), so it is deliberately excluded. Mirrors the structure of
// index_view_equivalence_test.cc: variants x prefilter x shards {1, 2, 7}
// x k in {1, 10, corpus, > corpus}, over two indexes of one corpus: without
// model label counts every Phi is 0, so the witness prunes through its gbd
// half only; with them the k-th best Phi is non-zero and the phi half of
// the witness is exercised too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/posterior.h"
#include "core/prefilter.h"
#include "datagen/dataset_profiles.h"
#include "service/dynamic_service.h"
#include "service/gbda_service.h"

namespace gbda {
namespace {

void ExpectSameResult(const SearchResult& exhaustive,
                      const SearchResult& pruned, const std::string& label) {
  ASSERT_EQ(exhaustive.matches.size(), pruned.matches.size()) << label;
  for (size_t i = 0; i < exhaustive.matches.size(); ++i) {
    EXPECT_EQ(exhaustive.matches[i].graph_id, pruned.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].phi_score, pruned.matches[i].phi_score)
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].gbd, pruned.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(exhaustive.candidates_evaluated, pruned.candidates_evaluated)
      << label;
  EXPECT_EQ(exhaustive.prefiltered_out, pruned.prefiltered_out) << label;
  // pruned_by_bound is intentionally NOT compared (see the file comment);
  // the exhaustive reference must report none.
  EXPECT_EQ(exhaustive.pruned_by_bound, 0u) << label;
}

class TopKPruneEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The size-laddered AIDS profile exercises both pruning tiers: the
    // O(1) size tier across rungs and the fingerprint tier within a rung.
    DatasetProfile profile = AidsProfile(0.04);
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 1500;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    // A corpus under its own label model (the input
    // gamma_prune_equivalence_test uses): real posterior mass, so the k-th
    // best Phi — the phi half of the witness — is non-zero.
    DatasetProfile model_profile = FingerprintProfile(0.05);
    Result<GeneratedDataset> model_ds = GenerateDataset(model_profile);
    ASSERT_TRUE(model_ds.ok()) << model_ds.status().ToString();
    model_dataset_ = new GeneratedDataset(std::move(*model_ds));
    options.model_vertex_labels =
        static_cast<int64_t>(model_profile.num_vertex_labels);
    options.model_edge_labels =
        static_cast<int64_t>(model_profile.num_edge_labels);
    Result<GbdaIndex> model_index =
        GbdaIndex::Build(model_dataset_->db, options);
    ASSERT_TRUE(model_index.ok()) << model_index.status().ToString();
    model_index_ = new GbdaIndex(std::move(*model_index));
  }
  static void TearDownTestSuite() {
    delete model_index_;
    delete model_dataset_;
    delete index_;
    delete dataset_;
    model_index_ = nullptr;
    model_dataset_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static std::vector<size_t> TestKs(size_t corpus) {
    return {1, 10, corpus, corpus + 7};
  }

  /// The corpora the equivalence sweeps run over, labelled for messages.
  struct Fixture {
    std::string name;
    const GeneratedDataset* data;
    const GbdaIndex* index;
  };
  static std::vector<Fixture> Fixtures() {
    return {{"aids", dataset_, index_},
            {"fingerprint-model-labels", model_dataset_, model_index_}};
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static GeneratedDataset* model_dataset_;
  static GbdaIndex* model_index_;
};

GeneratedDataset* TopKPruneEquivalenceTest::dataset_ = nullptr;
GbdaIndex* TopKPruneEquivalenceTest::index_ = nullptr;
GeneratedDataset* TopKPruneEquivalenceTest::model_dataset_ = nullptr;
GbdaIndex* TopKPruneEquivalenceTest::model_index_ = nullptr;

TEST_F(TopKPruneEquivalenceTest, ModelLabelFixtureGivesNonZeroPhiWitnesses) {
  // Guard the phi half of the coverage: on the model-label fixture the
  // exhaustive k-th best Phi at k = 10 is non-zero for every swept query,
  // so the pruned scans below meet non-zero phi witnesses.
  GbdaSearch model(&model_dataset_->db, model_index_);
  SearchOptions exhaustive;
  exhaustive.tau_hat = 6;
  exhaustive.topk_early_termination = false;
  for (size_t q = 0; q < std::min<size_t>(model_dataset_->queries.size(), 4);
       ++q) {
    Result<SearchResult> r =
        model.QueryTopK(model_dataset_->queries[q], 10, exhaustive);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->matches.size(), 10u);
    EXPECT_GT(r->matches.back().phi_score, 0.0) << "query " << q;
  }
}

TEST_F(TopKPruneEquivalenceTest, SerialPrunedMatchesSerialExhaustive) {
  for (const Fixture& f : Fixtures()) {
    GbdaSearch search(&f.data->db, f.index);
    const size_t num_queries = std::min<size_t>(f.data->queries.size(), 4);
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
          GbdaVariant::kWeightedGbd}) {
      for (bool prefilter : {false, true}) {
        SearchOptions exhaustive;
        exhaustive.tau_hat = 6;
        exhaustive.variant = variant;
        exhaustive.use_prefilter = prefilter;
        exhaustive.topk_early_termination = false;
        SearchOptions pruned = exhaustive;
        pruned.topk_early_termination = true;
        for (size_t k : TestKs(f.data->db.size())) {
          for (size_t q = 0; q < num_queries; ++q) {
            const std::string label =
                f.name + " variant=" +
                std::to_string(static_cast<int>(variant)) +
                " prefilter=" + std::to_string(prefilter) +
                " k=" + std::to_string(k) + " query=" + std::to_string(q);
            Result<SearchResult> a =
                search.QueryTopK(f.data->queries[q], k, exhaustive);
            Result<SearchResult> b =
                search.QueryTopK(f.data->queries[q], k, pruned);
            ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
            ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
            ExpectSameResult(*a, *b, label);
          }
        }
      }
    }
  }
}

TEST_F(TopKPruneEquivalenceTest, ShardedPrunedMatchesSerialExhaustive) {
  for (const Fixture& f : Fixtures()) {
    GbdaSearch exhaustive_serial(&f.data->db, f.index);
    const size_t num_queries = std::min<size_t>(f.data->queries.size(), 3);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
      ServiceOptions service_options;
      service_options.num_threads = 3;
      service_options.num_shards = shards;
      GbdaService service(&f.data->db, f.index, service_options);
      for (GbdaVariant variant :
           {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
            GbdaVariant::kWeightedGbd}) {
        for (bool prefilter : {false, true}) {
          SearchOptions exhaustive;
          exhaustive.tau_hat = 6;
          exhaustive.variant = variant;
          exhaustive.use_prefilter = prefilter;
          exhaustive.topk_early_termination = false;
          SearchOptions pruned = exhaustive;
          pruned.topk_early_termination = true;
          for (size_t k : TestKs(f.data->db.size())) {
            for (size_t q = 0; q < num_queries; ++q) {
              const std::string label =
                  f.name + " shards=" + std::to_string(shards) +
                  " variant=" + std::to_string(static_cast<int>(variant)) +
                  " prefilter=" +
                  std::to_string(prefilter) + " k=" + std::to_string(k) +
                  " query=" + std::to_string(q);
              Result<SearchResult> reference = exhaustive_serial.QueryTopK(
                  f.data->queries[q], k, exhaustive);
              Result<SearchResult> got =
                  service.QueryTopK(f.data->queries[q], k, pruned);
              ASSERT_TRUE(reference.ok()) << label;
              ASSERT_TRUE(got.ok()) << label;
              ExpectSameResult(*reference, *got, label);
            }
          }
        }
      }
    }
  }
}

TEST_F(TopKPruneEquivalenceTest, BatchedTopKMatchesPerQueryResults) {
  for (const Fixture& f : Fixtures()) {
    ServiceOptions service_options;
    service_options.num_threads = 3;
    service_options.num_shards = 7;
    GbdaService service(&f.data->db, f.index, service_options);
    SearchOptions exhaustive;
    exhaustive.tau_hat = 6;
    exhaustive.topk_early_termination = false;
    SearchOptions pruned = exhaustive;
    pruned.topk_early_termination = true;
    for (size_t k : TestKs(f.data->db.size())) {
      Result<std::vector<SearchResult>> batch =
          service.QueryTopKBatch(f.data->queries, k, pruned);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), f.data->queries.size());
      for (size_t q = 0; q < f.data->queries.size(); ++q) {
        Result<SearchResult> reference =
            service.QueryTopK(f.data->queries[q], k, exhaustive);
        ASSERT_TRUE(reference.ok());
        ExpectSameResult(*reference, (*batch)[q],
                         f.name + " k=" + std::to_string(k) +
                             " batch query " + std::to_string(q));
      }
    }
  }
}

TEST_F(TopKPruneEquivalenceTest, DynamicSnapshotPrunedMatchesExhaustive) {
  // The dynamic path always has snapshot profiles at hand, so its pruned
  // scans take the fingerprint tier even with use_prefilter off.
  GbdaIndexOptions index_options;
  index_options.tau_max = 10;
  index_options.gbd_prior.num_sample_pairs = 1500;
  DynamicServiceOptions dyn_options;
  dyn_options.service.num_threads = 2;
  dyn_options.service.num_shards = 7;
  GraphDatabase db_copy = dataset_->db;
  Result<std::unique_ptr<DynamicGbdaService>> dyn = DynamicGbdaService::Create(
      std::move(db_copy), index_options, dyn_options);
  ASSERT_TRUE(dyn.ok()) << dyn.status().ToString();
  SearchOptions exhaustive;
  exhaustive.tau_hat = 6;
  exhaustive.topk_early_termination = false;
  SearchOptions pruned = exhaustive;
  pruned.topk_early_termination = true;
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 4);
  for (size_t k : TestKs(dataset_->db.size())) {
    for (size_t q = 0; q < num_queries; ++q) {
      const std::string label =
          "dynamic k=" + std::to_string(k) + " query=" + std::to_string(q);
      Result<SearchResult> a =
          (*dyn)->QueryTopK(dataset_->queries[q], k, exhaustive);
      Result<SearchResult> b =
          (*dyn)->QueryTopK(dataset_->queries[q], k, pruned);
      ASSERT_TRUE(a.ok()) << label;
      ASSERT_TRUE(b.ok()) << label;
      ExpectSameResult(*a, *b, label);
    }
    Result<std::vector<SearchResult>> batch =
        (*dyn)->QueryTopKBatch(dataset_->queries, k, pruned);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), dataset_->queries.size());
    for (size_t q = 0; q < num_queries; ++q) {
      Result<SearchResult> reference =
          (*dyn)->QueryTopK(dataset_->queries[q], k, exhaustive);
      ASSERT_TRUE(reference.ok());
      ExpectSameResult(*reference, (*batch)[q],
                       "dynamic batch k=" + std::to_string(k) + " query " +
                           std::to_string(q));
    }
  }
}

TEST_F(TopKPruneEquivalenceTest, PrunedScansActuallyPrune) {
  // Guard against the suite silently passing because nothing was ever
  // pruned: at k = 1 the bound must fire on this size-laddered corpus.
  GbdaSearch search(&dataset_->db, index_);
  SearchOptions pruned;
  pruned.tau_hat = 6;
  Result<SearchResult> r = search.QueryTopK(dataset_->queries[0], 1, pruned);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->pruned_by_bound, 0u);
  EXPECT_LE(r->pruned_by_bound, r->candidates_evaluated);
}

TEST_F(TopKPruneEquivalenceTest, PhiSuffixMaxBoundsPhiAndEndsSupport) {
  // The pruning bound's two analytic facts, checked against the engine:
  // T[p] majorizes Phi(v, phi) for every phi >= p, and Phi is exactly zero
  // past min(v, 2 * tau_hat).
  PosteriorEngine engine(index_->num_vertex_labels(),
                         index_->num_edge_labels(), index_->tau_max(),
                         index_->mutable_ged_prior(), &index_->gbd_prior());
  for (int64_t v : {int64_t{5}, int64_t{20}, int64_t{33}}) {
    for (int64_t tau_hat : {int64_t{0}, int64_t{2}, int64_t{6}}) {
      Result<std::vector<double>> table = engine.PhiSuffixMax(v, tau_hat);
      ASSERT_TRUE(table.ok());
      const int64_t cap = std::min(v, 2 * tau_hat);
      ASSERT_EQ(table->size(), static_cast<size_t>(cap + 1));
      for (int64_t phi = 0; phi <= cap + 5; ++phi) {
        Result<double> exact = engine.Phi(v, phi, tau_hat);
        ASSERT_TRUE(exact.ok());
        if (phi > cap) {
          EXPECT_EQ(*exact, 0.0) << "v=" << v << " phi=" << phi;
        }
        for (int64_t p = 0; p <= std::min(phi, cap); ++p) {
          EXPECT_GE((*table)[static_cast<size_t>(p)], *exact)
              << "v=" << v << " tau=" << tau_hat << " phi=" << phi
              << " p=" << p;
        }
        Result<double> ub = engine.PhiUpperBound(v, phi, tau_hat);
        ASSERT_TRUE(ub.ok());
        EXPECT_GE(*ub, *exact);
      }
      // Non-increasing: the monotonicity the tier-2 cut derivation uses.
      for (size_t p = 1; p < table->size(); ++p) {
        EXPECT_LE((*table)[p], (*table)[p - 1]);
      }
    }
  }
}

TEST_F(TopKPruneEquivalenceTest, CommonBranchUpperBoundIsAdmissible) {
  // The fingerprint intersection must never undercount the true branch
  // intersection (undercounting would overstate the GBD lower bound and
  // break soundness).
  const size_t n = std::min<size_t>(dataset_->db.size(), 12);
  std::vector<FilterProfile> profiles;
  std::vector<BranchMultiset> branches;
  for (size_t i = 0; i < n; ++i) {
    profiles.push_back(BuildFilterProfile(dataset_->db.graph(i)));
    branches.push_back(ExtractBranches(dataset_->db.graph(i)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const int64_t bound = CommonBranchUpperBound(profiles[i], profiles[j]);
      const int64_t truth = static_cast<int64_t>(
          BranchIntersectionSize(branches[i], branches[j]));
      EXPECT_GE(bound, truth) << "pair " << i << "," << j;
      EXPECT_LE(bound, static_cast<int64_t>(std::min(
                           branches[i].size(), branches[j].size())));
    }
  }
}

}  // namespace
}  // namespace gbda
