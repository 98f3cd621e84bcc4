// The threshold-scan gamma cut (docs/ARCHITECTURE.md, "Top-k early
// termination"): a threshold scan skips a candidate whose Phi upper bound is
// strictly below gamma, and must stay bit-identical to the exhaustive scan
// (SearchOptions::topk_early_termination = false) — ids, exact phi bits,
// GBDs, order, candidates_evaluated and prefiltered_out — on the serial and
// the sharded paths. Unlike top-k, the cut has no cross-shard state, so its
// pruned_by_bound is also identical across shard counts. Sweeps variants x
// prefilter x shards {1, 2, 7} x tau_hat {0, 5} x gamma {0, 0.5, 0.9, 1.0,
// 1.5, and the best Phi found, so one candidate sits exactly at the cut}.
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

void ExpectSameResult(const SearchResult& exhaustive, const SearchResult& cut,
                      const std::string& label) {
  ASSERT_EQ(exhaustive.matches.size(), cut.matches.size()) << label;
  for (size_t i = 0; i < exhaustive.matches.size(); ++i) {
    EXPECT_EQ(exhaustive.matches[i].graph_id, cut.matches[i].graph_id)
        << label << " match " << i;
    EXPECT_EQ(PhiBits(exhaustive.matches[i].phi_score),
              PhiBits(cut.matches[i].phi_score))
        << label << " match " << i;
    EXPECT_EQ(exhaustive.matches[i].gbd, cut.matches[i].gbd)
        << label << " match " << i;
  }
  EXPECT_EQ(exhaustive.candidates_evaluated, cut.candidates_evaluated)
      << label;
  EXPECT_EQ(exhaustive.prefiltered_out, cut.prefiltered_out) << label;
  EXPECT_EQ(exhaustive.pruned_by_bound, 0u) << label;
  EXPECT_EQ(cut.verified_count + cut.pruned_by_bound, cut.candidates_evaluated)
      << label;
}

class GammaPruneEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The fingerprint profile under its own label model gives real
    // posterior mass (Phi up to ~5 at tau_hat 5), so matches sit on both
    // sides of every gamma in the sweep.
    DatasetProfile profile = FingerprintProfile(0.05);
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 10;
    options.gbd_prior.num_sample_pairs = 2000;
    options.model_vertex_labels =
        static_cast<int64_t>(profile.num_vertex_labels);
    options.model_edge_labels = static_cast<int64_t>(profile.num_edge_labels);
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
};

GeneratedDataset* GammaPruneEquivalenceTest::dataset_ = nullptr;
GbdaIndex* GammaPruneEquivalenceTest::index_ = nullptr;

TEST_F(GammaPruneEquivalenceTest, CutScansMatchExhaustiveOnEveryShardLayout) {
  GbdaSearch serial(&dataset_->db, index_);
  std::vector<std::unique_ptr<GbdaService>> services;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{7}}) {
    ServiceOptions service_options;
    service_options.num_threads = 3;
    service_options.num_shards = shards;
    services.push_back(
        std::make_unique<GbdaService>(&dataset_->db, index_, service_options));
  }
  const size_t num_queries = std::min<size_t>(dataset_->queries.size(), 4);
  const Span<Graph> queries(dataset_->queries.data(), num_queries);
  for (GbdaVariant variant :
       {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
        GbdaVariant::kWeightedGbd}) {
    for (bool prefilter : {false, true}) {
      size_t pruned_at_09 = 0;
      for (int64_t tau_hat : {int64_t{0}, int64_t{5}}) {
        SearchOptions base;
        base.tau_hat = tau_hat;
        base.variant = variant;
        base.use_prefilter = prefilter;
        base.topk_early_termination = false;
        // One more gamma: the best Phi the exhaustive scan finds, so a
        // candidate sits exactly at the cut. Its bound ties gamma and must
        // not prune it.
        double best_phi = 0.0;
        for (size_t q = 0; q < num_queries; ++q) {
          base.gamma = 0.0;
          Result<SearchResult> all = serial.Query(queries[q], base);
          ASSERT_TRUE(all.ok()) << all.status().ToString();
          for (const SearchMatch& m : all->matches) {
            best_phi = std::max(best_phi, m.phi_score);
          }
        }
        for (double gamma : {0.0, 0.5, 0.9, 1.0, 1.5, best_phi}) {
          SearchOptions exhaustive = base;
          exhaustive.gamma = gamma;
          SearchOptions cut = exhaustive;
          cut.topk_early_termination = true;
          const std::string config =
              "variant=" + std::to_string(static_cast<int>(variant)) +
              " prefilter=" + std::to_string(prefilter) +
              " tau=" + std::to_string(tau_hat) +
              " gamma=" + std::to_string(gamma);
          std::vector<SearchResult> reference;
          std::vector<size_t> serial_pruned;
          for (size_t q = 0; q < num_queries; ++q) {
            const std::string label = config + " query=" + std::to_string(q);
            Result<SearchResult> a = serial.Query(queries[q], exhaustive);
            Result<SearchResult> b = serial.Query(queries[q], cut);
            ASSERT_TRUE(a.ok()) << label << ": " << a.status().ToString();
            ASSERT_TRUE(b.ok()) << label << ": " << b.status().ToString();
            ExpectSameResult(*a, *b, "serial " + label);
            if (gamma <= 0.0) {
              EXPECT_EQ(b->pruned_by_bound, 0u) << label;
            }
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
                service->QueryBatch(queries, cut);
            ASSERT_TRUE(batch.ok()) << label << ": "
                                    << batch.status().ToString();
            ASSERT_EQ(batch->size(), num_queries) << label;
            for (size_t q = 0; q < num_queries; ++q) {
              const std::string qlabel = label + " query=" + std::to_string(q);
              ExpectSameResult(reference[q], (*batch)[q], qlabel);
              // No cross-shard state: the cut prunes the same candidates
              // whatever the shard layout.
              EXPECT_EQ((*batch)[q].pruned_by_bound, serial_pruned[q])
                  << qlabel;
            }
          }
        }
      }
      // Guard against the sweep passing because the cut never fired.
      EXPECT_GT(pruned_at_09, 0u) << "variant=" << static_cast<int>(variant)
                                  << " prefilter=" << prefilter;
    }
  }
}

}  // namespace
}  // namespace gbda
