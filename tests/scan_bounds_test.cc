// The cross-shard top-k witness (core/gbda_search.h, ScanBounds): the packed
// 64-bit key must order like SearchMatchRankBefore on (phi, gbd) wherever
// it is exact, and its decoded witness may never rank ahead of the pair that
// was published. A service whose shards run one after another must then
// verify about as few candidates as the serial scan: each shard starts from
// the witness its predecessors published, gbd tie-break included.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"

namespace gbda {
namespace {

// Rank order on (phi, gbd) through the real ranking function: equal ids,
// so only phi and gbd decide.
bool RankBefore(double phi_a, int64_t gbd_a, double phi_b, int64_t gbd_b) {
  return SearchMatchRankBefore(SearchMatch{0, phi_a, gbd_a},
                               SearchMatch{0, phi_b, gbd_b});
}

// Doubles with no bits in the dropped mantissa range: the key holds them
// exactly.
std::vector<double> ExactPhis() {
  const double paper_phi =
      ScanBounds::Unpack(ScanBounds::Pack(0.8595, 0)).phi;  // rounded down
  return {0.0, std::ldexp(1.0, -30), 0.25, 0.5, 0.75, paper_phi, 1.0, 1.5,
          3.0};
}

std::vector<int64_t> PackedGbds() {
  return {0, 1, 2, 7, 1000, ScanBounds::kMaxPackedGbd - 1,
          ScanBounds::kMaxPackedGbd};
}

TEST(ScanBoundsTest, PackedKeyOrdersExactlyLikeTheRankWhereExact) {
  std::vector<std::pair<double, int64_t>> pairs;
  for (double phi : ExactPhis()) {
    for (int64_t gbd : PackedGbds()) pairs.emplace_back(phi, gbd);
  }
  for (const auto& [phi, gbd] : pairs) {
    const ScanWitness w = ScanBounds::Unpack(ScanBounds::Pack(phi, gbd));
    EXPECT_EQ(w.phi, phi) << "gbd=" << gbd;
    EXPECT_EQ(w.gbd, gbd) << "phi=" << phi;
  }
  for (const auto& [phi_a, gbd_a] : pairs) {
    for (const auto& [phi_b, gbd_b] : pairs) {
      const uint64_t a = ScanBounds::Pack(phi_a, gbd_a);
      const uint64_t b = ScanBounds::Pack(phi_b, gbd_b);
      const std::string label = "(" + std::to_string(phi_a) + "," +
                                std::to_string(gbd_a) + ") vs (" +
                                std::to_string(phi_b) + "," +
                                std::to_string(gbd_b) + ")";
      EXPECT_EQ(RankBefore(phi_a, gbd_a, phi_b, gbd_b), a > b) << label;
      EXPECT_EQ(phi_a == phi_b && gbd_a == gbd_b, a == b) << label;
    }
  }
  // -0.0 compares equal to 0.0, so it must pack to the same key.
  EXPECT_EQ(ScanBounds::Pack(-0.0, 3), ScanBounds::Pack(0.0, 3));
}

TEST(ScanBoundsTest, DecodedWitnessNeverRanksAheadOfThePublishedPair) {
  Rng rng(2024);
  std::vector<double> phis = ExactPhis();
  phis.insert(phis.end(), {0.8595, 1e-300, 5e-324, 0.1, 1.0 / 3.0,
                           std::nextafter(1.0, 2.0)});
  for (int i = 0; i < 200; ++i) phis.push_back(2.0 * rng.NextDouble());
  std::vector<int64_t> gbds = PackedGbds();
  gbds.insert(gbds.end(), {ScanBounds::kMaxPackedGbd + 1,
                           ScanBounds::kMaxPackedGbd + 12345,
                           std::numeric_limits<int64_t>::max(), -1});
  for (double phi : phis) {
    for (int64_t gbd : gbds) {
      const uint64_t key = ScanBounds::Pack(phi, gbd);
      const ScanWitness w = ScanBounds::Unpack(key);
      EXPECT_FALSE(RankBefore(w.phi, w.gbd, phi, gbd))
          << "phi=" << phi << " gbd=" << gbd;
      EXPECT_LE(w.phi, phi) << "gbd=" << gbd;
      if (gbd < 0 || gbd > ScanBounds::kMaxPackedGbd) {
        // Past the packed width phi itself is weakened; it still ranks
        // after the same phi with any packable gbd.
        if (key != 0) {
          EXPECT_LT(w.phi, phi);
        }
        EXPECT_LT(key, ScanBounds::Pack(phi, ScanBounds::kMaxPackedGbd));
      }
    }
  }
  // phi = 0 cannot be weakened: an oversized gbd publishes nothing.
  EXPECT_EQ(ScanBounds::Pack(0.0, ScanBounds::kMaxPackedGbd + 1), 0u);
  // No witness for NaN or negative phi; key 0 decodes to "no witness".
  EXPECT_EQ(ScanBounds::Pack(std::nan(""), 0), 0u);
  EXPECT_EQ(ScanBounds::Pack(-0.5, 0), 0u);
  const ScanWitness none = ScanBounds::Unpack(0);
  EXPECT_EQ(none.phi, -std::numeric_limits<double>::infinity());
}

TEST(ScanBoundsTest, PublishKeepsTheBestWitness) {
  ScanBounds bounds(3);
  EXPECT_EQ(bounds.k(), 3u);
  EXPECT_EQ(bounds.witness().phi, -std::numeric_limits<double>::infinity());
  bounds.Publish(0.5, 7);
  bounds.Publish(0.25, 0);  // ranks after (0.5, 7): ignored
  EXPECT_EQ(bounds.witness().phi, 0.5);
  EXPECT_EQ(bounds.witness().gbd, 7);
  bounds.Publish(0.5, 3);  // the tie-break improves it
  EXPECT_EQ(bounds.witness().phi, 0.5);
  EXPECT_EQ(bounds.witness().gbd, 3);
  bounds.Publish(0.5, 9);
  EXPECT_EQ(bounds.witness().gbd, 3);
}

TEST(ScanBoundsTest, SequentialShardsVerifyAboutAsFewAsTheSerialScan) {
  // AASD: the k-th best phi_score is exactly 0 for most queries, so only a
  // shared gbd tie-break lets a later shard start from its predecessors'
  // witness. One worker runs the four shards of a query one after another
  // (FIFO), which makes the count deterministic.
  DatasetProfile profile = AasdProfile(0.02);
  Result<GeneratedDataset> ds = GenerateDataset(profile);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  GbdaIndexOptions index_options;
  index_options.tau_max = 10;
  index_options.gbd_prior.num_sample_pairs = 1500;
  index_options.model_vertex_labels =
      static_cast<int64_t>(profile.num_vertex_labels);
  index_options.model_edge_labels =
      static_cast<int64_t>(profile.num_edge_labels);
  Result<GbdaIndex> index = GbdaIndex::Build(ds->db, index_options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  constexpr size_t kShards = 4;
  constexpr size_t kK = 10;
  GbdaSearch serial(&ds->db, &*index);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.num_shards = kShards;
  GbdaService service(&ds->db, &*index, service_options);
  SearchOptions options;
  options.tau_hat = 5;
  Result<std::vector<SearchResult>> batch =
      service.QueryTopKBatch(ds->queries, kK, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), ds->queries.size());
  for (size_t q = 0; q < ds->queries.size(); ++q) {
    Result<SearchResult> reference = serial.QueryTopK(ds->queries[q], kK,
                                                      options);
    ASSERT_TRUE(reference.ok());
    const SearchResult& got = (*batch)[q];
    ASSERT_EQ(got.matches.size(), reference->matches.size()) << q;
    for (size_t i = 0; i < got.matches.size(); ++i) {
      EXPECT_EQ(got.matches[i].graph_id, reference->matches[i].graph_id);
    }
    EXPECT_LE(got.verified_count, reference->verified_count + kShards * kK)
        << "query " << q << ": serial verified " << reference->verified_count;
  }
}

}  // namespace
}  // namespace gbda
