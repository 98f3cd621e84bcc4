// GbdaIndex lifecycle checks outside persistence: Build's argument
// validation and the atomicity of RemoveGraphs. The arena format itself is
// covered by storage_test, arena_columns_test and ann_arena_test.
#include <gtest/gtest.h>

#include "core/gbda_index.h"
#include "datagen/dataset_profiles.h"

namespace gbda {
namespace {

class IndexIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.03);
    profile.seed = 31;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
};

GeneratedDataset* IndexIoTest::dataset_ = nullptr;

TEST_F(IndexIoTest, IndexRemoveGraphsIsAtomicOnInvalidBatch) {
  GbdaIndexOptions options;
  options.tau_max = 4;
  options.gbd_prior.num_sample_pairs = 200;
  Result<GbdaIndex> built = GbdaIndex::Build(dataset_->db, options);
  ASSERT_TRUE(built.ok());
  const size_t live_before = built->num_live();
  const double avg_before = built->avg_vertices();

  // Duplicate id in one batch: the whole call must be a no-op.
  EXPECT_EQ(built->RemoveGraphs({1, 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(built->is_live(1));
  EXPECT_EQ(built->num_live(), live_before);
  EXPECT_EQ(built->avg_vertices(), avg_before);
  EXPECT_EQ(built->gbd_staleness(), 0u);
  // Mixed valid/invalid: graph 0 must survive the failed call.
  EXPECT_FALSE(built->RemoveGraphs({0, live_before + 10}).ok());
  EXPECT_TRUE(built->is_live(0));
  EXPECT_EQ(built->num_live(), live_before);
}

TEST_F(IndexIoTest, BuildRejectsEmptyDatabase) {
  GraphDatabase empty;
  GbdaIndexOptions options;
  EXPECT_FALSE(GbdaIndex::Build(empty, options).ok());
}

TEST_F(IndexIoTest, BuildRejectsNegativeTau) {
  GbdaIndexOptions options;
  options.tau_max = -1;
  EXPECT_FALSE(GbdaIndex::Build(dataset_->db, options).ok());
}

TEST_F(IndexIoTest, BuildRejectsWhatTheArenaReaderRejects) {
  // Build runs the reader's own header check before allocating anything:
  // a tau_max past the plausibility bound fails cleanly instead of sizing
  // the GED-prior rows (a huge one would exhaust memory), as do GMM knobs
  // the reader would refuse.
  for (int64_t tau : {kMaxPlausibleTau + 1, int64_t{1500},
                      int64_t{99999999999}}) {
    GbdaIndexOptions options;
    options.tau_max = tau;
    Result<GbdaIndex> built = GbdaIndex::Build(dataset_->db, options);
    ASSERT_FALSE(built.ok()) << "tau_max " << tau;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find("implausible tau_max"),
              std::string::npos)
        << built.status().message();
  }
  GbdaIndexOptions bad_gmm;
  bad_gmm.gbd_prior.gmm.num_components = 0;
  EXPECT_EQ(GbdaIndex::Build(dataset_->db, bad_gmm).status().code(),
            StatusCode::kInvalidArgument);
  GbdaIndexOptions bad_floor;
  bad_floor.gbd_prior.gmm.stddev_floor = 0.0;
  EXPECT_EQ(GbdaIndex::Build(dataset_->db, bad_floor).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gbda
