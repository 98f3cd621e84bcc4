// The storage engine (docs/ARCHITECTURE.md, "Storage engine"): MappedFile,
// the v3 arena writer/parser, GbdaIndexView open-time validation, corruption
// and hostile-header detection, and re-persisting a mapped view.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "common/crc32.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"
#include "storage/mapped_file.h"

namespace gbda {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Overwrites meta scalar `index` (0 = tau_max; see WriteArenaFile's field
// order) and re-seals the header CRC, so the edit reaches the plausibility
// and cross-section checks instead of tripping the always-on meta checksum.
std::string PatchMetaScalar(const std::string& data, size_t index,
                            int64_t value) {
  std::string out = data;
  std::memcpy(&out[kArenaPreambleBytes + index * 8], &value, sizeof(value));
  uint32_t section_count = 0;
  std::memcpy(&section_count, out.data() + 12, sizeof(section_count));
  const uint32_t crc =
      Crc32(out.data() + kArenaPreambleBytes,
            ArenaHeaderBytes(section_count) - kArenaPreambleBytes);
  std::memcpy(&out[24], &crc, sizeof(crc));
  return out;
}

class StorageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.04);
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    // Every persisted option off its default, so the round trip proves
    // each one is written and read back.
    GbdaIndexOptions options;
    options.tau_max = 8;
    options.seed = 4321;
    options.gbd_prior.num_sample_pairs = 500;
    options.gbd_prior.probability_floor = 1e-9;
    options.gbd_prior.gmm.num_components = 2;
    options.gbd_prior.gmm.max_iterations = 150;
    options.gbd_prior.gmm.tolerance = 1e-6;
    options.gbd_prior.gmm.stddev_floor = 0.3;
    options.gbd_prior.gmm.seed = 99;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    arena_path_ = new std::string(::testing::TempDir() + "/storage_test.v3");
    ASSERT_TRUE(WriteArenaFile(*index_, *arena_path_).ok());
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
    delete arena_path_;
    index_ = nullptr;
    dataset_ = nullptr;
    arena_path_ = nullptr;
  }

  static GeneratedDataset* dataset_;
  static GbdaIndex* index_;
  static std::string* arena_path_;
};

GeneratedDataset* StorageTest::dataset_ = nullptr;
GbdaIndex* StorageTest::index_ = nullptr;
std::string* StorageTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

TEST_F(StorageTest, MappedFileMapsExactBytes) {
  const std::string path = ::testing::TempDir() + "/mapped_file_test.bin";
  const std::string payload = "zero-copy storage engine";
  WriteFile(path, payload);
  Result<MappedFile> mapped = MappedFile::OpenReadOnly(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped->size(), payload.size());
  EXPECT_EQ(std::string(mapped->data(), mapped->size()), payload);
  EXPECT_EQ(mapped->path(), path);

  // Moving transfers the mapping without invalidating it.
  MappedFile moved = std::move(*mapped);
  EXPECT_EQ(std::string(moved.data(), moved.size()), payload);
}

TEST_F(StorageTest, MappedFileRejectsMissingAndEmptyFiles) {
  EXPECT_EQ(MappedFile::OpenReadOnly("/nonexistent/artifact.v3").status().code(),
            StatusCode::kIOError);
  const std::string path = ::testing::TempDir() + "/mapped_empty.bin";
  WriteFile(path, "");
  EXPECT_FALSE(MappedFile::OpenReadOnly(path).ok());
}

// ---------------------------------------------------------------------------
// Arena write / open round trip
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ArenaRoundTripPreservesEveryField) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  EXPECT_EQ(view->num_graphs(), index_->num_graphs());
  EXPECT_EQ(view->num_live(), index_->num_live());
  EXPECT_EQ(view->gbd_staleness(), 0u);
  EXPECT_EQ(view->tau_max(), index_->tau_max());
  EXPECT_EQ(view->num_vertex_labels(), index_->num_vertex_labels());
  EXPECT_EQ(view->num_edge_labels(), index_->num_edge_labels());
  EXPECT_EQ(view->avg_vertices(), index_->avg_vertices());
  const GbdaIndexOptions& got = view->options();
  const GbdaIndexOptions& want = index_->options();
  EXPECT_EQ(got.tau_max, want.tau_max);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.gbd_prior.num_sample_pairs, want.gbd_prior.num_sample_pairs);
  EXPECT_EQ(got.gbd_prior.probability_floor, want.gbd_prior.probability_floor);
  EXPECT_EQ(got.gbd_prior.gmm.num_components,
            want.gbd_prior.gmm.num_components);
  EXPECT_EQ(got.gbd_prior.gmm.max_iterations,
            want.gbd_prior.gmm.max_iterations);
  EXPECT_EQ(got.gbd_prior.gmm.tolerance, want.gbd_prior.gmm.tolerance);
  EXPECT_EQ(got.gbd_prior.gmm.stddev_floor, want.gbd_prior.gmm.stddev_floor);
  EXPECT_EQ(got.gbd_prior.gmm.seed, want.gbd_prior.gmm.seed);
  // The fixture really did leave the defaults, or the checks above prove
  // nothing about the fields a default-built index never sets.
  const GbdaIndexOptions defaults;
  EXPECT_NE(got.gbd_prior.probability_floor,
            defaults.gbd_prior.probability_floor);
  EXPECT_NE(got.gbd_prior.gmm.num_components,
            defaults.gbd_prior.gmm.num_components);
  EXPECT_NE(got.gbd_prior.gmm.max_iterations,
            defaults.gbd_prior.gmm.max_iterations);
  EXPECT_NE(got.gbd_prior.gmm.tolerance, defaults.gbd_prior.gmm.tolerance);
  EXPECT_NE(got.gbd_prior.gmm.stddev_floor,
            defaults.gbd_prior.gmm.stddev_floor);

  // Every branch multiset reads back identically through the flat view.
  for (size_t g = 0; g < index_->num_graphs(); ++g) {
    const BranchMultiset& owned = index_->branches(g);
    const BranchSetRef flat = view->branch_set(g);
    ASSERT_EQ(flat.size(), owned.size()) << "graph " << g;
    for (size_t b = 0; b < owned.size(); ++b) {
      EXPECT_EQ(flat.root(b), owned[b].root) << "graph " << g;
      const Span<const LabelId> labels = flat.edge_labels(b);
      ASSERT_EQ(labels.size(), owned[b].edge_labels.size()) << "graph " << g;
      for (size_t k = 0; k < labels.size(); ++k) {
        EXPECT_EQ(labels[k], owned[b].edge_labels[k]);
      }
    }
  }

  // Lambda2 tabulates identically.
  for (int64_t phi = 0; phi < 32; ++phi) {
    EXPECT_EQ(view->gbd_prior().Probability(phi),
              index_->gbd_prior().Probability(phi))
        << "phi " << phi;
  }
}

TEST_F(StorageTest, ArenaHeaderInspection) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kArenaVersion);
  EXPECT_EQ(info->file_bytes, data.size());
  EXPECT_EQ(info->num_graphs, index_->num_graphs());
  // The canonical sections lead in id order; the candidate-column group
  // (graph_sizes / fp_offsets / fp_keys) always follows from this writer,
  // with the exactness directory after it when the corpus certifies.
  ASSERT_GE(info->sections.size(), kArenaSectionCount + 3);
  uint64_t previous_end = 0;
  uint32_t previous_id = 0;
  for (size_t s = 0; s < info->sections.size(); ++s) {
    const ArenaSectionInfo& sec = info->sections[s];
    if (s < kArenaSectionCount) {
      EXPECT_EQ(sec.id, s + 1);
    } else {
      EXPECT_GT(sec.id, previous_id);  // trailing ids strictly increase
    }
    previous_id = sec.id;
    EXPECT_EQ(sec.offset % kArenaSectionAlign, 0u);
    EXPECT_GE(sec.offset, previous_end);
    previous_end = sec.offset + sec.length;
  }
  EXPECT_LE(previous_end, data.size());
  EXPECT_NE(info->FindSection(kSecGraphSizes), nullptr);
  EXPECT_NE(info->FindSection(kSecFpOffsets), nullptr);
  EXPECT_NE(info->FindSection(kSecFpKeys), nullptr);
}

TEST_F(StorageTest, ArenaFromViewIsStable) {
  // Writing an arena FROM a mapped view reproduces the section table and
  // every branch and candidate-column section byte-for-byte (ids 1..4 and
  // 8..14, compared through their CRCs). The prior blobs (5, 6) are exempt:
  // the GED prior may reorder its cached rows.
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  const std::string second_path = ::testing::TempDir() + "/storage_rewrite.v3";
  ASSERT_TRUE(WriteArenaFile(*view, second_path).ok());
  const std::string a = ReadFile(*arena_path_);
  const std::string b = ReadFile(second_path);
  Result<ArenaInfo> info_a = ParseArenaHeader(a, "a");
  Result<ArenaInfo> info_b = ParseArenaHeader(b, "b");
  ASSERT_TRUE(info_a.ok());
  ASSERT_TRUE(info_b.ok());
  ASSERT_EQ(info_a->sections.size(), info_b->sections.size());
  ASSERT_NE(info_a->FindSection(kSecFpRep), nullptr)
      << "fixture corpus must certify fingerprint exactness";
  for (size_t s = 0; s < info_a->sections.size(); ++s) {
    const ArenaSectionInfo& sec_a = info_a->sections[s];
    const ArenaSectionInfo& sec_b = info_b->sections[s];
    ASSERT_EQ(sec_a.id, sec_b.id);
    if (sec_a.id == kSecGbdPrior || sec_a.id == kSecGedPrior) continue;
    EXPECT_EQ(sec_a.crc32, sec_b.crc32) << ArenaSectionName(sec_a.id);
    EXPECT_EQ(sec_a.length, sec_b.length) << ArenaSectionName(sec_a.id);
  }
}

TEST_F(StorageTest, WriterRejectsTombstonedAndStaleIndexes) {
  GbdaIndex copy = *index_;
  copy.AddGraph(dataset_->db.graph(0));
  // Stale Lambda2 (one add since the fit).
  EXPECT_EQ(WriteArenaFile(copy, "/tmp/unused.v3").code(),
            StatusCode::kFailedPrecondition);
  // Tombstoned.
  ASSERT_TRUE(copy.RefitGbdPrior().ok());
  ASSERT_TRUE(copy.RemoveGraphs({0}).ok());
  EXPECT_EQ(WriteArenaFile(copy, "/tmp/unused.v3").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Corruption and hostile artifacts
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ChecksumVerificationCatchesBitFlipsInEverySection) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/storage_flip.v3";
  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  for (const ArenaSectionInfo& sec : info->sections) {
    if (sec.length == 0) continue;
    std::string corrupt = data;
    const size_t target = static_cast<size_t>(sec.offset + sec.length / 2);
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0x04);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path, verify);
    ASSERT_FALSE(opened.ok()) << ArenaSectionName(sec.id);
    // Either the structural validation rejects it (offset tables) or the
    // checksum pass reports DataLoss naming the section.
    if (opened.status().code() == StatusCode::kDataLoss) {
      EXPECT_NE(opened.status().message().find(ArenaSectionName(sec.id)),
                std::string::npos)
          << opened.status().message();
    }
  }
}

TEST_F(StorageTest, HeaderTamperingIsCaughtWithoutChecksumOption) {
  const std::string data = ReadFile(*arena_path_);
  const std::string path = ::testing::TempDir() + "/storage_tamper.v3";

  // Flip one byte inside the meta block (num_graphs field): the always-on
  // header CRC catches it even with verify_checksums off.
  {
    std::string corrupt = data;
    corrupt[kArenaPreambleBytes + 12 * 8] ^= 0x01;
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss);
  }
  // Wrong magic.
  {
    std::string corrupt = data;
    corrupt[0] = 'X';
    WriteFile(path, corrupt);
    EXPECT_FALSE(GbdaIndexView::Open(path).ok());
  }
  // Foreign endianness: a big-endian writer would lay the tag down
  // byte-reversed (01 02 03 04 instead of this host's 04 03 02 01).
  {
    std::string corrupt = data;
    corrupt[8] = 0x01;
    corrupt[9] = 0x02;
    corrupt[10] = 0x03;
    corrupt[11] = 0x04;
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
        << opened.status().message();
  }
  // Truncation: every prefix must fail (the header states file_bytes).
  for (size_t len : {size_t{0}, size_t{16}, ArenaHeaderBytes(kArenaSectionCount),
                     data.size() / 2, data.size() - 1}) {
    WriteFile(path, data.substr(0, len));
    EXPECT_FALSE(GbdaIndexView::Open(path).ok()) << "prefix " << len;
  }
  // Trailing growth: size disagreement is rejected too.
  {
    WriteFile(path, data + "junk");
    EXPECT_FALSE(GbdaIndexView::Open(path).ok());
  }
}

TEST_F(StorageTest, ImplausibleTauMaxInHeaderIsRejected) {
  // A resealed header claiming tau_max beyond the plausibility bound is
  // refused by the same check GbdaIndex::Build runs on its options.
  const std::string path = ::testing::TempDir() + "/storage_tau.v3";
  for (int64_t hostile : {int64_t{1500}, int64_t{-1}, int64_t{1} << 40}) {
    WriteFile(path, PatchMetaScalar(ReadFile(*arena_path_), 0, hostile));
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok()) << "tau_max " << hostile;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("implausible tau_max"),
              std::string::npos)
        << opened.status().message();
  }
}

TEST_F(StorageTest, GedPriorHeaderDisagreeingWithArenaHeaderIsRejected) {
  // Both headers pass their own plausibility checks, but the arena admits a
  // tau_max the embedded Lambda3 table was not built for: served, it would
  // score silently wrong, so the open refuses it.
  const std::string path = ::testing::TempDir() + "/storage_gedhdr.v3";
  ASSERT_GT(index_->tau_max(), 1);
  WriteFile(path, PatchMetaScalar(ReadFile(*arena_path_), 0,
                                  index_->tau_max() - 1));
  Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("GED prior header disagrees"),
            std::string::npos)
      << opened.status().message();
}

TEST_F(StorageTest, NonMonotonicOffsetTablesAreRejectedAtOpen) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  ASSERT_GE(info->num_graphs, 2u);
  const std::string path = ::testing::TempDir() + "/storage_offsets.v3";

  // branch_start[1] := huge — would index out of the roots array if served.
  {
    std::string corrupt = data;
    const uint64_t hostile = ~uint64_t{0} / 2;
    std::memcpy(&corrupt[static_cast<size_t>(info->sections[0].offset) + 8],
                &hostile, sizeof(hostile));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("branch_start"),
              std::string::npos)
        << opened.status().message();
  }
  // label_start last entry := 0 — no longer ends at total_labels.
  if (info->total_labels > 0) {
    std::string corrupt = data;
    const uint64_t zero = 0;
    std::memcpy(&corrupt[static_cast<size_t>(info->sections[2].offset +
                                             info->total_branches * 8)],
                &zero, sizeof(zero));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("label_start"), std::string::npos)
        << opened.status().message();
  }
}

// ---------------------------------------------------------------------------
// Serving equivalence smoke (the exhaustive sweep lives in
// index_view_equivalence_test.cc)
// ---------------------------------------------------------------------------

TEST_F(StorageTest, ViewServesQueriesLikeTheOwnedIndex) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok());
  Result<std::unique_ptr<GbdaSearch>> search =
      GbdaSearch::Create(&dataset_->db, &*view);
  ASSERT_TRUE(search.ok()) << search.status().ToString();
  GbdaSearch owned(&dataset_->db, index_);
  SearchOptions options;
  options.tau_hat = 5;
  options.gamma = 0.5;
  Result<SearchResult> a = owned.Query(dataset_->queries[0], options);
  Result<SearchResult> b = (*search)->Query(dataset_->queries[0], options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->matches.size(), b->matches.size());
  for (size_t i = 0; i < a->matches.size(); ++i) {
    EXPECT_EQ(a->matches[i].graph_id, b->matches[i].graph_id);
    EXPECT_EQ(a->matches[i].phi_score, b->matches[i].phi_score);
    EXPECT_EQ(a->matches[i].gbd, b->matches[i].gbd);
  }
}

}  // namespace
}  // namespace gbda
