// The v3 arena's candidate-column sections (storage/index_arena.h ids
// 8..14): writer emission, open-time cross-section validation
// (ValidateArenaColumns), per-section corruption detection, the mandatory
// column group, and agreement between mapped columns and the on-the-fly
// BuildCandidateColumns of the same branch data. Re-persisting a mapped
// view is covered by storage_test's ArenaFromViewIsStable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "core/candidate_columns.h"
#include "core/gbda_index.h"
#include "datagen/dataset_profiles.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

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

void PatchU32(std::string* data, size_t offset, uint32_t value) {
  std::memcpy(&(*data)[offset], &value, sizeof(value));
}

void PatchU64(std::string* data, size_t offset, uint64_t value) {
  std::memcpy(&(*data)[offset], &value, sizeof(value));
}

uint64_t ReadU64(const std::string& data, size_t offset) {
  uint64_t value = 0;
  std::memcpy(&value, data.data() + offset, sizeof(value));
  return value;
}

class ArenaColumnsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = GrecProfile(0.04);
    profile.seed = 77;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    GbdaIndexOptions options;
    options.tau_max = 8;
    options.gbd_prior.num_sample_pairs = 500;
    Result<GbdaIndex> index = GbdaIndex::Build(dataset_->db, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    arena_path_ = new std::string(::testing::TempDir() + "/arena_columns.v3");
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

GeneratedDataset* ArenaColumnsTest::dataset_ = nullptr;
GbdaIndex* ArenaColumnsTest::index_ = nullptr;
std::string* ArenaColumnsTest::arena_path_ = nullptr;

// ---------------------------------------------------------------------------
// Emission and agreement with the on-the-fly build
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, WriterEmitsTheColumnGroup) {
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  const ArenaSectionInfo* sizes = info->FindSection(kSecGraphSizes);
  const ArenaSectionInfo* offsets = info->FindSection(kSecFpOffsets);
  const ArenaSectionInfo* keys = info->FindSection(kSecFpKeys);
  ASSERT_NE(sizes, nullptr);
  ASSERT_NE(offsets, nullptr);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(sizes->length, info->num_graphs * sizeof(uint32_t));
  EXPECT_EQ(offsets->length, (info->num_graphs + 1) * sizeof(uint64_t));
  EXPECT_EQ(keys->length, info->total_branches * sizeof(uint64_t));
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys,
                            kSecFpUnique, kSecFpRep, kSecPostingOffsets,
                            kSecPostingIds}) {
    if (const ArenaSectionInfo* sec = info->FindSection(id)) {
      EXPECT_EQ(sec->offset % kArenaSectionAlign, 0u) << ArenaSectionName(id);
    }
  }
  // The key list and its postings are unconditional; this fixture also
  // certifies, so the directory sits beside the key list.
  const ArenaSectionInfo* uniq = info->FindSection(kSecFpUnique);
  const ArenaSectionInfo* posting_offsets =
      info->FindSection(kSecPostingOffsets);
  const ArenaSectionInfo* posting_ids = info->FindSection(kSecPostingIds);
  ASSERT_NE(uniq, nullptr);
  ASSERT_NE(posting_offsets, nullptr);
  ASSERT_NE(posting_ids, nullptr);
  EXPECT_EQ(posting_offsets->length, uniq->length + sizeof(uint64_t));
  EXPECT_EQ(posting_ids->length, info->total_branches * sizeof(uint32_t));
  EXPECT_EQ(info->FindSection(kSecFpUnique) == nullptr,
            info->FindSection(kSecFpRep) == nullptr);
}

TEST_F(ArenaColumnsTest, MappedColumnsMatchTheOnTheFlyBuild) {
  Result<GbdaIndexView> view = GbdaIndexView::Open(*arena_path_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const CandidateColumns mapped = view->columns();

  const OwnedCandidateColumns built = BuildCandidateColumns(*index_);
  const size_t n = index_->num_graphs();
  ASSERT_EQ(built.sizes.size(), n);
  for (size_t g = 0; g < n; ++g) {
    EXPECT_EQ(mapped.sizes[g], built.sizes[g]) << "graph " << g;
    EXPECT_EQ(mapped.fp_offsets[g], built.fp_offsets[g]) << "graph " << g;
  }
  ASSERT_EQ(mapped.fp_offsets[n], built.fp_offsets[n]);
  for (uint64_t i = 0; i < built.fp_offsets[n]; ++i) {
    ASSERT_EQ(mapped.fp_keys[i], built.fp_keys[i]) << "key " << i;
  }
  EXPECT_EQ(mapped.exactness_certified(), built.certified);
  ASSERT_EQ(mapped.num_distinct, built.fp_unique.size());
  for (size_t i = 0; i < built.fp_unique.size(); ++i) {
    ASSERT_EQ(mapped.fp_unique[i], built.fp_unique[i]) << "entry " << i;
    ASSERT_EQ(mapped.posting_offsets[i + 1], built.posting_offsets[i + 1])
        << "entry " << i;
    if (built.certified) {
      ASSERT_EQ(mapped.fp_rep[i], built.fp_rep[i]) << "entry " << i;
    }
  }
  for (size_t p = 0; p < built.posting_ids.size(); ++p) {
    ASSERT_EQ(mapped.posting_ids[p], built.posting_ids[p]) << "posting " << p;
  }
  // The owned index materialises the same columns lazily.
  const CandidateColumns lazy = index_->columns();
  EXPECT_EQ(lazy.exactness_certified(), built.certified);
  for (size_t g = 0; g <= n; ++g) {
    EXPECT_EQ(lazy.fp_offsets[g], built.fp_offsets[g]);
  }
}

// ---------------------------------------------------------------------------
// Corruption: per-section bit flips and cross-section lies
// ---------------------------------------------------------------------------

TEST_F(ArenaColumnsTest, BitFlipInEachColumnSectionIsCaught) {
  // One regression clause per new section id: a single flipped payload bit
  // must fail a checksum-verified open, naming the section when the
  // checksum pass (rather than structural validation) is what trips.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/arena_columns_flip.v3";
  GbdaIndexView::OpenOptions verify;
  verify.verify_checksums = true;
  for (const uint32_t id : {kSecGraphSizes, kSecFpOffsets, kSecFpKeys,
                            kSecFpUnique, kSecFpRep, kSecPostingOffsets,
                            kSecPostingIds}) {
    const ArenaSectionInfo* sec = info->FindSection(id);
    if (sec == nullptr || sec->length == 0) continue;
    std::string corrupt = data;
    const size_t target = static_cast<size_t>(sec->offset + sec->length / 2);
    corrupt[target] = static_cast<char>(corrupt[target] ^ 0x10);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path, verify);
    ASSERT_FALSE(opened.ok()) << ArenaSectionName(id);
    if (opened.status().code() == StatusCode::kDataLoss) {
      EXPECT_NE(opened.status().message().find(ArenaSectionName(id)),
                std::string::npos)
          << opened.status().message();
    }
  }
}

TEST_F(ArenaColumnsTest, CrossSectionLiesAreRejectedAtEveryOpen) {
  // These payloads keep plausible structure, so only the cross-section
  // validation (ValidateArenaColumns) can catch them — and it must do so
  // on a DEFAULT open, not just under verify_checksums: the fp_rep
  // entries are dereferenced on the serving path.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  const std::string path = ::testing::TempDir() + "/arena_columns_lie.v3";

  const ArenaSectionInfo* sizes = info->FindSection(kSecGraphSizes);
  ASSERT_NE(sizes, nullptr);
  {
    // graph_sizes[0] += 1: no longer the branch_start delta.
    std::string corrupt = data;
    uint32_t size;
    std::memcpy(&size, corrupt.data() + sizes->offset, sizeof(size));
    PatchU32(&corrupt, static_cast<size_t>(sizes->offset), size + 1);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("graph_sizes"),
              std::string::npos)
        << opened.status().message();
  }
  {
    // fp_offsets[1] += 8: drifts off branch_start.
    const ArenaSectionInfo* offsets = info->FindSection(kSecFpOffsets);
    ASSERT_NE(offsets, nullptr);
    std::string corrupt = data;
    const size_t at = static_cast<size_t>(offsets->offset + sizeof(uint64_t));
    PatchU64(&corrupt, at, ReadU64(corrupt, at) + 8);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("fp_offsets"), std::string::npos)
        << opened.status().message();
  }
  const ArenaSectionInfo* uniq = info->FindSection(kSecFpUnique);
  ASSERT_NE(uniq, nullptr);
  if (uniq->length >= 2 * sizeof(uint64_t)) {
    // fp_unique[1] := fp_unique[0]: breaks strict ascent.
    std::string corrupt = data;
    PatchU64(&corrupt, static_cast<size_t>(uniq->offset + sizeof(uint64_t)),
             ReadU64(corrupt, static_cast<size_t>(uniq->offset)));
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().message().find("fp_unique"), std::string::npos)
        << opened.status().message();
  }
  if (const ArenaSectionInfo* rep = info->FindSection(kSecFpRep)) {
    // fp_rep[0] := far-out-of-range graph id.
    std::string corrupt = data;
    PatchU64(&corrupt, static_cast<size_t>(rep->offset),
             (info->num_graphs + 7) << 32);
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("fp_rep"), std::string::npos)
        << opened.status().message();
  }

  // The postings. Each lie below would steer the count pass off its
  // lists or past its scratch array, so each must fail a default open with
  // a typed InvalidArgument naming the section.
  const ArenaSectionInfo* posting_offsets =
      info->FindSection(kSecPostingOffsets);
  const ArenaSectionInfo* posting_ids = info->FindSection(kSecPostingIds);
  ASSERT_NE(posting_offsets, nullptr);
  ASSERT_NE(posting_ids, nullptr);
  const uint64_t num_distinct = (posting_offsets->length / 8) - 1;
  ASSERT_GE(num_distinct, 2u);
  const auto offset_at = [&](uint64_t k) {
    return static_cast<size_t>(posting_offsets->offset + k * 8);
  };
  const auto id_at = [&](uint64_t p) {
    return static_cast<size_t>(posting_ids->offset + p * 4);
  };
  const auto expect_rejected = [&](const std::string& corrupt,
                                   const std::string& section,
                                   const std::string& what) {
    WriteFile(path, corrupt);
    Result<GbdaIndexView> opened = GbdaIndexView::Open(path);
    ASSERT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(opened.status().message().find(section), std::string::npos)
        << what << ": " << opened.status().message();
  };
  {
    // posting_offsets[1] := posting_offsets[2] + 1: not monotone.
    std::string corrupt = data;
    PatchU64(&corrupt, offset_at(1), ReadU64(corrupt, offset_at(2)) + 1);
    expect_rejected(corrupt, "posting_offsets", "non-monotone offsets");
  }
  {
    // The last offset stops one short of total_branches.
    std::string corrupt = data;
    PatchU64(&corrupt, offset_at(num_distinct), info->total_branches - 1);
    expect_rejected(corrupt, "posting_offsets", "offsets end short");
  }
  {
    // The final posting names graph num_graphs: one past the corpus.
    std::string corrupt = data;
    PatchU32(&corrupt, id_at(info->total_branches - 1),
             static_cast<uint32_t>(info->num_graphs));
    expect_rejected(corrupt, "posting_ids", "out-of-range id");
  }
  {
    // Swap two distinct neighbours inside one list: a descending id.
    std::string corrupt = data;
    bool swapped = false;
    for (uint64_t k = 0; k < num_distinct && !swapped; ++k) {
      const uint64_t lo = ReadU64(corrupt, offset_at(k));
      const uint64_t hi = ReadU64(corrupt, offset_at(k + 1));
      for (uint64_t p = lo; p + 1 < hi && !swapped; ++p) {
        uint32_t a, b;
        std::memcpy(&a, corrupt.data() + id_at(p), sizeof(a));
        std::memcpy(&b, corrupt.data() + id_at(p + 1), sizeof(b));
        if (a == b) continue;
        PatchU32(&corrupt, id_at(p), b);
        PatchU32(&corrupt, id_at(p + 1), a);
        swapped = true;
      }
    }
    ASSERT_TRUE(swapped);
    expect_rejected(corrupt, "posting_ids", "descending id");
  }
}

TEST_F(ArenaColumnsTest, PartialColumnGroupIsRejected) {
  // Relabeling a trailing run of column sections to unknown ids leaves the
  // rest of the group without them: every column section but fp_rep is
  // mandatory, so the open names exactly the missing ones.
  const std::string data = ReadFile(*arena_path_);
  Result<ArenaInfo> info = ParseArenaHeader(data, *arena_path_);
  ASSERT_TRUE(info.ok());
  // Relabels section `first_id` and everything after it (keeping ids
  // ascending so the ordering check stays quiet and the group check is
  // what fires), then re-CRCs the edited header so the group check (not
  // the meta checksum) is what rejects the artifact.
  const auto relabel_from = [&](uint32_t first_id) {
    std::string corrupt = data;
    uint32_t next_id = 42;
    bool relabeling = false;
    for (size_t s = 0; s < info->sections.size(); ++s) {
      if (info->sections[s].id == first_id) relabeling = true;
      if (!relabeling) continue;
      const size_t id_at = kArenaPreambleBytes + kArenaMetaScalarBytes +
                           s * kArenaSectionEntryBytes;
      PatchU32(&corrupt, id_at, next_id++);
    }
    EXPECT_TRUE(relabeling);
    uint32_t section_count = 0;
    std::memcpy(&section_count, corrupt.data() + 12, sizeof(section_count));
    PatchU32(&corrupt, 24,
             Crc32(corrupt.data() + kArenaPreambleBytes,
                   ArenaHeaderBytes(section_count) - kArenaPreambleBytes));
    return corrupt;
  };
  {
    Result<ArenaInfo> parsed =
        ParseArenaHeader(relabel_from(kSecFpKeys), "partial");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("fp_keys"), std::string::npos)
        << parsed.status().message();
    EXPECT_EQ(parsed.status().message().find("graph_sizes"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    // Shaped like an arena written before the postings existed: the open
    // fails naming both posting sections, and nothing else.
    Result<ArenaInfo> parsed =
        ParseArenaHeader(relabel_from(kSecPostingOffsets), "no postings");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = parsed.status().message();
    EXPECT_NE(message.find("posting_offsets"), std::string::npos) << message;
    EXPECT_NE(message.find("posting_ids"), std::string::npos) << message;
    EXPECT_NE(message.find("rebuild"), std::string::npos) << message;
    EXPECT_EQ(message.find("fp_keys"), std::string::npos) << message;
    EXPECT_EQ(message.find("fp_unique"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace gbda
