// The inverted fingerprint postings (CandidateColumns::posting_offsets /
// posting_ids) and the count pass built on them (CountCommonBranches): for
// every candidate of every contiguous range, the postings count must equal
// the per-candidate fingerprint merge intersect_count(query_fps,
// fp_keys(g)) — across shard splits 1, 2 and 7, key multiplicities above 1
// on both sides, an empty query, zero-branch graphs, and a built index
// against its mapped view. Range scans (which read the count pass) and
// listed scans (which merge per candidate) of the same ids must then give
// bit-identical matches for every variant, the weighted one included
// (its stage C keeps the branch merges).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/kernels.h"
#include "core/candidate_columns.h"
#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "core/posterior.h"
#include "datagen/dataset_profiles.h"
#include "service/gbda_service.h"
#include "storage/index_arena.h"
#include "storage/index_view.h"

namespace gbda {
namespace {

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

/// `[begin, end)` ranges splitting [0, n) into `parts` contiguous pieces.
std::vector<std::pair<size_t, size_t>> Split(size_t n, size_t parts) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t p = 0; p < parts; ++p) {
    ranges.emplace_back(n * p / parts, n * (p + 1) / parts);
  }
  return ranges;
}

bool HasDuplicateKey(const uint64_t* keys, size_t n) {
  return std::adjacent_find(keys, keys + n) != keys + n;
}

class PostingCountTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetProfile profile = AidsProfile(0.03);
    profile.seed = 7;
    Result<GeneratedDataset> ds = GenerateDataset(profile);
    ASSERT_TRUE(ds.ok()) << ds.status().ToString();
    dataset_ = new GeneratedDataset(std::move(*ds));

    // Appended corner cases: a zero-branch graph, and rings whose keys
    // repeat 6 and 4 times (the corpus side of the multiplicity check).
    db_ = new GraphDatabase(dataset_->db);
    db_->Add(Graph());
    db_->Add(Ring(6, 0, 0));
    db_->Add(Ring(4, 0, 0));
    db_->Add(Graph());

    // Queries: the profile's, a ring repeating its key 5 times (between
    // the corpus rings' 4 and 6, so min(multiplicities) picks each side),
    // and the empty query.
    queries_ = new std::vector<Graph>(dataset_->queries);
    ring_query_ = queries_->size();
    queries_->push_back(Ring(5, 0, 0));
    queries_->push_back(Graph());

    GbdaIndexOptions options;
    options.tau_max = 8;
    options.gbd_prior.num_sample_pairs = 500;
    Result<GbdaIndex> index = GbdaIndex::Build(*db_, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new GbdaIndex(std::move(*index));

    const std::string path = ::testing::TempDir() + "/posting_count.v3";
    ASSERT_TRUE(WriteArenaFile(*index_, path).ok());
    Result<GbdaIndexView> view = GbdaIndexView::Open(path);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    view_ = new GbdaIndexView(std::move(*view));
  }
  static void TearDownTestSuite() {
    delete view_;
    delete index_;
    delete queries_;
    delete db_;
    delete dataset_;
    view_ = nullptr;
    index_ = nullptr;
    queries_ = nullptr;
    db_ = nullptr;
    dataset_ = nullptr;
  }

  /// The built index and its mapped view, labelled for messages.
  static std::vector<std::pair<std::string, const IndexReader*>> Readers() {
    return {{"built", index_}, {"mapped", view_}};
  }

  static GeneratedDataset* dataset_;
  static GraphDatabase* db_;
  static std::vector<Graph>* queries_;
  static size_t ring_query_;
  static GbdaIndex* index_;
  static GbdaIndexView* view_;
};

GeneratedDataset* PostingCountTest::dataset_ = nullptr;
GraphDatabase* PostingCountTest::db_ = nullptr;
std::vector<Graph>* PostingCountTest::queries_ = nullptr;
size_t PostingCountTest::ring_query_ = 0;
GbdaIndex* PostingCountTest::index_ = nullptr;
GbdaIndexView* PostingCountTest::view_ = nullptr;

TEST_F(PostingCountTest, PostingsInvertTheFingerprintColumn) {
  for (const auto& [name, reader] : Readers()) {
    const CandidateColumns cols = reader->columns();
    const size_t n = reader->num_graphs();
    const uint64_t total = cols.fp_offsets[n];
    ASSERT_EQ(cols.posting_offsets[0], 0u) << name;
    ASSERT_EQ(cols.posting_offsets[cols.num_distinct], total) << name;
    // Every posting list is ascending, and graph g appears across all
    // lists exactly as often as it has branches.
    std::vector<uint32_t> seen(n, 0);
    for (uint64_t k = 0; k < cols.num_distinct; ++k) {
      if (k > 0) {
        ASSERT_LT(cols.fp_unique[k - 1], cols.fp_unique[k]) << name;
      }
      for (uint64_t p = cols.posting_offsets[k];
           p < cols.posting_offsets[k + 1]; ++p) {
        if (p > cols.posting_offsets[k]) {
          ASSERT_LE(cols.posting_ids[p - 1], cols.posting_ids[p]) << name;
        }
        ASSERT_LT(cols.posting_ids[p], n) << name;
        ++seen[cols.posting_ids[p]];
      }
    }
    for (size_t g = 0; g < n; ++g) {
      EXPECT_EQ(seen[g], cols.sizes[g]) << name << " graph " << g;
    }
  }
  // The mapped view serves exactly the arrays the built index computed.
  const CandidateColumns built = index_->columns();
  const CandidateColumns mapped = view_->columns();
  ASSERT_EQ(built.num_distinct, mapped.num_distinct);
  for (uint64_t k = 0; k <= built.num_distinct; ++k) {
    ASSERT_EQ(built.posting_offsets[k], mapped.posting_offsets[k]);
  }
  for (uint64_t p = 0; p < built.posting_offsets[built.num_distinct]; ++p) {
    ASSERT_EQ(built.posting_ids[p], mapped.posting_ids[p]) << "posting " << p;
  }
}

TEST_F(PostingCountTest, CountPassEqualsPerCandidateMerge) {
  const ScanKernels& kernels =
      GetScanKernels(ResolveKernels(KernelDispatch::kAuto));
  SearchOptions options;
  options.tau_hat = 4;
  bool query_multiplicity = false;
  bool corpus_multiplicity = false;
  bool min_rule_both_ways = false;
  for (const auto& [name, reader] : Readers()) {
    const CandidateColumns cols = reader->columns();
    const size_t n = reader->num_graphs();
    for (size_t g = 0; g < n; ++g) {
      corpus_multiplicity |= HasDuplicateKey(
          cols.fp_keys + cols.fp_offsets[g], cols.sizes[g]);
    }
    EXPECT_EQ(cols.sizes[dataset_->db.size()], 0u) << "zero-branch graph";
    for (size_t q = 0; q < queries_->size(); ++q) {
      Result<ScanContext> ctx = PrepareScan((*queries_)[q], options, false,
                                            CorpusRef(db_), *reader);
      ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
      const std::vector<uint64_t>& keys = ctx->query_fps;
      query_multiplicity |= HasDuplicateKey(keys.data(), keys.size());
      std::vector<int64_t> merged(n);
      for (size_t g = 0; g < n; ++g) {
        const uint64_t lo = cols.fp_offsets[g];
        merged[g] = kernels.intersect_count(keys.data(), keys.size(),
                                            cols.fp_keys + lo,
                                            cols.fp_offsets[g + 1] - lo);
      }
      // The query ring repeats its key 5 times against corpus rings of 6
      // and 4: the count is the smaller multiplicity either way.
      if (q == ring_query_) {
        min_rule_both_ways =
            merged[dataset_->db.size() + 1] == 5 &&
            merged[dataset_->db.size() + 2] == 4;
      }
      for (size_t parts : {size_t{1}, size_t{2}, size_t{7}}) {
        for (const auto& [begin, end] : Split(n, parts)) {
          // Stale contents must not leak: the pass overwrites its slots.
          std::vector<uint32_t> counts(end - begin, 0xDEADu);
          CountCommonBranches(cols, keys.data(), keys.size(), begin, end,
                              counts.data());
          for (size_t g = begin; g < end; ++g) {
            ASSERT_EQ(static_cast<int64_t>(counts[g - begin]), merged[g])
                << name << " query " << q << " parts " << parts
                << " graph " << g;
            if (keys.empty()) {
              ASSERT_EQ(counts[g - begin], 0u);
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(query_multiplicity);
  EXPECT_TRUE(corpus_multiplicity);
  EXPECT_TRUE(min_rule_both_ways);
}

TEST_F(PostingCountTest, RangeAndListedScansOfTheSameIdsAgree) {
  for (const auto& [name, reader] : Readers()) {
    PosteriorEngine engine(reader->num_vertex_labels(),
                           reader->num_edge_labels(), reader->tau_max(),
                           reader->mutable_ged_prior(), &reader->gbd_prior());
    const size_t n = reader->num_graphs();
    for (GbdaVariant variant :
         {GbdaVariant::kStandard, GbdaVariant::kAverageSize,
          GbdaVariant::kWeightedGbd}) {
      // gamma 0 scores every candidate; gamma 0.3 arms the cut; k = 5 arms
      // the ranking witness.
      for (int mode = 0; mode < 3; ++mode) {
        SearchOptions options;
        options.tau_hat = 4;
        options.variant = variant;
        options.gamma = mode == 1 ? 0.3 : 0.0;
        const bool ranking = mode == 2;
        for (size_t q = 0; q < queries_->size(); ++q) {
          Result<ScanContext> ctx = PrepareScan(
              (*queries_)[q], options, !ranking, CorpusRef(db_), *reader);
          ASSERT_TRUE(ctx.ok());
          for (size_t parts : {size_t{1}, size_t{7}}) {
            for (const auto& [begin, end] : Split(n, parts)) {
              const std::string label =
                  name + " variant=" +
                  std::to_string(static_cast<int>(variant)) +
                  " mode=" + std::to_string(mode) + " query=" +
                  std::to_string(q) + " range=" + std::to_string(begin) +
                  ".." + std::to_string(end);
              std::vector<uint32_t> ids;
              for (size_t g = begin; g < end; ++g) {
                ids.push_back(static_cast<uint32_t>(g));
              }
              SearchResult by_range, by_list;
              ScanBounds range_bounds(5), list_bounds(5);
              const Status range_status =
                  ScanRange(*ctx, *reader, nullptr, begin, end, &engine,
                            &by_range, ranking ? &range_bounds : nullptr);
              const Status list_status = ScanCandidateList(
                  *ctx, *reader, nullptr, ids, &engine, &by_list,
                  ranking ? &list_bounds : nullptr);
              // The empty query against a zero-branch graph has no
              // extended size (v = 0), which every scan rejects alike.
              ASSERT_EQ(range_status.code(), list_status.code()) << label;
              if (!range_status.ok()) {
                ASSERT_EQ(q, queries_->size() - 1) << label;
                continue;
              }
              ASSERT_EQ(by_range.matches.size(), by_list.matches.size())
                  << label;
              for (size_t i = 0; i < by_range.matches.size(); ++i) {
                EXPECT_EQ(by_range.matches[i].graph_id,
                          by_list.matches[i].graph_id)
                    << label;
                EXPECT_EQ(by_range.matches[i].phi_score,
                          by_list.matches[i].phi_score)
                    << label;
                EXPECT_EQ(by_range.matches[i].gbd, by_list.matches[i].gbd)
                    << label;
              }
              // Same sequence, same blocks, same witnesses: the pruning
              // counters agree too.
              EXPECT_EQ(by_range.candidates_evaluated,
                        by_list.candidates_evaluated)
                  << label;
              EXPECT_EQ(by_range.pruned_by_bound, by_list.pruned_by_bound)
                  << label;
            }
          }
        }
      }
    }
  }
}

TEST_F(PostingCountTest, ConcurrentShardsMatchTheSerialScan) {
  // Every pool worker fills its own count scratch; seven shards over three
  // workers make several (query, shard) passes run at once.
  ServiceOptions service_options;
  service_options.num_threads = 3;
  service_options.num_shards = 7;
  GbdaService service(db_, view_, service_options);
  GbdaSearch serial(db_, view_);
  // All but the empty query, which no scan of a corpus holding zero-branch
  // graphs can score (see above).
  const std::vector<Graph> queries(queries_->begin(), queries_->end() - 1);
  SearchOptions options;
  options.tau_hat = 4;
  options.gamma = 0.3;
  Result<std::vector<SearchResult>> threshold =
      service.QueryBatch(queries, options);
  Result<std::vector<SearchResult>> ranking =
      service.QueryTopKBatch(queries, 5, options);
  ASSERT_TRUE(threshold.ok()) << threshold.status().ToString();
  ASSERT_TRUE(ranking.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    Result<SearchResult> a = serial.Query(queries[q], options);
    Result<SearchResult> b = serial.QueryTopK(queries[q], 5, options);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (const auto& [want, got] :
         {std::make_pair(&*a, &(*threshold)[q]),
          std::make_pair(&*b, &(*ranking)[q])}) {
      ASSERT_EQ(want->matches.size(), got->matches.size()) << "query " << q;
      for (size_t i = 0; i < want->matches.size(); ++i) {
        EXPECT_EQ(want->matches[i].graph_id, got->matches[i].graph_id);
        EXPECT_EQ(want->matches[i].phi_score, got->matches[i].phi_score);
        EXPECT_EQ(want->matches[i].gbd, got->matches[i].gbd);
      }
    }
  }
}

}  // namespace
}  // namespace gbda
