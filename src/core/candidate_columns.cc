#include "core/candidate_columns.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/prefilter.h"

namespace gbda {

OwnedCandidateColumns BuildCandidateColumns(const IndexReader& index) {
  OwnedCandidateColumns cols;
  const size_t num_graphs = index.num_graphs();
  cols.sizes.resize(num_graphs);
  cols.fp_offsets.assign(num_graphs + 1, 0);
  uint64_t total_branches = 0;
  for (size_t g = 0; g < num_graphs; ++g) {
    const size_t size = index.branch_set(g).size();
    cols.sizes[g] = static_cast<uint32_t>(size);
    total_branches += size;
    cols.fp_offsets[g + 1] = total_branches;
  }
  cols.fp_keys.reserve(static_cast<size_t>(total_branches));

  // One hash pass gives every distinct fingerprint a slot (first-seen
  // order) holding its key, its occurrence count and the first branch
  // observed with it (packed graph_id << 32 | branch_index), and records
  // each branch's slot for the postings scatter below. The directory
  // certifies exactness only when every later branch with a seen
  // fingerprint has the SAME content as the first — i.e. fingerprint ->
  // content is injective corpus-wide. The table is not reserved for
  // total_branches: corpora repeat branches heavily (AASD 1.0: 34 K
  // distinct keys over 2.2 M branches), and a table sized for every branch
  // turns each probe into a cache miss.
  std::unordered_map<uint64_t, uint32_t> slot_of;
  std::vector<uint64_t> slot_key;
  std::vector<uint64_t> slot_rep;
  std::vector<uint64_t> slot_count;
  std::vector<uint32_t> branch_slot;
  branch_slot.reserve(static_cast<size_t>(total_branches));
  bool certified = num_graphs <= 0xFFFFFFFFull;
  std::vector<uint64_t> scratch;
  for (size_t g = 0; g < num_graphs; ++g) {
    const BranchSetRef set = index.branch_set(g);
    scratch.clear();
    scratch.reserve(set.size());
    for (size_t b = 0; b < set.size(); ++b) {
      const Span<const LabelId> labels = set.edge_labels(b);
      const uint64_t fp =
          BranchFingerprint(set.root(b), labels.data(), labels.size());
      scratch.push_back(fp);
      // try_emplace allocates a node only for a new key, not per branch.
      const auto inserted =
          slot_of.try_emplace(fp, static_cast<uint32_t>(slot_key.size()));
      const uint32_t slot = inserted.first->second;
      branch_slot.push_back(slot);
      if (inserted.second) {
        slot_key.push_back(fp);
        slot_rep.push_back((static_cast<uint64_t>(g) << 32) |
                           static_cast<uint64_t>(b & 0xFFFFFFFFull));
        slot_count.push_back(1);
        continue;
      }
      ++slot_count[slot];
      if (certified) {
        const uint64_t rep = slot_rep[slot];
        const BranchSetRef rep_set =
            index.branch_set(static_cast<size_t>(rep >> 32));
        if (!SameBranchContent(set, b, rep_set,
                               static_cast<size_t>(rep & 0xFFFFFFFFull))) {
          certified = false;
        }
      }
    }
    // The column stores each graph's keys ascending — the layout every
    // fingerprint merge (listed-id counts and the proximity graph) consumes
    // directly.
    std::sort(scratch.begin(), scratch.end());
    cols.fp_keys.insert(cols.fp_keys.end(), scratch.begin(), scratch.end());
  }
  slot_of = {};

  // Rank the slots by key: fp_unique (and so the postings and the
  // directory) is a deterministic function of the branch data, whatever
  // order the slots were first seen in.
  const size_t num_distinct = slot_key.size();
  std::vector<uint32_t> by_key(num_distinct);
  std::iota(by_key.begin(), by_key.end(), 0u);
  std::sort(by_key.begin(), by_key.end(), [&](uint32_t a, uint32_t b) {
    return slot_key[a] < slot_key[b];
  });
  std::vector<uint32_t> rank(num_distinct);
  cols.fp_unique.resize(num_distinct);
  cols.posting_offsets.assign(num_distinct + 1, 0);
  for (size_t r = 0; r < num_distinct; ++r) {
    const uint32_t slot = by_key[r];
    rank[slot] = static_cast<uint32_t>(r);
    cols.fp_unique[r] = slot_key[slot];
    cols.posting_offsets[r + 1] = cols.posting_offsets[r] + slot_count[slot];
  }
  cols.certified = certified;
  if (certified) {
    cols.fp_rep.resize(num_distinct);
    for (size_t r = 0; r < num_distinct; ++r) {
      cols.fp_rep[r] = slot_rep[by_key[r]];
    }
  }

  // Counting-sort scatter: graphs are visited in id order, so every
  // posting list comes out ascending with no sort of its own.
  std::vector<uint64_t> cursor(cols.posting_offsets.begin(),
                               cols.posting_offsets.end() - 1);
  cols.posting_ids.resize(static_cast<size_t>(total_branches));
  for (size_t g = 0; g < num_graphs; ++g) {
    for (uint64_t b = cols.fp_offsets[g]; b < cols.fp_offsets[g + 1]; ++b) {
      cols.posting_ids[cursor[rank[branch_slot[b]]]++] =
          static_cast<uint32_t>(g);
    }
  }
  return cols;
}

void CountCommonBranches(const CandidateColumns& columns,
                         const uint64_t* query_keys, size_t num_query_keys,
                         size_t begin, size_t end, uint32_t* counts) {
  std::fill(counts, counts + (end - begin), 0u);
  const uint64_t* const keys_end = columns.fp_unique + columns.num_distinct;
  // Query keys ascend, so each key's search starts where the last ended.
  const uint64_t* key_it = columns.fp_unique;
  for (size_t i = 0; i < num_query_keys;) {
    const uint64_t key = query_keys[i];
    uint32_t multiplicity = 1;
    while (++i < num_query_keys && query_keys[i] == key) ++multiplicity;
    key_it = std::lower_bound(key_it, keys_end, key);
    if (key_it == keys_end) break;
    if (*key_it != key) continue;
    const size_t k = static_cast<size_t>(key_it - columns.fp_unique);
    const uint32_t* const list_end =
        columns.posting_ids + columns.posting_offsets[k + 1];
    const uint32_t* p =
        std::lower_bound(columns.posting_ids + columns.posting_offsets[k],
                         list_end, begin,
                         [](uint32_t id, size_t b) { return id < b; });
    while (p != list_end && *p < end) {
      const uint32_t g = *p;
      uint32_t run = 1;
      while (++p != list_end && *p == g) ++run;
      counts[g - begin] += std::min(run, multiplicity);
    }
  }
}

}  // namespace gbda
