#include "streams.h"

#include "common/rng.h"
#include "graph/graph_edit.h"

namespace perfbench {

using gbda::Graph;
using gbda::Result;
using gbda::Rng;

Result<gbda::GeneratedDataset> MakeDataset(const std::string& profile,
                                           double scale) {
  gbda::DatasetProfile p;
  if (profile == "aids") {
    p = gbda::AidsProfile(scale);
  } else if (profile == "aasd") {
    p = gbda::AasdProfile(scale);
  } else {
    return gbda::Status::InvalidArgument("unknown profile " + profile);
  }
  return gbda::GenerateDataset(p);
}

Result<std::vector<Graph>> PerturbedQueries(
    const std::vector<const Graph*>& bases, size_t n,
    const gbda::DatasetProfile& profile, uint64_t seed) {
  if (bases.empty()) return gbda::Status::InvalidArgument("no base graphs");
  Rng rng(seed);
  std::vector<Graph> out;
  out.reserve(n);
  while (out.size() < n) {
    const Graph& base = *bases[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(bases.size()) - 1))];
    const size_t edits = static_cast<size_t>(rng.UniformInt(1, 5));
    Result<gbda::RandomEditResult> edited = gbda::RandomEditSequence(
        base, edits, profile.num_vertex_labels, profile.num_edge_labels, &rng);
    if (!edited.ok()) return edited.status();
    out.push_back(std::move(edited->edited));
  }
  return out;
}

std::vector<size_t> SeededOrder(size_t num_queries, size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x4F52444552ULL);
  std::vector<size_t> out;
  out.reserve(n);
  std::vector<size_t> round(num_queries);
  while (out.size() < n) {
    for (size_t i = 0; i < num_queries; ++i) round[i] = i;
    rng.Shuffle(&round);
    for (size_t i = 0; i < num_queries && out.size() < n; ++i) out.push_back(round[i]);
  }
  return out;
}

namespace {

void Mix(uint64_t* h, uint64_t v) {
  *h ^= v + 0x9E3779B97F4A7C15ULL + (*h << 6) + (*h >> 2);
}

}  // namespace

uint64_t Digest(const std::vector<Graph>& graphs) {
  uint64_t h = graphs.size();
  for (const Graph& g : graphs) {
    Mix(&h, g.num_vertices());
    for (uint32_t v = 0; v < g.num_vertices(); ++v) Mix(&h, g.VertexLabel(v));
    for (const Graph::EdgeTriple& e : g.SortedEdges()) {
      Mix(&h, e.u);
      Mix(&h, e.v);
      Mix(&h, e.label);
    }
  }
  return h;
}

}  // namespace perfbench
