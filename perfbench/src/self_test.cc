// perfbench --self-test: the benchmark's own checks.
//   1. Input generators are deterministic in the seed: one seed yields
//      identical query streams and query orders, another seed different ones.
//   2. Every gate accepts a genuine result and rejects deliberately
//      corrupted copies of it (a flipped phi bit, a reordered, dropped or
//      foreign match, a changed counter, recall below the floor).

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "core/gbda_index.h"
#include "core/gbda_search.h"
#include "gates.h"
#include "probes.h"
#include "service/gbda_service.h"
#include "streams.h"

namespace perfbench {

using gbda::SearchMatch;
using gbda::SearchResult;

namespace {

struct Checker {
  int passed = 0;
  int failed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
    } else {
      ++failed;
      std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
    }
  }
};

double FlipLowBit(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof bits);
  return v;
}

void CheckDeterminism(Checker* c) {
  auto approx = [](uint64_t seed) {
    gbda::Result<gbda::GeneratedDataset> data = MakeDataset("aasd", 0.05);
    std::vector<const gbda::Graph*> bases;
    for (size_t i = 0; i < data->db.size(); ++i) bases.push_back(&data->db.graph(i));
    return Digest(*PerturbedQueries(bases, 64, data->profile, seed));
  };
  c->Expect(approx(3) == approx(3), "approx-topk queries repeat for one seed");
  c->Expect(approx(3) != approx(4), "approx-topk queries differ across seeds");
  c->Expect(SeededOrder(100, 500, 9) == SeededOrder(100, 500, 9),
            "batch-large query order repeats for one seed");
  c->Expect(SeededOrder(100, 500, 9) != SeededOrder(100, 500, 10),
            "batch-large query order differs across seeds");
}

void CheckResultGate(Checker* c) {
  // A genuine pair: the serving layer against the serial oracle.
  gbda::Result<gbda::GeneratedDataset> data = MakeDataset("aids", 0.05);
  gbda::Result<gbda::GbdaIndex> index =
      gbda::GbdaIndex::Build(data->db, IndexOptionsFor(data->profile));
  gbda::GbdaSearch oracle(&data->db, &*index);
  gbda::ServiceOptions options;
  options.num_threads = 2;
  gbda::GbdaService service(&data->db, &*index, options);
  gbda::SearchOptions so;
  so.tau_hat = 5;
  const SearchResult want = *oracle.QueryTopK(data->queries[0], 10, so);
  const SearchResult got = *service.QueryTopK(data->queries[0], 10, so);
  c->Expect(want.matches.size() >= 2, "gate fixture has at least two matches");
  if (want.matches.size() < 2) return;
  c->Expect(SameResult(want, got, "genuine").ok(),
            "result gate accepts the service's answer");

  auto rejects = [&](const std::function<void(SearchResult*)>& corrupt,
                     const std::string& what) {
    SearchResult bad = got;
    corrupt(&bad);
    c->Expect(!SameResult(want, bad, what).ok(), "result gate rejects " + what);
  };
  rejects([](SearchResult* r) { r->matches[0].phi_score = FlipLowBit(r->matches[0].phi_score); },
          "a flipped phi bit");
  rejects([](SearchResult* r) { std::swap(r->matches[0], r->matches[1]); },
          "reordered matches");
  rejects([](SearchResult* r) { r->matches.pop_back(); }, "a dropped match");
  rejects([](SearchResult* r) { r->matches[1].graph_id += 1; }, "a foreign match");
  rejects([](SearchResult* r) { r->matches[0].gbd += 1; }, "a changed gbd");
  rejects([](SearchResult* r) { r->candidates_evaluated += 1; }, "a changed counter");
}

void CheckApproxGate(Checker* c) {
  std::vector<SearchMatch> full;
  for (size_t i = 0; i < 30; ++i) {
    SearchMatch m;
    m.graph_id = 100 + i;
    m.phi_score = 1.0 - 0.01 * static_cast<double>(i);
    m.gbd = static_cast<int64_t>(i);
    full.push_back(m);
  }
  const std::vector<SearchMatch> top(full.begin(), full.begin() + 10);
  double recall = 0.0;
  c->Expect(GateApprox({top}, {full}, 10, 0.95, &recall).ok() && recall == 1.0,
            "approx gate accepts the exact top-k");
  std::vector<SearchMatch> bad = top;
  bad[3].phi_score = FlipLowBit(bad[3].phi_score);
  c->Expect(!GateApprox({bad}, {full}, 10, 0.95, &recall).ok(),
            "approx gate rejects a fabricated score");
  bad = top;
  bad[4].gbd += 1;
  c->Expect(!GateApprox({bad}, {full}, 10, 0.95, &recall).ok(),
            "approx gate rejects a changed gbd");
  bad.assign(full.begin() + 5, full.begin() + 15);  // half of the true top-10
  c->Expect(!GateApprox({bad}, {full}, 10, 0.95, &recall).ok() && recall == 0.5,
            "approx gate rejects recall below the floor");
}

}  // namespace

int SelfTest() {
  Checker c;
  CheckDeterminism(&c);
  CheckResultGate(&c);
  CheckApproxGate(&c);
  std::printf("self-test: %d checks passed, %d failed\n", c.passed, c.failed);
  return c.failed == 0 ? 0 : 1;
}

}  // namespace perfbench
