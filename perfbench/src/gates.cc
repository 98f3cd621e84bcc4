#include "gates.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using gbda::SearchMatch;
using gbda::Status;

namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

Status SameMatches(const std::vector<SearchMatch>& want,
                   const std::vector<SearchMatch>& got, const std::string& what) {
  if (want.size() != got.size()) {
    return Status::Internal(what + ": " + std::to_string(got.size()) +
                            " matches, expected " + std::to_string(want.size()));
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].graph_id != want[i].graph_id || !SameBits(got[i].phi_score, want[i].phi_score) ||
        got[i].gbd != want[i].gbd) {
      return Status::Internal(what + ": match " + std::to_string(i) +
                              " differs (graph " + std::to_string(got[i].graph_id) +
                              ", expected " + std::to_string(want[i].graph_id) + ")");
    }
  }
  return Status::OK();
}

Status SameResult(const gbda::SearchResult& want, const gbda::SearchResult& got,
                  const std::string& what) {
  Status s = SameMatches(want.matches, got.matches, what);
  if (!s.ok()) return s;
  if (want.candidates_evaluated != got.candidates_evaluated ||
      want.prefiltered_out != got.prefiltered_out) {
    return Status::Internal(what + ": scan counters differ");
  }
  return Status::OK();
}

Status GateApprox(const std::vector<std::vector<SearchMatch>>& approx,
                  const std::vector<std::vector<SearchMatch>>& full_rankings,
                  size_t k, double floor, double* recall) {
  if (approx.size() != full_rankings.size() || approx.empty()) {
    return Status::Internal("approx gate: result/oracle count mismatch");
  }
  double recall_sum = 0.0;
  for (size_t q = 0; q < approx.size(); ++q) {
    const std::vector<SearchMatch>& full = full_rankings[q];
    std::unordered_map<size_t, const SearchMatch*> by_id;
    for (const SearchMatch& m : full) by_id.emplace(m.graph_id, &m);
    for (const SearchMatch& m : approx[q]) {
      auto it = by_id.find(m.graph_id);
      if (it == by_id.end() || !SameBits(it->second->phi_score, m.phi_score) ||
          it->second->gbd != m.gbd) {
        return Status::Internal("query " + std::to_string(q) + " graph " +
                                std::to_string(m.graph_id) +
                                ": score differs from the exhaustive oracle");
      }
    }
    const size_t truth = std::min(k, full.size());
    if (truth == 0) {
      recall_sum += 1.0;
      continue;
    }
    std::unordered_set<size_t> got;
    for (const SearchMatch& m : approx[q]) got.insert(m.graph_id);
    size_t hits = 0;
    for (size_t t = 0; t < truth; ++t) hits += got.count(full[t].graph_id);
    recall_sum += static_cast<double>(hits) / static_cast<double>(truth);
  }
  *recall = recall_sum / static_cast<double>(approx.size());
  if (*recall < floor) {
    return Status::Internal("recall@" + std::to_string(k) + " = " +
                            std::to_string(*recall) + " is below the floor " +
                            std::to_string(floor));
  }
  return Status::OK();
}

double AnswerF1(const std::vector<std::vector<SearchMatch>>& answers,
                const std::vector<std::vector<size_t>>& truth) {
  size_t tp = 0, returned = 0, relevant = 0;
  for (size_t q = 0; q < answers.size() && q < truth.size(); ++q) {
    std::unordered_set<size_t> want(truth[q].begin(), truth[q].end());
    for (const SearchMatch& m : answers[q]) tp += want.count(m.graph_id);
    returned += answers[q].size();
    relevant += truth[q].size();
  }
  if (returned == 0 || relevant == 0 || tp == 0) return 0.0;
  const double p = static_cast<double>(tp) / static_cast<double>(returned);
  const double r = static_cast<double>(tp) / static_cast<double>(relevant);
  return 2.0 * p * r / (p + r);
}

}  // namespace perfbench
