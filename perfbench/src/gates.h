// Correctness gates. Each returns a non-OK status naming the first
// divergence; a run whose gate fails exits non-zero and reports no metrics.
// The gates are pure functions of results and oracles so the self-test can
// feed them deliberately corrupted results.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/gbda_search.h"

namespace perfbench {

/// `got` equals `want` bit for bit: the same matches in the same order,
/// identical phi doubles and GBDs.
gbda::Status SameMatches(const std::vector<gbda::SearchMatch>& want,
                         const std::vector<gbda::SearchMatch>& got,
                         const std::string& what);

/// SameMatches plus the deterministic scan counters (candidates evaluated,
/// prefiltered out). pruned_by_bound depends on thread timing and is not
/// compared.
gbda::Status SameResult(const gbda::SearchResult& want,
                        const gbda::SearchResult& got,
                        const std::string& what);

/// Approximate top-k gate: every returned (phi, gbd) equals the score the
/// exhaustive full ranking gives that graph, and mean recall@k against the
/// ranking's first k entries reaches `floor`. `recall` receives the mean.
gbda::Status GateApprox(
    const std::vector<std::vector<gbda::SearchMatch>>& approx,
    const std::vector<std::vector<gbda::SearchMatch>>& full_rankings,
    size_t k, double floor, double* recall);

/// Micro-averaged F1 of threshold answers against certified true matches.
double AnswerF1(const std::vector<std::vector<gbda::SearchMatch>>& answers,
                const std::vector<std::vector<size_t>>& truth);

}  // namespace perfbench
