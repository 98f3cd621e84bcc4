// The workloads. Each sets up its system from a seeded corpus (timed
// several times; setup_s is the median), gates correctness, runs its load
// for the configured seconds, gates again, and fills the report. A traced
// run also records spans and runs the layer probes.

#pragma once

#include <vector>

#include "common/status.h"
#include "report.h"

namespace perfbench {

/// Set-ups timed per run (setup_s is their median): at least three, and
/// more while their total is under six seconds, so a cheap set-up is timed
/// often enough for a steady median.
inline bool MoreSetups(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (total < 6.0 && setup_s.size() < 15);
}

gbda::Status RunBatchLarge(const RunConfig& config, Report* report);
gbda::Status RunApproxTopK(const RunConfig& config, Report* report);

/// Seconds since `t0`.
double SecondsSince(Clock::time_point t0);

/// Relative cost of tracing from alternating traced/untraced blocks of the
/// same closed-loop load: (untraced rate / traced rate - 1) x 100.
double TraceOverheadPct(const std::vector<double>& traced_rates,
                        const std::vector<double>& untraced_rates);

}  // namespace perfbench
