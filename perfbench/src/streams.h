// Input generators. Everything a workload sends — query stream, query
// order — is a pure function of the run's seed over a fixed corpus, so two
// runs with one seed send identical inputs (checked by the self-test).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/dataset_profiles.h"
#include "graph/graph.h"

namespace perfbench {

/// The profile ("aids" or "aasd") at `scale`, generated with the profile's
/// own seed: the corpus is a workload's fixed dataset, like a dataset file,
/// and the run's seed draws the traffic over it.
gbda::Result<gbda::GeneratedDataset> MakeDataset(const std::string& profile,
                                                 double scale);

/// `n` queries, each a RandomEditSequence of 1-5 edits applied to a
/// uniformly drawn graph of `bases`.
gbda::Result<std::vector<gbda::Graph>> PerturbedQueries(
    const std::vector<const gbda::Graph*>& bases, size_t n,
    const gbda::DatasetProfile& profile, uint64_t seed);

/// The batch-large query order: indices into the certified query set,
/// `n` of them, in a seeded order that visits every query before repeating.
std::vector<size_t> SeededOrder(size_t num_queries, size_t n, uint64_t seed);

/// Order-sensitive digest of graphs (self-test).
uint64_t Digest(const std::vector<gbda::Graph>& graphs);

}  // namespace perfbench
