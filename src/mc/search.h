/**
 * @file
 * The explorer's search tuning.  Private to src/mc and its tests.
 *
 * explore() and exploreHier() always search with the defaults below:
 * every hardware thread, kSearchBatch nodes per batch.  The tuned
 * entry points exist so tests can pin that the result is the same, byte
 * for byte, at any worker count and batch size.
 */

#ifndef FBSIM_MC_SEARCH_H_
#define FBSIM_MC_SEARCH_H_

#include "mc/hier_model.h"

namespace fbsim {
namespace mc {

/** Discovered nodes expanded per batch. */
inline constexpr std::size_t kSearchBatch = 512;

struct SearchTuning
{
    /** Threads expanding a batch, the caller included; 0 means
     *  ThreadPool::hardwareJobs(). */
    unsigned workers = 0;
    /** Discovered nodes per batch (>= 1). */
    std::size_t batch = kSearchBatch;
};

ExploreResult exploreTuned(const ExploreConfig &cfg,
                           const SearchTuning &tuning);

HierExploreResult exploreHierTuned(const HierExploreConfig &cfg,
                                   const SearchTuning &tuning);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_SEARCH_H_
