/**
 * @file
 * The model's one transition executor.  Private to src/mc.
 *
 * executor.cc holds the only executor: stepModel() and stepHierModel()
 * run one processor event through it.  It mirrors the engine's
 * structure once, over a tree of modelled buses:
 *
 *   processor half  SnoopingCache::dispatchLocal/executeLocal: pick an
 *                   alternative of the master's kind-filtered local
 *                   cell, run local transitions in place, and issue
 *                   every bus command on the master's own bus;
 *   attempt()       Bus::execute/attempt on ANY bus of the tree: the
 *                   address cycle (caches by id, then bridges in
 *                   cluster order), the BS abort-push-retry loop, the
 *                   data phase with the bus's slave, and the commit
 *                   against the OR of the other modules' CH plus the
 *                   external CH;
 *   bridge          BusBridge::transact as a leaf bus's slave (filter
 *                   decisions, command rewrites, the forward up to the
 *                   root) and BusBridge::snoop on the root (its
 *                   down-forward, a nested attempt on its leaf with no
 *                   slave and the root's CH as chHint, runs to
 *                   completion before the next bridge is snooped).
 *
 * A flat model is the one-bus tree: its caches sit on the root with
 * memory as the slave.  A hierarchy puts each cluster's caches on a
 * leaf bus whose slave is that cluster's bridge; the bridges snoop the
 * root, whose slave is memory.
 *
 * Successor generation runs the executor once per enumerated
 * transition, so the clean path allocates nothing: table cells are read
 * in place and violation text is only formatted on failure.
 *
 * This header holds what the executor shares with the model files.
 */

#ifndef FBSIM_MC_EXECUTOR_H_
#define FBSIM_MC_EXECUTOR_H_

#include <algorithm>
#include <string>

#include "mc/model.h"

namespace fbsim {
namespace mc {

/** May a copy-back cache pick this alternative?  (The model's caches
 *  are all copy-back; SnoopingCache::kindFiltered applies the same.) */
inline bool
copyBackMayPick(const LocalAction &a)
{
    return (a.kinds & kindBit(ClientKind::CopyBack)) != 0;
}

/** The number of alternatives of `cell` a copy-back cache picks from. */
inline std::size_t
copyBackAlternatives(const LocalCell &cell)
{
    return static_cast<std::size_t>(
        std::count_if(cell.begin(), cell.end(), copyBackMayPick));
}

/**
 * The per-line state render behind renderStateVector and
 * renderHierStateVector: each cache is labelled by its global id, or,
 * given `cluster_of`, by its leaf-local id within its cluster.
 */
std::string renderLines(const ModelConfig &cfg, const ModelState &st,
                        const std::uint8_t *cluster_of);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_EXECUTOR_H_
