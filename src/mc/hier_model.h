/**
 * @file
 * Executable abstract model of a two-level fbsim hierarchy, for
 * bounded exhaustive checking of the section 6 multi-bus fabric.
 *
 * The model extends mc/model.h to the HierSystem topology: clusters of
 * MOESI-class caches on leaf buses, coupled to a root bus (hosting the
 * only memory) by bridges with conservative remoteShared/localHeld
 * filters.  It runs the flat model's executor (mc/executor.h) over a
 * two-level bus tree: each cluster's caches on a leaf bus whose slave
 * is the cluster's bridge, and the bridges snooping the root.  The one
 * Bus::attempt mirror serves every leg of the composite engine path -
 * the leaf transaction, BusBridge::transact's forward, the root
 * transaction with MainMemorySlave, BusBridge::snoop's down-forward -
 * with the bridges' filter bits lifted into the model state, so the
 * hierarchy's H1/H2 filter invariants are checked over the full
 * reachable space and a lockstep walk against a live HierSystem can
 * compare filters bit-for-bit.
 *
 * Choice-consultation order matches the engine exactly: the master's
 * local cell, then same-cluster snoopers in id order, then - when the
 * bridge forwards - each remote cluster's snoopers in cluster-index
 * order (the root address cycle runs each bridge's down-forward to
 * completion before snooping the next bridge).
 *
 * Scope: MOESI-class tables only (no BS abort protocols - an abort
 * cannot propagate across a bridge; the model fails the step if a
 * snooper asserts BS under a bridge, exactly where the engine
 * asserts).  Fault-free: faulted engine accesses are differential
 * stutter steps, never model transitions.
 */

#ifndef FBSIM_MC_HIER_MODEL_H_
#define FBSIM_MC_HIER_MODEL_H_

#include "mc/explorer.h"

namespace fbsim {
namespace mc {

/** Enumeration bound on clusters (filter arrays assume it). */
inline constexpr std::size_t kMaxClusters = 4;

/** The model hierarchy: the flat config plus a cluster map. */
struct HierModelConfig
{
    /** Tables, lines and retry cap; tables[i] is cache i's protocol. */
    ModelConfig base;

    /** Cluster of each cache (size == base.numCaches()); clusters must
     *  be contiguous 0..numClusters()-1. */
    std::vector<std::uint8_t> clusterOf;

    std::size_t
    numClusters() const
    {
        std::size_t n = 0;
        for (std::uint8_t c : clusterOf)
            n = std::max<std::size_t>(n, c + 1u);
        return n;
    }

    /** Mirrors HierSystem: with more than two clusters the bridges
     *  resolve down-forwarded CH conditionals conservatively. */
    bool conservativeCh() const { return numClusters() > 2; }
};

/** Flat state plus the bridges' conservative filter bits. */
struct HierModelState
{
    ModelState flat;
    /** Bit per (cluster, line), row-major cluster-outer: may the line
     *  be cached inside / outside that cluster. */
    std::array<std::uint8_t, kMaxClusters * kMaxLines> localHeld{};
    std::array<std::uint8_t, kMaxClusters * kMaxLines> remoteShared{};

    bool operator==(const HierModelState &) const = default;
};

/** All-invalid state with empty filters (a freshly assembled fabric). */
HierModelState initialHierState(const HierModelConfig &cfg);

/**
 * Execute one processor event through the two-level fabric, consuming
 * choices from `feed` exactly where the engine would consult a chooser
 * (see file comment for the order) and optionally logging each
 * consultation.
 */
StepResult stepHierModel(const HierModelConfig &cfg, HierModelState &st,
                         const ModelEvent &ev, ChoiceFeed &feed,
                         std::vector<ChoiceRecord> *log = nullptr);

/** Same generation rule as the flat model (local cells are
 *  hierarchy-agnostic). */
std::vector<ModelEvent> legalHierEvents(const HierModelConfig &cfg,
                                        const HierModelState &st);

/**
 * The flat MOESI invariants (U1/U2/V1/V2/V3) plus the hierarchy's
 * filter invariants, mirroring the hierarchical CoherenceChecker:
 * H1 (inclusion: a line valid in cluster k is in localHeld[k]) and
 * H2 (remote visibility: a line valid outside cluster k is in
 * remoteShared[k]).  Stale filter entries are legal (conservative).
 */
std::vector<std::string> checkHierInvariants(const HierModelConfig &cfg,
                                             const HierModelState &st);

/** Flat canonical key extended with the filter bits. */
std::uint64_t canonicalHierKey(const HierModelConfig &cfg,
                               const HierModelState &st);

/**
 * Render the filter bits (" | flt 0x0: b0:LR b1:-R" ...); the hier
 * differential renders a live system's bridges in the same format, so
 * model and engine filters compare byte-for-byte.  The flat part of
 * the state renders via renderStateVector(cfg.base, st.flat).
 */
std::string renderHierFilters(const HierModelConfig &cfg,
                              const HierModelState &st);

/**
 * Full observable render: the flat state vector with each cache
 * labelled by its LEAF-LOCAL master id (its index within its cluster -
 * the id HierSystem's checker knows it by), followed by the filter
 * bits.  Byte-identical to a live HierSystem's
 * describeLine-per-line + bridge-filter render.
 */
std::string renderHierStateVector(const HierModelConfig &cfg,
                                  const HierModelState &st);

using HierTraceStep = TraceStep;
using HierCounterexample = BasicCounterexample<HierModelState>;

struct HierExploreConfig
{
    HierModelConfig model;
    /** Stop (complete=false) after this many distinct states. */
    std::size_t maxNodes = 1u << 20;
};

using HierExploreResult = BasicExploreResult<HierModelState>;

/**
 * Bounded exhaustive BFS over the hierarchy's reachable state space,
 * invariant-checking every generated successor (H1/H2 included)
 * before deduplication.  The search is mc::explore's; its fingerprints
 * hash canonicalHierKey, so the filter bits are part of the graph.
 */
HierExploreResult exploreHier(const HierExploreConfig &cfg);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_HIER_MODEL_H_
