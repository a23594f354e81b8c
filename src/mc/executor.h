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
 * A step must stay line-local: an event on line l reads and writes only
 * line l's copies, mem[l], image[l] and line l's filter bits, and no
 * data value steers its control flow (values are only copied and
 * compared by the invariants).  The explorer's transition memo
 * (explorer.h) reuses one line column's edges for every node that
 * shares the column, and each memo fill asserts that a clean
 * successor's canonical key differs from its parent's in line l's
 * bits alone.  Each fill runs the executor once per choice
 * combination, so the clean path allocates nothing: table cells are
 * read in place and violation text is only formatted on failure.
 *
 * This header holds what the executor, the model files, the search and
 * the replay share.
 */

#ifndef FBSIM_MC_EXECUTOR_H_
#define FBSIM_MC_EXECUTOR_H_

#include <algorithm>
#include <span>
#include <string>

#include "common/logging.h"
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

/** Feed that re-issues one step's recorded choices in order. */
class RecordedFeed : public ChoiceFeed
{
  public:
    explicit RecordedFeed(std::span<const ChoiceRecord> records)
        : records_(records)
    {
    }

    std::size_t
    pick(std::size_t cache, std::size_t n_alts) override
    {
        fbsim_assert(pos_ < records_.size());
        const ChoiceRecord &r = records_[pos_++];
        fbsim_assert(r.cache == cache);
        fbsim_assert(r.nAlts == n_alts);
        return r.idx;
    }

    bool fullyConsumed() const { return pos_ == records_.size(); }

  private:
    std::span<const ChoiceRecord> records_;
    std::size_t pos_ = 0;
};

/**
 * The per-line state render behind renderStateVector and
 * renderHierStateVector: each cache is labelled by its global id, or,
 * given `cluster_of`, by its leaf-local id within its cluster.
 */
std::string renderLines(const ModelConfig &cfg, const ModelState &st,
                        const std::uint8_t *cluster_of);

/**
 * What the invariants judge of one line, gathered in one pass over its
 * copies.  checkInvariants and checkHierInvariants decide on these
 * facts alone and format text only for a fact that fails.
 */
struct LineFacts
{
    std::uint32_t valid = 0;    ///< caches holding the line
    std::uint32_t stale = 0;    ///< holders whose copy is not the image
    std::uint32_t eStale = 0;   ///< E holders whose copy is not memory
    int holders = 0;            ///< how many caches hold the line
    int exclusive = 0;          ///< holders in an exclusive state
    int owners = 0;             ///< holders in an owned state
    bool memCurrent = true;     ///< memory holds the image

    /** U1: an exclusive holder is the sole holder. */
    bool
    breaksU1() const
    {
        return exclusive > 1 || (exclusive == 1 && holders > 1);
    }
    /** U2: at most one owner. */
    bool breaksU2() const { return owners > 1; }
    /** V2: an unowned line has current memory. */
    bool breaksV2() const { return owners == 0 && !memCurrent; }

    bool
    clean() const
    {
        return (stale | eStale) == 0 && !breaksU1() && !breaksU2() &&
               !breaksV2();
    }
};

/** The facts of one line of `st`. */
LineFacts lineFacts(const ModelConfig &cfg, const ModelState &st,
                    std::size_t line);

struct HierModelConfig;

/** The bits of canonicalKey that describe `line`: every cache's state
 *  on it and its memory-current bit. */
std::uint64_t lineKeyMask(const ModelConfig &cfg, std::size_t line);

/** The bits of canonicalHierKey that describe `line`: lineKeyMask's
 *  and each bridge's two filter bits for it. */
std::uint64_t lineHierKeyMask(const HierModelConfig &cfg,
                              std::size_t line);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_EXECUTOR_H_
