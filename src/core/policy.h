/**
 * @file
 * Action selection within the MOESI class of protocols.
 *
 * Tables 1 and 2 define, for many (state, event) pairs, a *choice* of
 * legal actions; section 3.4 stresses that each bus client can make
 * that choice statically, dynamically, per page, or even at random,
 * without breaking consistency.  fbsim represents the choice as an
 * ActionChooser:
 *
 *   - PreferredChooser: always the paper's preferred (first) entry;
 *   - PolicyChooser:    a MoesiPolicy selects along the named choice
 *                       points and applies the paper's notes 9-12
 *                       weakenings;
 *   - RandomChooser:    a different uniformly random legal action at
 *                       every decision (the paper's "extreme case");
 *   - SequenceChooser:  every decision is *driven* from an external
 *                       ChoiceSource, so an enumerator or a replayer
 *                       can inject an explicit choice sequence.
 */

#ifndef FBSIM_CORE_POLICY_H_
#define FBSIM_CORE_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/actions.h"

namespace fbsim {

/**
 * The named choice points of the MOESI class, plus the notes 9-12
 * weakenings, as a static per-cache configuration.
 */
struct MoesiPolicy
{
    /** Local write to O/S data: broadcast the change or invalidate the
     *  other copies. */
    enum class SharedWrite { Broadcast, Invalidate };

    /** Write miss: one read-for-ownership transaction, or a read
     *  followed by a separate write. */
    enum class MissWrite { ReadForOwnership, ReadThenWrite };

    /** Snooped broadcast write to a line we hold: update our copy or
     *  invalidate it. */
    enum class SnoopedBroadcast { Update, Invalidate };

    SharedWrite sharedWrite = SharedWrite::Broadcast;
    MissWrite missWrite = MissWrite::ReadForOwnership;
    SnoopedBroadcast snoopedBroadcast = SnoopedBroadcast::Update;

    /** Note 10 off-switch: replace CH:S/E with S (never enter E). */
    bool useExclusive = true;

    /** Note 9 off-switch: replace CH:O/M with O (never reclaim M). */
    bool useOwnedReclaim = true;

    /** Note 11: on bus events, drop to I instead of staying E/S. */
    bool dropOnSnoop = false;

    /** Note 12: enter M wherever the table says E (forces write-back of
     *  clean lines; models caches without a distinct E encoding). */
    bool exclusiveAsModified = false;

    /** Assert BC on Pass/Flush pushes ("BC?" entries). */
    bool broadcastPush = false;

    /** Write-through caches only: allocate on a write miss by reading
     *  first (the table's "Read>Write*" alternative). */
    bool wtWriteAllocate = false;
};

/** Apply the policy's notes 9/10/12 weakenings to a result state. */
StateSpec applyStateWeakenings(const MoesiPolicy &policy,
                               StateSpec spec);

/**
 * Strategy interface deciding which legal alternative a cache takes.
 *
 * The spans passed in are the table cell's alternatives, already
 * filtered to the client's kind; they are never empty.  Implementations
 * return a *copy* of the chosen action, which they may legally weaken
 * (notes 9-12).
 */
class ActionChooser
{
  public:
    virtual ~ActionChooser() = default;

    /** Pick the action for a local processor event.  `alts` is already
     *  filtered to the client kind and never empty. */
    virtual LocalAction chooseLocal(ClientKind kind, State s,
                                    LocalEvent ev,
                                    std::span<const LocalAction> alts) = 0;

    /** Pick the response to a snooped bus event. */
    virtual SnoopAction chooseSnoop(ClientKind kind, State s, BusEvent ev,
                                    std::span<const SnoopAction> alts) = 0;

    /**
     * True when the choice is a pure function of (kind, state, event,
     * alts).  Caches memoize such choices per (state, event) and skip
     * the table walk and virtual dispatch on the snoop hot path; a
     * stateful chooser (random action selection) must return false.
     */
    virtual bool deterministic() const { return true; }
};

/** Always the paper's preferred (first) alternative. */
class PreferredChooser : public ActionChooser
{
  public:
    LocalAction chooseLocal(ClientKind kind, State s, LocalEvent ev,
                            std::span<const LocalAction> alts) override;
    SnoopAction chooseSnoop(ClientKind kind, State s, BusEvent ev,
                            std::span<const SnoopAction> alts) override;
};

/** Selection directed by a MoesiPolicy. */
class PolicyChooser : public ActionChooser
{
  public:
    explicit PolicyChooser(const MoesiPolicy &policy) : policy_(policy) {}

    const MoesiPolicy &policy() const { return policy_; }

    LocalAction chooseLocal(ClientKind kind, State s, LocalEvent ev,
                            std::span<const LocalAction> alts) override;
    SnoopAction chooseSnoop(ClientKind kind, State s, BusEvent ev,
                            std::span<const SnoopAction> alts) override;

  private:
    MoesiPolicy policy_;
};

/**
 * A uniformly random legal alternative at every decision - the paper's
 * section 3.4 extreme case, used by the compatibility property tests.
 */
class RandomChooser : public ActionChooser
{
  public:
    explicit RandomChooser(std::uint64_t seed) : rng_(seed) {}

    LocalAction chooseLocal(ClientKind kind, State s, LocalEvent ev,
                            std::span<const LocalAction> alts) override;
    SnoopAction chooseSnoop(ClientKind kind, State s, BusEvent ev,
                            std::span<const SnoopAction> alts) override;
    bool deterministic() const override { return false; }

  private:
    Rng rng_;
};

/**
 * Where a SequenceChooser's decisions come from.  pick() is called
 * once per chooser consultation - i.e. once for *every* non-empty
 * table cell the cache walks, singleton cells included - so a recorded
 * stream replays position-for-position against any consumer that
 * walks the same cells in the same order (the model checker's
 * transition executor is written to match the engine cell-for-cell).
 */
class ChoiceSource
{
  public:
    virtual ~ChoiceSource() = default;

    /** Index of the chosen alternative; must be < n_alts (n_alts >= 1). */
    virtual std::size_t pick(std::size_t n_alts) = 0;
};

/** Uniform random choices from a seeded Rng (tape-free fuzzing that a
 *  model driven from an equally-seeded source can mirror exactly). */
class RngChoiceSource : public ChoiceSource
{
  public:
    explicit RngChoiceSource(std::uint64_t seed) : rng_(seed) {}

    std::size_t
    pick(std::size_t n_alts) override
    {
        return static_cast<std::size_t>(rng_.below(n_alts));
    }

  private:
    Rng rng_;
};

/**
 * A pre-recorded choice script (counterexample replay).  Indices out
 * of range for the presented cell, or consultations past the end of
 * the script, fall back to alternative 0 and are counted in
 * overruns() - a replayed trace that stays aligned never overruns.
 */
class ScriptChoiceSource : public ChoiceSource
{
  public:
    explicit ScriptChoiceSource(std::vector<std::uint8_t> script)
        : script_(std::move(script))
    {
    }

    std::size_t
    pick(std::size_t n_alts) override
    {
        if (pos_ >= script_.size()) {
            ++overruns_;
            return 0;
        }
        std::size_t idx = script_[pos_++];
        if (idx >= n_alts) {
            ++overruns_;
            return 0;
        }
        return idx;
    }

    /** Script entries consumed so far. */
    std::size_t consumed() const { return pos_; }

    /** Picks that ran past the script or presented a short cell. */
    std::size_t overruns() const { return overruns_; }

  private:
    std::vector<std::uint8_t> script_;
    std::size_t pos_ = 0;
    std::size_t overruns_ = 0;
};

/**
 * Driven selection: every decision comes from a ChoiceSource.  This is
 * the injection point the section 3.4 enumeration machinery needs -
 * PreferredChooser/PolicyChooser/RandomChooser only ever *draw*
 * choices; this chooser lets a model checker or replayer *dictate*
 * them.  deterministic() is false so caches neither memoize the first
 * decision nor take the fast local-hit path (both would skip
 * consultations and desynchronise the stream).  The source must
 * outlive the chooser.
 */
class SequenceChooser : public ActionChooser
{
  public:
    explicit SequenceChooser(ChoiceSource &source) : source_(source) {}

    LocalAction
    chooseLocal(ClientKind, State, LocalEvent,
                std::span<const LocalAction> alts) override
    {
        return alts[source_.pick(alts.size())];
    }

    SnoopAction
    chooseSnoop(ClientKind, State, BusEvent,
                std::span<const SnoopAction> alts) override
    {
        return alts[source_.pick(alts.size())];
    }

    bool deterministic() const override { return false; }

  private:
    ChoiceSource &source_;
};

} // namespace fbsim

#endif // FBSIM_CORE_POLICY_H_
