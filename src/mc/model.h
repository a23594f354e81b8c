/**
 * @file
 * Executable abstract model of a small fbsim system, for bounded
 * exhaustive checking of the paper's section 3.4 compatibility claim.
 *
 * The model is a transition-faithful re-statement of the functional
 * engine (SnoopingCache + Bus + MainMemorySlave) for the configuration
 * the enumerator explores: N copy-back caches (2-4) sharing one bus,
 * L single-word lines (1-2), one set, no evictions, no faults.  It is
 * the one-bus tree of the model's single executor (mc/executor.h):
 * every cache snoops the root bus, whose slave is memory.
 * mc/hier_model.h runs the same executor over a two-level tree.  Every
 * place the engine consults its ActionChooser - every non-empty table
 * cell it walks, singleton cells included - the model consults its
 * ChoiceFeed at the same position, so a choice stream recorded here
 * replays position-for-position through real caches driven by
 * SequenceChooser/ScriptChoiceSource (see replay.h).
 *
 * Data values are version counters: the k-th write to a line writes k
 * (the line's shared-image version), so "copy is current" is the
 * equality test `value == image` and stale data is detectable without
 * tracking real words.  Since exploration stops at the first invariant
 * violation, every *expanded* state has all valid copies current
 * (V1), which makes the canonical key - per-copy consistency state
 * plus a per-line memory-current bit - a sound and complete
 * abstraction of the concrete state for reachability purposes.
 *
 * A step is line-local: an event on line l touches only line l's
 * copies, memory and image words (and, in the hierarchy, line l's
 * filter bits), and no value steers it.  With the clean-state
 * argument above, an event's successors from a clean state depend only
 * on line l's part of the canonical key, which lets the explorer
 * memoize them per line (explorer.h).
 */

#ifndef FBSIM_MC_MODEL_H_
#define FBSIM_MC_MODEL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/events.h"
#include "core/protocol_table.h"
#include "core/state.h"

namespace fbsim {
namespace mc {

/** Enumeration bounds (key packing and state arrays assume them). */
inline constexpr std::size_t kMaxCaches = 4;
inline constexpr std::size_t kMaxLines = 2;

/** The model system: one table per cache, L lines, one bus. */
struct ModelConfig
{
    /** One protocol table per cache (2-4); mixed tables model the
     *  compatibility configuration.  Must outlive the model. */
    std::vector<const ProtocolTable *> tables;

    /** Lines in play (1-2); each is one word wide. */
    std::size_t lines = 1;

    /** Retry cap mirroring Bus::maxRetries_: a transaction still
     *  aborting after this many rounds is a nonconvergence violation
     *  (the fault-free engine counts it in BusStats::retryExhausted
     *  and fails the access). */
    unsigned maxBusRetries = 16;

    std::size_t numCaches() const { return tables.size(); }
};

/** One cache's copy of one line. */
struct ModelCopy
{
    State s = State::I;
    Word value = 0;    ///< meaningful only while s != I

    bool operator==(const ModelCopy &) const = default;
};

/** Full system state: every copy, memory and the shared image. */
struct ModelState
{
    std::array<ModelCopy, kMaxCaches * kMaxLines> copies{};
    std::array<Word, kMaxLines> mem{};
    /** Shared-image version per line (value of the latest write). */
    std::array<Word, kMaxLines> image{};

    bool operator==(const ModelState &) const = default;
};

/** Copy accessors (row-major: cache outer, line inner). */
inline ModelCopy &
copyAt(const ModelConfig &cfg, ModelState &st, std::size_t cache,
       std::size_t line)
{
    return st.copies[cache * cfg.lines + line];
}

inline const ModelCopy &
copyAt(const ModelConfig &cfg, const ModelState &st, std::size_t cache,
       std::size_t line)
{
    return st.copies[cache * cfg.lines + line];
}

/** All-invalid, memory-current initial state. */
ModelState initialState(const ModelConfig &cfg);

/** One processor event at one cache and line. */
struct ModelEvent
{
    std::uint8_t cache = 0;
    std::uint8_t line = 0;
    LocalEvent ev = LocalEvent::Read;

    bool operator==(const ModelEvent &) const = default;
};

/**
 * Where the transition executor's choices come from.  `cache` is the
 * module whose chooser the engine would consult (master for local
 * cells, snooper for snoop cells), so a recorder can split the global
 * stream into the per-cache scripts replay needs.
 */
class ChoiceFeed
{
  public:
    virtual ~ChoiceFeed() = default;

    /** Pick an alternative index in [0, n_alts); n_alts >= 1. */
    virtual std::size_t pick(std::size_t cache, std::size_t n_alts) = 0;
};

/** Always the first (paper-preferred) alternative - mirrors a system
 *  of PreferredChooser caches without any positional tape. */
class PreferredFeed : public ChoiceFeed
{
  public:
    std::size_t pick(std::size_t, std::size_t) override { return 0; }
};

/** One recorded consultation (for building per-cache replay scripts). */
struct ChoiceRecord
{
    std::uint8_t cache = 0;
    std::uint8_t nAlts = 1;
    std::uint8_t idx = 0;
};

/** Outcome of one model step. */
struct StepResult
{
    /** False: the step itself was illegal (empty snooped cell, double
     *  DI/BS, nonconvergence, undispatchable local event).  The engine
     *  counts and answers an empty cell or a second DI/BS, counts a
     *  nonconvergence and fails its access, and panics on an
     *  undispatchable local event; the model rejects them all.  The
     *  state is left partially advanced, exactly as far as the step
     *  got. */
    bool ok = true;

    /** Value the access returned (reads; writes echo the new value). */
    Word value = 0;

    /** Violation descriptions when !ok. */
    std::vector<std::string> violations;
};

/** The value the next Write event on `line` will store (the advanced
 *  shared-image version).  Drivers running a real system in lockstep
 *  write exactly this value so both sides' words stay identical. */
inline Word
nextWriteValue(const ModelState &st, std::size_t line)
{
    return st.image[line] + 1;
}

/**
 * Execute one processor event, consuming choices from `feed` exactly
 * where the engine would consult a chooser and optionally logging each
 * consultation to `log`.
 */
StepResult stepModel(const ModelConfig &cfg, ModelState &st,
                     const ModelEvent &ev, ChoiceFeed &feed,
                     std::vector<ChoiceRecord> *log = nullptr);

/**
 * Events worth generating from `st`: Read and Write always (every
 * protocol serves them from every state), Pass/Flush only where the
 * cache's kind-filtered local cell is non-empty - an empty cell is the
 * engine's silent no-op, which neither changes state nor consults a
 * chooser.
 */
std::vector<ModelEvent> legalEvents(const ModelConfig &cfg,
                                    const ModelState &st);

/**
 * The MOESI structural invariants over the model state, mirroring
 * CoherenceChecker: U1 (exclusive means sole holder), U2 (at most one
 * owner), V1 (valid copies current), V2 (unowned lines have current
 * memory), V3 (E matches memory).  Returns violation strings (empty =
 * consistent), each suffixed with the state-vector rendering.
 */
std::vector<std::string> checkInvariants(const ModelConfig &cfg,
                                         const ModelState &st);

/**
 * Canonical 64-bit key of an invariant-clean state: 3 bits of
 * consistency state per (cache, line) plus one memory-current bit per
 * line.  Two clean states with equal keys are bisimilar (values are
 * version counters; only the current/stale pattern is observable).
 */
std::uint64_t canonicalKey(const ModelConfig &cfg, const ModelState &st);

/**
 * Render the state vector in exactly the format of
 * CoherenceChecker::describeLine, concatenated over lines, so a model
 * state and a live System state can be compared byte-for-byte.
 */
std::string renderStateVector(const ModelConfig &cfg,
                              const ModelState &st);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_MODEL_H_
