/**
 * @file
 * Differential lockstep fuzzing: the real engine and the abstract model
 * execute the same seeded random walk and must agree byte-for-byte on
 * the full state vector after every step.
 *
 * Fault-free mode: each engine cache draws its "or" selections from a
 * SequenceChooser over a per-cache RngChoiceSource, and the model draws
 * from identically-seeded per-cache Rng streams.  The consultation
 * orders coincide (the bus serializes everything and the model consults
 * its feed exactly where the engine consults a chooser), so both sides
 * realize the same nondeterministic execution.
 *
 * Fault mode: timing-only faults (spurious aborts, memory delays and
 * drops) are injected into the engine.  Choosers are the
 * position-independent PreferredChooser on both sides, so fault-induced
 * extra retry rounds cannot misalign any tape.  A step whose engine
 * access comes back faulted is a *stutter*: the fault-free model cannot
 * express a half-completed transaction (an abort-push that persisted,
 * a partially-advanced Read>Write), so the model resynchronizes by
 * adopting the engine's state vector - which the very next steps then
 * must again match exactly.  Data-corrupting faults are out of scope
 * here (the coherence checker's own campaigns cover them).
 */

#ifndef FBSIM_MC_DIFFERENTIAL_H_
#define FBSIM_MC_DIFFERENTIAL_H_

#include "mc/hier_model.h"
#include "mc/model.h"
#include "sim/engine.h"

namespace fbsim {
namespace mc {

struct DiffConfig
{
    /** One table per cache (2-4). */
    std::vector<const ProtocolTable *> tables;
    std::size_t lines = 2;
    std::size_t steps = 10000;
    std::uint64_t seed = 1;
    /** Inject timing-only faults into the engine (stutter mode). */
    bool faults = false;
    /** High cap: probabilistic aborts must not exhaust retries. */
    unsigned maxBusRetries = 64;
};

struct DiffResult
{
    bool ok = true;
    std::vector<std::string> errors;   ///< first divergences found
    std::size_t stepsRun = 0;
    /** Faulted engine accesses absorbed as stutter-with-resync. */
    std::size_t faultedSteps = 0;
};

/** Run the lockstep walk; stops early after a few divergences. */
DiffResult runDifferential(const DiffConfig &cfg);

/**
 * Engine differential: the timed Engine runs one seeded workload in
 * the given ordering, and its functional access log is replayed
 * against the abstract model (PreferredFeed on both sides), which must
 * accept every transition and land on the engine's final state vector.
 * This is the relaxed PerLine mode's semantic oracle; under Strict it
 * checks the speculative loop against the interleaved semantics the
 * model formalizes.
 */
struct EngineDiffConfig
{
    /** One table per cache/processor (2-4). */
    std::vector<const ProtocolTable *> tables;
    std::size_t lines = 2;
    std::size_t refsPerProc = 4000;
    std::uint64_t seed = 1;
    /** Engine ordering mode under test. */
    EngineOrdering ordering = EngineOrdering::PerLine;
};

DiffResult runEngineDifferential(const EngineDiffConfig &cfg);

/**
 * Hierarchical differential: a live HierSystem (leaf buses, bridges,
 * root bus) and the hier abstract model execute the same seeded walk
 * and must agree byte-for-byte after every step on BOTH the full state
 * vector and the bridges' filter bits.
 *
 * Fault-free mode mirrors runDifferential (SequenceChooser engine vs
 * identically-seeded RngFeed model).  Fault mode injects only
 * hierarchy-safe timing faults - spurious aborts, memory delay/drop,
 * bridge forward drop/delay/dup and leaf-stall windows - which perturb
 * when transactions complete, never what data or filter state they
 * leave behind; a faulted engine access is a stutter step that resyncs
 * the model (filters included) from the engine.  Corrupting sites
 * (filterStale and the flat data/response flips) are out of scope here;
 * the resilience campaigns cover them.
 */
struct HierDiffConfig
{
    /** One table per cache (2-4); cache i joins cluster i % clusters. */
    std::vector<const ProtocolTable *> tables;
    std::size_t clusters = 2;
    std::size_t lines = 2;
    std::size_t steps = 10000;
    std::uint64_t seed = 1;
    /** Inject hier-safe timing faults into the engine (stutter mode). */
    bool faults = false;
    unsigned maxBusRetries = 64;
};

DiffResult runHierDifferential(const HierDiffConfig &cfg);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_DIFFERENTIAL_H_
