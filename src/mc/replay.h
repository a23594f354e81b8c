/**
 * @file
 * Counterexample / conformance replay: drive a real System through a
 * model trace and compare the two state vectors after every step.
 *
 * The recorded choice stream of a trace is split into one script per
 * cache (the order each cache's chooser is consulted is exactly the
 * order the model logged picks for it), and each cache is built with a
 * SequenceChooser over a ScriptChoiceSource.  The system geometry is
 * the model's: one word per line, one set, associativity >= lines, so
 * no evictions and a word address is just line * kWordBytes.
 *
 * After every step the model's renderStateVector and the live
 * checker's describeLine renderings are compared byte-for-byte, the
 * returned access values are compared, and - for traces that end in an
 * invariant violation - the live checker is required to report the
 * violation too.  Zero script overruns are required: a replay that
 * consults choosers anywhere the model did not (or vice versa) is
 * itself a conformance failure.
 */

#ifndef FBSIM_MC_REPLAY_H_
#define FBSIM_MC_REPLAY_H_

#include "mc/explorer.h"

namespace fbsim {
namespace mc {

struct ReplayResult
{
    /** Lockstep held: every comparison passed and the violation
     *  expectation matched. */
    bool ok = true;

    /** Divergence descriptions (state-vector mismatch, value
     *  mismatch, script overrun, missing/unexpected violation). */
    std::vector<std::string> errors;

    /** Violations the live checker reported during the replay. */
    std::vector<std::string> systemViolations;

    std::size_t stepsRun = 0;
};

/**
 * Replay `steps` through a real System built from `cfg`.
 *
 * @param expect_violation the trace is a counterexample: its final
 *        step must leave the live system in violation of the
 *        invariants (clean traces must replay violation-free).
 *
 * Only invariant-violation counterexamples are engine-replayable; a
 * trace whose final step is an illegal transition (empty cell, double
 * intervention) has no engine counterpart - the model rejects the
 * step, while the engine counts it (illegalSnoops, responseConflicts)
 * and answers it as a missed snoop or a first responder - so replay
 * its prefix instead.
 */
ReplayResult replayTrace(const ModelConfig &cfg,
                         const std::vector<TraceStep> &steps,
                         bool expect_violation);

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_REPLAY_H_
