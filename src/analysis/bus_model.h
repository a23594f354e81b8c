/**
 * @file
 * Analytical bus-contention model, in the spirit of the paper's
 * [Vern85] reference (Vernon & Holliday's timed-Petri-net analysis of
 * these same protocols): predict multiprocessor performance from
 * per-processor event rates without simulating every reference.
 *
 * The model: each processor alternates compute (1 cycle/reference)
 * with bus requests.  Per reference it demands `busCyclesPerRef`
 * cycles of exclusive bus service (measured on an uncontended run, or
 * supplied analytically).  The bus is a single server; the symmetric
 * fixed-point of
 *
 *     rho  = N * s * X          (bus utilization)
 *     W    = s * Q(rho, N)      (waiting per request)
 *     X    = 1 / (z + s + W)    (per-processor request throughput)
 *
 * with Q an M/M/1-like queueing factor corrected for a finite
 * population, yields predicted processor utilization  U = z * X  and
 * bus utilization rho.  bench/ext_analytical compares these
 * predictions against the discrete-event engine across N - the
 * cross-validation the paper asks for when it notes the preferred
 * choices depend on relative hardware speeds.
 */

#ifndef FBSIM_ANALYSIS_BUS_MODEL_H_
#define FBSIM_ANALYSIS_BUS_MODEL_H_

#include <cstddef>

namespace fbsim {

/** Inputs of the analytical model (per-processor, symmetric). */
struct BusModelParams
{
    /** Processors sharing the bus. */
    std::size_t processors = 1;

    /** Compute cycles between bus requests (z): references per
     *  request times cycles per reference. */
    double computePerRequest = 20.0;

    /** Bus service cycles per request (s). */
    double servicePerRequest = 10.0;
};

/** Outputs of the analytical model. */
struct BusModelResult
{
    double processorUtilization = 0;  ///< fraction of time computing
    double busUtilization = 0;        ///< fraction of time bus busy
    double waitingPerRequest = 0;     ///< mean queueing delay (cycles)
    double throughputPerProc = 0;     ///< requests per cycle per proc
    int iterations = 0;               ///< fixed-point iterations used
};

/**
 * Solve the symmetric machine-repairman fixed point.
 * Converges for any positive parameters (damped iteration).
 */
BusModelResult solveBusModel(const BusModelParams &params);

/**
 * Convenience: derive `computePerRequest` and `servicePerRequest`
 * from per-reference measurements.
 * @param refs_per_request references per bus request (1 / request
 *        probability), e.g. 1/miss-ratio-ish.
 * @param cycles_per_ref processor cycles per reference when not
 *        waiting (the engine's kHitCycles).
 * @param service_cycles bus cycles per request.
 */
BusModelParams
busModelFromRates(std::size_t processors, double refs_per_request,
                  double cycles_per_ref, double service_cycles);

} // namespace fbsim

#endif // FBSIM_ANALYSIS_BUS_MODEL_H_
