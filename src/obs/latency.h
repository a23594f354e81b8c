/**
 * @file
 * Per-master bus latency instrumentation.
 *
 * A LatencyRecorder is attached to a Bus (service side: transaction
 * cost, retries, backoff) and consulted by the Engine (wait side:
 * arbitration + bus-busy delay before the grant).  Everything is in
 * the simulated cycle domain and allocation-free per sample, so an
 * attached recorder costs two histogram increments per transaction
 * and a detached bus pays one null test.
 *
 * Header-only on purpose: the bus and engine record through inline
 * calls without linking fbsim_obs.
 */

#ifndef FBSIM_OBS_LATENCY_H_
#define FBSIM_OBS_LATENCY_H_

#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace fbsim {

/**
 * Jain's fairness index J = (sum x)^2 / (n * sum x^2) over any
 * per-master allocation x.  1.0 = perfectly fair; 1/n = one master
 * gets everything.  An empty or all-zero allocation is vacuously
 * fair (1.0).
 */
inline double
jainFairnessIndex(const std::vector<double> &xs)
{
    if (xs.empty())
        return 1.0;
    double sum = 0.0;
    double sumsq = 0.0;
    for (double x : xs) {
        sum += x;
        sumsq += x * x;
    }
    if (sumsq == 0.0)
        return 1.0;
    return (sum * sum) / (static_cast<double>(xs.size()) * sumsq);
}

/** Per-master wait/service histograms plus retry/backoff counters. */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(std::size_t masters)
        : wait_(masters), service_(masters), retries_(masters, 0),
          backoff_(masters, 0), transactions_(masters, 0)
    {
    }

    std::size_t masters() const { return wait_.size(); }

    /** Arbitration + bus-busy cycles before the grant (engine side). */
    void
    recordWait(MasterId m, Cycles wait)
    {
        if (m < wait_.size())
            wait_[m].record(wait);
    }

    /** One committed transaction: its total cost (incl. aborted
     *  attempts), abort/retry rounds and idle backoff (bus side). */
    void
    recordService(MasterId m, Cycles cost, std::uint64_t aborts,
                  Cycles backoff)
    {
        if (m < service_.size()) {
            service_[m].record(cost);
            retries_[m] += aborts;
            backoff_[m] += backoff;
            ++transactions_[m];
        }
    }

    const HistogramData &
    serviceHistogram(std::size_t m) const
    {
        fbsim_assert(m < service_.size());
        return service_[m].data();
    }

    std::uint64_t transactions(std::size_t m) const
    { return transactions_[m]; }

    /**
     * Export into a registry under per-master names: bus.mI.wait and
     * bus.mI.service histograms, bus.mI.{txns,retries,backoffCycles}
     * counters.
     */
    void
    exportTo(MetricRegistry &reg) const
    {
        for (std::size_t m = 0; m < masters(); ++m) {
            std::string prefix = strprintf("bus.m%zu.", m);
            reg.histogram(prefix + "wait").merge(wait_[m].data());
            reg.histogram(prefix + "service")
                .merge(service_[m].data());
            reg.counter(prefix + "txns").add(transactions_[m]);
            reg.counter(prefix + "retries").add(retries_[m]);
            reg.counter(prefix + "backoffCycles").add(backoff_[m]);
        }
    }

  private:
    std::vector<Histogram> wait_;
    std::vector<Histogram> service_;
    std::vector<std::uint64_t> retries_;
    std::vector<Cycles> backoff_;
    std::vector<std::uint64_t> transactions_;
};

} // namespace fbsim

#endif // FBSIM_OBS_LATENCY_H_
