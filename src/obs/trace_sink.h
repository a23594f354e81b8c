/**
 * @file
 * The one observer interface on the simulator's event paths.
 *
 * A TraceSink sees committed bus transactions (the old BusObserver
 * role, now with the transaction's start cycle), point events on the
 * fault/recovery ladder, engine-domain spans, and campaign job
 * lifecycle events.  Every hook defaults to a no-op so a consumer
 * overrides only what it renders (TransactionLog and the coherence
 * checker take only onBusTransaction; the Perfetto exporter takes
 * everything).
 *
 * Determinism rule: every timestamp crossing this interface is a
 * *simulated* cycle count (bus occupancy or engine time) - wall-clock
 * time never enters a trace, so identical seeds emit identical traces.
 *
 * Hot-path rule: producers hold plain pointers and branch on null (or
 * iterate an empty vector); a detached simulation pays nothing but
 * that test.  An attached sink should not format per event either:
 * bus transactions and engine spans cross this interface as numbers,
 * and only the rare ladder and job events carry free-form text.
 *
 * Name rule: every `name` is a string literal (or otherwise outlives
 * the sink), so a sink may keep the pointer instead of copying it.
 */

#ifndef FBSIM_OBS_TRACE_SINK_H_
#define FBSIM_OBS_TRACE_SINK_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.h"

namespace fbsim {

struct BusRequest;
struct BusResult;

/** Trace process ids: one pid per subsystem track group. */
inline constexpr std::uint32_t kTraceBusPid = 1;      ///< bus transactions
inline constexpr std::uint32_t kTraceEnginePid = 2;   ///< per-proc timing
inline constexpr std::uint32_t kTraceFaultPid = 3;    ///< fault ladder
inline constexpr std::uint32_t kTraceCampaignPid = 4; ///< job lifecycle

class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * One bus transaction committed.  `start` is the bus-occupancy
     * cycle at which its (successful) service began: the bus's
     * busyCycles total minus the transaction's own cost.  Includes
     * nested abort pushes (they are real transactions), never aborted
     * attempts.
     */
    virtual void
    onBusTransaction(const BusRequest &req, const BusResult &result,
                     Cycles start)
    {
        (void)req;
        (void)result;
        (void)start;
    }

    /** A point event (fault injection, ladder transition, give-up). */
    virtual void
    onInstant(const char *name, std::uint32_t pid, std::uint32_t tid,
              Cycles ts, const std::string &detail)
    {
        (void)name;
        (void)pid;
        (void)tid;
        (void)ts;
        (void)detail;
    }

    /** A duration event on a (pid, tid) track: an access to `addr`,
     *  or a wait when `addr` is empty. */
    virtual void
    onSpan(const char *name, std::uint32_t pid, std::uint32_t tid,
           Cycles ts, Cycles dur, std::optional<Addr> addr)
    {
        (void)name;
        (void)pid;
        (void)tid;
        (void)ts;
        (void)dur;
        (void)addr;
    }

    /** Campaign job lifecycle: claim/run/retry/timeout/resume. */
    virtual void
    onJobEvent(const char *name, std::uint64_t job_index, Cycles ts,
               Cycles dur, const std::string &detail)
    {
        (void)name;
        (void)job_index;
        (void)ts;
        (void)dur;
        (void)detail;
    }
};

} // namespace fbsim

#endif // FBSIM_OBS_TRACE_SINK_H_
