/**
 * @file
 * TraceSink rendering Chrome/Perfetto `trace_event` JSON.
 *
 * Every event's `ts` (and `dur`) is a simulated cycle count - the
 * Trace Event Format treats ts as microseconds, so one cycle renders
 * as one "microsecond" tick in the Perfetto UI.  Wall-clock time never
 * enters the file; the same seed always serializes the same bytes.
 *
 * Tracks: pid 1 = bus (one tid per master), pid 2 = engine (one tid
 * per processor), pid 3 = fault ladder (tid = master), pid 4 =
 * campaign (tid = job index).  Timestamps are nondecreasing per
 * (pid, tid) track by construction and validate_trace.py asserts it.
 *
 * Recording is cheap enough to leave on: each event is one fixed-size
 * binary record holding the name pointer (a literal, per the
 * TraceSink name rule) and numbers.  A bus transaction keeps its
 * line, response bits, supplier and abort count, an engine access its
 * address; only free-form details (ladder, scrub and job events) are
 * copied, into one text arena.  render() formats the JSON once, at
 * export.
 */

#ifndef FBSIM_OBS_PERFETTO_SINK_H_
#define FBSIM_OBS_PERFETTO_SINK_H_

#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace fbsim {

class PerfettoTraceSink : public TraceSink
{
  public:
    void onBusTransaction(const BusRequest &req, const BusResult &result,
                          Cycles start) override;
    void onInstant(const char *name, std::uint32_t pid,
                   std::uint32_t tid, Cycles ts,
                   const std::string &detail) override;
    void onSpan(const char *name, std::uint32_t pid, std::uint32_t tid,
                Cycles ts, Cycles dur,
                std::optional<Addr> addr) override;
    void onJobEvent(const char *name, std::uint64_t job_index,
                    Cycles ts, Cycles dur,
                    const std::string &detail) override;

    std::size_t eventCount() const { return events_.size(); }

    /** The complete JSON document ({"traceEvents": [...]}). */
    std::string render() const;

    /** Write render() to `path`; fatal on I/O failure. */
    void writeFile(const std::string &path) const;

  private:
    /** What an event's numbers mean, and how it renders. */
    enum class Kind : std::uint8_t
    {
        Instant,   ///< "i", detail text (none when empty)
        Span,      ///< "X", detail text (none when empty)
        Access,    ///< "X", detail "addr 0x<arg>"
        Bus,       ///< "X", detail "line 0x<arg> resp ..."
    };

    /** Event::resp bits of a bus transaction: its wired-OR CH, DI
     *  and SL lines, and whether a cache supplied the data. */
    static constexpr std::uint8_t kCh = 1, kDi = 2, kSl = 4, kCache = 8;

    /** One recorded event: fixed size, owns no memory. */
    struct Event
    {
        const char *name;
        Cycles ts;
        Cycles dur;
        std::uint64_t tid;
        /** Bus: the line; Access: the address; Instant and Span: the
         *  detail's offset in text_. */
        std::uint64_t arg;
        /** Bus: the abort count; Instant and Span: the detail's
         *  length. */
        std::uint64_t count;
        std::uint32_t pid;
        Kind kind;
        std::uint8_t resp;
    };

    /** Record a free-form event, copying its detail into text_. */
    void pushText(Kind kind, const char *name, std::uint32_t pid,
                  std::uint64_t tid, Cycles ts, Cycles dur,
                  const std::string &detail);

    /** Append `e`'s JSON object to `out`. */
    void renderEvent(std::string &out, const Event &e) const;

    std::vector<Event> events_;   ///< in emit order
    std::string text_;            ///< every free-form detail, back to back
};

} // namespace fbsim

#endif // FBSIM_OBS_PERFETTO_SINK_H_
