/**
 * @file
 * Text trace format: one reference per line,
 *
 *     <proc> <R|W> <hex-address>
 *
 * with '#' comments and blank lines ignored.  Traces interleave
 * processors globally (the order is the bus order in the functional
 * layer).  A processor id must fit a MasterId; a larger one is a parse
 * error ("line N: processor id out of range"), never a wrapped id.
 *
 * One scanner, parseTrace(), reads this format; readTraceFile() feeds
 * it a whole file, pipe or FIFO alike.
 */

#ifndef FBSIM_TRACE_TRACE_IO_H_
#define FBSIM_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "trace/ref_stream.h"

namespace fbsim {

/** One trace record: a reference attributed to a processor. */
struct TraceRef
{
    MasterId proc = 0;
    bool write = false;
    Addr addr = 0;

    bool operator==(const TraceRef &) const = default;
};

/**
 * Parse a trace from an in-memory buffer with one in-place scan: no
 * per-line stream or string work, no number-parse exceptions.  The
 * processor id is decimal and the address hex (optional 0x), each
 * with an optional '+' and no '-'.  A number is its whole token: a
 * token with any other character ("1O0", "7x", a bare "0x") is a
 * bad number.
 * @param text the trace text.
 * @param error_out set to "line N: <what>" on failure, else cleared.
 * @return the references, empty (with error_out set) on parse error.
 */
std::vector<TraceRef> parseTrace(std::string_view text,
                                 std::string *error_out);

/**
 * Read a trace file, pipe or FIFO whole and scan it with parseTrace();
 * fatal() on I/O or parse errors.
 */
std::vector<TraceRef> readTraceFile(const std::string &path);

/** Serialize a trace. */
void writeTrace(std::ostream &out, const std::vector<TraceRef> &refs);

/** Serialize a trace to disk; fatal() on I/O errors. */
void writeTraceFile(const std::string &path,
                    const std::vector<TraceRef> &refs);

/**
 * Split a global trace into one reference vector per processor, each
 * replayable through a SpanStream (processors with no references get
 * a single idle read of address 0).
 * @param procs total processor count (>= max proc id + 1).
 */
std::vector<std::vector<ProcRef>>
splitTraceByProc(const std::vector<TraceRef> &refs, std::size_t procs);

} // namespace fbsim

#endif // FBSIM_TRACE_TRACE_IO_H_
