#include "trace/trace_io.h"

#include <cstring>
#include <fstream>
#include <limits>

#include "common/logging.h"

namespace fbsim {

namespace {

constexpr std::uint64_t kMaxMasterId = std::numeric_limits<MasterId>::max();

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\f' ||
           c == '\v';
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** `tok` as an optionally '+'-signed decimal number; false when any
 *  character is not a digit or the value overflows. */
bool
parseDecimal(std::string_view tok, std::uint64_t *out)
{
    std::size_t i = 0;
    if (i < tok.size() && tok[i] == '+')
        ++i;
    if (i >= tok.size())
        return false;
    std::uint64_t value = 0;
    for (; i < tok.size(); ++i) {
        if (tok[i] < '0' || tok[i] > '9')
            return false;
        if (value > (~std::uint64_t{0} - (tok[i] - '0')) / 10)
            return false;
        value = value * 10 + (tok[i] - '0');
    }
    *out = value;
    return true;
}

/** `tok` as an optionally '+'-signed hex number with an optional
 *  0x/0X prefix; false when any other character is not a hex digit
 *  or the value overflows. */
bool
parseHex(std::string_view tok, std::uint64_t *out)
{
    std::size_t i = 0;
    if (i < tok.size() && tok[i] == '+')
        ++i;
    if (i + 2 < tok.size() && tok[i] == '0' &&
        (tok[i + 1] == 'x' || tok[i + 1] == 'X'))
        i += 2;
    if (i >= tok.size())
        return false;
    std::uint64_t value = 0;
    for (; i < tok.size(); ++i) {
        int digit = hexValue(tok[i]);
        if (digit < 0)
            return false;
        if (value >> 60)
            return false;   // would overflow the shift
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    *out = value;
    return true;
}

} // namespace

std::vector<TraceRef>
parseTrace(std::string_view text, std::string *error_out)
{
    std::vector<TraceRef> refs;
    refs.reserve(text.size() / 8);   // "p R hexaddr\n" lower bound
    const char *p = text.data();
    const char *const end = p + text.size();
    std::size_t lineno = 0;

    auto fail = [&](const char *what) {
        if (error_out)
            *error_out = strprintf("line %zu: %s", lineno, what);
        return std::vector<TraceRef>{};
    };

    while (p < end) {
        ++lineno;
        const char *eol = static_cast<const char *>(
            std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
        const char *line_end = eol ? eol : end;
        // Comments run to end of line.
        if (const char *hash = static_cast<const char *>(std::memchr(
                p, '#', static_cast<std::size_t>(line_end - p))))
            line_end = hash;

        // Whitespace-delimited tokens, in place.
        std::string_view tok[3];
        int ntok = 0;
        const char *q = p;
        while (q < line_end && ntok < 3) {
            while (q < line_end && isBlank(*q))
                ++q;
            if (q == line_end)
                break;
            const char *start = q;
            while (q < line_end && !isBlank(*q))
                ++q;
            tok[ntok++] = std::string_view(
                start, static_cast<std::size_t>(q - start));
        }
        p = eol ? eol + 1 : end;

        if (ntok == 0)
            continue;   // blank / comment-only line
        if (ntok < 3)
            return fail("expected '<proc> <R|W> <hexaddr>'");

        std::uint64_t proc = 0, addr = 0;
        if (!parseDecimal(tok[0], &proc) || !parseHex(tok[2], &addr))
            return fail("bad number");
        if (proc > kMaxMasterId)
            return fail("processor id out of range");
        TraceRef ref;
        ref.proc = static_cast<MasterId>(proc);
        ref.addr = addr;
        if (tok[1] == "R" || tok[1] == "r")
            ref.write = false;
        else if (tok[1] == "W" || tok[1] == "w")
            ref.write = true;
        else
            return fail("op must be R or W");
        refs.push_back(ref);
    }
    if (error_out)
        error_out->clear();
    return refs;
}

std::vector<TraceRef>
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fbsim_fatal("cannot open trace file %s", path.c_str());
    // Read the whole stream, then scan it: a pipe or a FIFO is read
    // exactly like a regular file, and a read error (a directory, say)
    // is fatal rather than an empty trace.
    std::string text;
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk), in.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        fbsim_fatal("cannot read trace file %s", path.c_str());
    std::string err;
    std::vector<TraceRef> refs = parseTrace(text, &err);
    if (!err.empty())
        fbsim_fatal("%s: %s", path.c_str(), err.c_str());
    return refs;
}

void
writeTrace(std::ostream &out, const std::vector<TraceRef> &refs)
{
    out << "# fbsim trace: <proc> <R|W> <hex-address>\n";
    for (const TraceRef &r : refs) {
        out << r.proc << ' ' << (r.write ? 'W' : 'R') << ' ' << std::hex
            << r.addr << std::dec << '\n';
    }
}

void
writeTraceFile(const std::string &path, const std::vector<TraceRef> &refs)
{
    std::ofstream out(path);
    if (!out)
        fbsim_fatal("cannot write trace file %s", path.c_str());
    writeTrace(out, refs);
}

std::vector<std::vector<ProcRef>>
splitTraceByProc(const std::vector<TraceRef> &refs, std::size_t procs)
{
    std::vector<std::vector<ProcRef>> out(procs);
    for (const TraceRef &r : refs) {
        fbsim_assert(r.proc < procs);
        out[r.proc].push_back({r.write, r.addr});
    }
    for (auto &v : out) {
        if (v.empty())
            v.push_back({false, 0});
    }
    return out;
}

} // namespace fbsim
