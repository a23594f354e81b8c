#include "obs/perfetto_sink.h"

#include <charconv>
#include <cstdio>
#include <string_view>

#include "bus/bus.h"
#include "common/logging.h"

namespace fbsim {

namespace {

const char *
busEventName(BusCmd cmd)
{
    switch (cmd) {
      case BusCmd::Read:      return "Read";
      case BusCmd::WriteWord: return "WriteWord";
      case BusCmd::WriteLine: return "Push";
      case BusCmd::AddrOnly:  return "Invalidate";
      case BusCmd::Sync:      return "Sync";
    }
    return "?";
}

/** Append `v` in decimal. */
void
appendDec(std::string &out, std::uint64_t v)
{
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/** Append `v` in lowercase hex, no prefix (printf's %llx). */
void
appendHex(std::string &out, std::uint64_t v)
{
    char buf[16];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v, 16).ptr);
}

/** Append `s` JSON-escaped (control chars, quote, backslash). */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                out += "\\u00";
                out += kHex[c >> 4];
                out += kHex[c & 0xf];
            } else {
                out += static_cast<char>(c);
            }
        }
    }
}

} // namespace

void
PerfettoTraceSink::pushText(Kind kind, const char *name,
                            std::uint32_t pid, std::uint64_t tid,
                            Cycles ts, Cycles dur,
                            const std::string &detail)
{
    events_.push_back({name, ts, dur, tid, text_.size(), detail.size(),
                       pid, kind, 0});
    text_ += detail;
}

void
PerfettoTraceSink::onBusTransaction(const BusRequest &req,
                                    const BusResult &result,
                                    Cycles start)
{
    const std::uint8_t resp =
        (result.resp.ch ? kCh : 0) | (result.resp.di ? kDi : 0) |
        (result.resp.sl ? kSl : 0) |
        (result.suppliedByCache ? kCache : 0);
    events_.push_back({busEventName(req.cmd), start, result.cost,
                       req.master, req.line, result.aborts,
                       kTraceBusPid, Kind::Bus, resp});
}

void
PerfettoTraceSink::onInstant(const char *name, std::uint32_t pid,
                             std::uint32_t tid, Cycles ts,
                             const std::string &detail)
{
    pushText(Kind::Instant, name, pid, tid, ts, 0, detail);
}

void
PerfettoTraceSink::onSpan(const char *name, std::uint32_t pid,
                          std::uint32_t tid, Cycles ts, Cycles dur,
                          std::optional<Addr> addr)
{
    if (addr)
        events_.push_back(
            {name, ts, dur, tid, *addr, 0, pid, Kind::Access, 0});
    else
        pushText(Kind::Span, name, pid, tid, ts, dur, std::string());
}

void
PerfettoTraceSink::onJobEvent(const char *name, std::uint64_t job_index,
                              Cycles ts, Cycles dur,
                              const std::string &detail)
{
    pushText(dur > 0 ? Kind::Span : Kind::Instant, name,
             kTraceCampaignPid, job_index, ts, dur, detail);
}

void
PerfettoTraceSink::renderEvent(std::string &out, const Event &e) const
{
    out += "{\"name\":\"";
    appendEscaped(out, e.name);
    out += e.kind == Kind::Instant ? "\",\"ph\":\"i\",\"pid\":"
                                   : "\",\"ph\":\"X\",\"pid\":";
    appendDec(out, e.pid);
    out += ",\"tid\":";
    appendDec(out, e.tid);
    out += ",\"ts\":";
    appendDec(out, e.ts);
    if (e.kind != Kind::Instant) {
        out += ",\"dur\":";
        appendDec(out, e.dur);
    }
    switch (e.kind) {
      case Kind::Instant:
      case Kind::Span:
        if (e.count > 0) {
            out += ",\"args\":{\"detail\":\"";
            appendEscaped(out, std::string_view(text_).substr(
                                   e.arg, e.count));
            out += "\"}";
        }
        break;
      case Kind::Access:
        out += ",\"args\":{\"detail\":\"addr 0x";
        appendHex(out, e.arg);
        out += "\"}";
        break;
      case Kind::Bus:
        out += ",\"args\":{\"detail\":\"line 0x";
        appendHex(out, e.arg);
        out += " resp ";
        if (e.resp & kCh)
            out += "CH ";
        if (e.resp & kDi)
            out += "DI ";
        if (e.resp & kSl)
            out += "SL ";
        if (e.resp & kCache)
            out += "<- cache";
        if (e.count > 0) {
            out += " aborts ";
            appendDec(out, e.count);
        }
        out += "\"}";
        break;
    }
    out += '}';
}

std::string
PerfettoTraceSink::render() const
{
    // Process-name metadata first so Perfetto labels the track groups.
    static const struct { std::uint32_t pid; const char *name; } kPids[] =
        {{kTraceBusPid, "bus"},
         {kTraceEnginePid, "engine"},
         {kTraceFaultPid, "fault-ladder"},
         {kTraceCampaignPid, "campaign"}};
    // A bus event, the commonest and longest numeric one, renders in
    // about 110 bytes; details may double when escaped.
    std::string out;
    out.reserve(512 + 128 * events_.size() + 2 * text_.size());
    out += "{\"traceEvents\":[";
    bool first = true;
    for (const auto &p : kPids) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        appendDec(out, p.pid);
        out += ",\"tid\":0,\"args\":{\"name\":\"";
        out += p.name;
        out += "\"}}";
    }
    for (const Event &e : events_) {
        out += ',';
        renderEvent(out, e);
    }
    out += "]}";
    return out;
}

void
PerfettoTraceSink::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fbsim_fatal("trace: cannot open %s for writing", path.c_str());
    std::string doc = render();
    std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    if (n != doc.size() || std::fclose(f) != 0)
        fbsim_fatal("trace: short write to %s", path.c_str());
}

} // namespace fbsim
