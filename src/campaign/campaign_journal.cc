#include "campaign/campaign_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "common/logging.h"

namespace fbsim {

namespace {

constexpr char kMagic[] = "fbsim-campaign-journal";
// v2: records carry the job's metric snapshot (resumed rows must
// reproduce the metric blocks byte-identically).  v1 journals fail
// the header match and are treated as a different campaign's file.
// v3: records carry the job's SpecStats (the sweep table grows
// speculation columns when a job committed batches, and resumed rows
// must render them identically).
// v4: records carry scrubDivergence (hier jobs count bridge-filter
// entries repaired by the audit-and-scrub pass) and the bridge-site
// fault counters, and the fingerprint covers the cluster count (a
// hier campaign must not resume from a flat campaign's journal).
// v5: every record ends with the FNV-1a of its text, so a corrupted
// record is dropped - its job re-runs - instead of merged as a
// different result.  A journal of any other version fails with a
// version diagnostic.
constexpr char kVersion[] = "v5";

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over a byte string. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnvString(std::uint64_t h, const std::string &s)
{
    // Length-prefixed so {"ab","c"} and {"a","bc"} differ.
    std::uint64_t len = s.size();
    h = fnv1a(h, &len, sizeof len);
    return fnv1a(h, s.data(), s.size());
}

/** Sequential token parser; every getter fails sticky on bad input. */
class TokenReader
{
  public:
    explicit TokenReader(const std::string &line) : line_(line) {}

    /** A decimal token no larger than `max`. */
    bool
    u64(std::uint64_t &out, std::uint64_t max = ~0ull)
    {
        std::string tok;
        if (!next(tok) || tok.empty())
            return fail();
        std::uint64_t v = 0;
        for (char c : tok) {
            if (c < '0' || c > '9')
                return fail();
            std::uint64_t d = static_cast<std::uint64_t>(c - '0');
            if (v > (~0ull - d) / 10)
                return fail();
            v = v * 10 + d;
        }
        if (v > max)
            return fail();
        out = v;
        return true;
    }

    bool
    str(std::string &out)
    {
        std::string tok;
        if (!next(tok) || tok.empty())
            return fail();
        out.clear();
        if (tok == "-")
            return true;
        if (tok.size() % 2 != 0)
            return fail();
        for (std::size_t i = 0; i < tok.size(); i += 2) {
            int hi = hexDigit(tok[i]);
            int lo = hexDigit(tok[i + 1]);
            if (hi < 0 || lo < 0)
                return fail();
            out += static_cast<char>((hi << 4) | lo);
        }
        return true;
    }

    /** Consume one token and require it to equal `want`. */
    bool
    expect(const char *want)
    {
        std::string tok;
        if (!next(tok) || tok != want)
            return fail();
        return true;
    }

    bool atEnd()
    {
        skipSpaces();
        return ok_ && pos_ >= line_.size();
    }

    bool ok() const { return ok_; }

  private:
    static int
    hexDigit(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        return -1;
    }

    void
    skipSpaces()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ')
            ++pos_;
    }

    bool
    next(std::string &tok)
    {
        if (!ok_)
            return false;
        skipSpaces();
        std::size_t start = pos_;
        while (pos_ < line_.size() && line_[pos_] != ' ')
            ++pos_;
        tok.assign(line_, start, pos_ - start);
        return !tok.empty();
    }

    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    const std::string &line_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** walkRecord's encoding side: appends each field as one token. */
class RecordWriter
{
  public:
    std::string line;

    /** Unsigned numbers and bools, in decimal. */
    template <class... T>
    void
    operator()(const T &...v)
    {
        (number(static_cast<std::uint64_t>(v)), ...);
    }

    template <class E>
    void choice(const E &v, E) { (*this)(static_cast<std::uint64_t>(v)); }

    /** Strings travel as lowercase hex; "-" encodes the empty string. */
    void
    str(const std::string &s)
    {
        std::string hex = s.empty() ? "-" : "";
        static const char digits[] = "0123456789abcdef";
        for (unsigned char c : s) {
            hex += digits[c >> 4];
            hex += digits[c & 0xf];
        }
        put(hex);
    }

    /** count/sum/min/max, then sparse (bucket index, count) pairs. */
    void
    hist(const HistogramData &h)
    {
        std::uint64_t nonzero = 0;
        for (std::uint64_t b : h.buckets)
            nonzero += (b != 0);
        (*this)(h.count, h.sum, h.min, h.max, nonzero);
        for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
            if (h.buckets[i] != 0)
                (*this)(i, h.buckets[i]);
        }
    }

    void hist(const Histogram &h) { hist(h.data()); }

    /** The element count, then each element. */
    template <class T, class Fn>
    void
    list(const std::vector<T> &v, std::uint64_t, Fn each)
    {
        (*this)(v.size());
        for (const T &x : v)
            each(x);
    }

    void tag(const char *word) { put(word); }

    bool ok() const { return true; }

  private:
    void number(std::uint64_t v) { put(std::to_string(v)); }

    void
    put(const std::string &tok)
    {
        if (!line.empty())
            line += ' ';
        line += tok;
    }
};

/** walkRecord's decoding side: parses each field, range-checked;
 *  the first malformed token fails the rest of the walk. */
class RecordReader
{
  public:
    explicit RecordReader(const std::string &body) : t_(body) {}

    /** Unsigned numbers, and bools (0 or 1). */
    template <class... T>
    void
    operator()(T &...v)
    {
        (number(v), ...);
    }

    /** An enumerator no larger than `last`. */
    template <class E>
    void
    choice(E &v, E last)
    {
        std::uint64_t x = 0;
        if (t_.u64(x, static_cast<std::uint64_t>(last)))
            v = static_cast<E>(x);
    }

    void str(std::string &s) { t_.str(s); }

    void
    hist(HistogramData &h)
    {
        std::uint64_t nonzero = 0, idx = 0;
        (*this)(h.count, h.sum, h.min, h.max);
        t_.u64(nonzero, HistogramData::kBuckets);
        for (std::uint64_t i = 0; i < nonzero && t_.ok(); ++i) {
            if (t_.u64(idx, HistogramData::kBuckets - 1))
                (*this)(h.buckets[idx]);
        }
    }

    /** A fresh Histogram is empty, so merging the decoded data
     *  restores it exactly (min/max widen from the empty extremes). */
    void
    hist(Histogram &h)
    {
        HistogramData d;
        hist(d);
        if (t_.ok())
            h.merge(d);
    }

    /** At most `max` elements, each walked as it is appended. */
    template <class T, class Fn>
    void
    list(std::vector<T> &v, std::uint64_t max, Fn each)
    {
        std::uint64_t n = 0;
        t_.u64(n, max);
        v.clear();
        for (std::uint64_t i = 0; i < n && t_.ok(); ++i)
            each(v.emplace_back());
    }

    void tag(const char *word) { t_.expect(word); }

    bool ok() const { return t_.ok(); }
    bool atEnd() { return t_.atEnd(); }

  private:
    template <class T>
    void
    number(T &v)
    {
        std::uint64_t x = 0;
        if (t_.u64(x, std::is_same_v<T, bool> ? 1 : ~0ull))
            v = static_cast<T>(x);
    }

    TokenReader t_;
};

/**
 * The one description of a journal record: every CampaignResult field,
 * once, in token order.  With a RecordWriter (R = const
 * CampaignResult) it encodes; with a RecordReader it decodes and
 * range-checks.  False when the reader met a malformed token.
 */
template <class Io, class R>
bool
walkRecord(Io &io, R &r)
{
    io.tag("job");
    auto &j = r.job;
    io(j.index, j.mixIdx, j.geometryIdx, j.costIdx, j.workloadIdx,
       j.faultIdx, j.seed);

    auto &e = r.engine;
    io(e.elapsed, e.busBusy, e.faultedRefs, e.watchdogTrips,
       e.quarantines, e.reintegrations, e.cancelled);
    io.list(e.procs, 4096, [&io](auto &p) {
        io(p.refs, p.finishTime, p.execCycles, p.busWaitCycles,
           p.busServiceCycles);
    });

    auto &b = r.bus;
    io(b.transactions, b.reads, b.readsForModify, b.wordWrites,
       b.broadcastWrites, b.linePushes, b.invalidates, b.syncs,
       b.interventions, b.writeCaptures, b.aborts, b.spuriousAborts,
       b.droppedResponses, b.retryExhausted, b.responseConflicts,
       b.addressCycles, b.dataWords, b.busyCycles, b.backoffCycles);

    auto &c = r.cacheTotals;
    io(c.reads, c.writes, c.readHits, c.writeHits, c.readMisses,
       c.writeMisses, c.writeSharedBus, c.evictions, c.writebacks,
       c.invalidationsRecv, c.updatesRecv, c.interventions,
       c.writeCaptures, c.abortPushes, c.dirtyFills, c.faultedAccesses,
       c.illegalSnoops);

    auto &f = r.faults;
    io(f.spuriousAborts, f.stormAborts, f.memoryDelays, f.memoryDrops,
       f.dataFlips, f.responseFlips, f.snooperMutes, f.bridgeDrops,
       f.bridgeDelays, f.bridgeDups, f.filterStales, f.leafStalls);

    auto &sp = r.speculation;
    io(sp.batches, sp.specRefs, sp.rollbacks, sp.rolledBackRefs);
    io.hist(sp.batchLen);
    io.hist(sp.rollbackDepth);

    io(r.watchdogTrips, r.quarantines, r.reintegrations,
       r.scrubDivergence, r.consistent);
    io.choice(r.status, JobStatus::Failed);
    io(r.attempts);

    auto text = [&io](auto &s) { io.str(s); };
    io.list(r.violations, 1u << 20, text);
    io.list(r.faultEvents, 1u << 20, text);
    io.str(r.faultReport);
    io.str(r.failureReason);

    io.list(r.metrics.entries, 4096, [&io](auto &m) {
        io.str(m.name);
        io.choice(m.kind, MetricKind::Histogram);
        if (m.kind == MetricKind::Histogram)
            io.hist(m.hist);
        else
            io(m.value);
    });
    io.tag("end");
    return io.ok();
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t num_jobs)
{
    return strprintf("%s %s fp=%016llx jobs=%llu", kMagic, kVersion,
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(num_jobs));
}

/**
 * Whether `line`, a journal's unterminated first line, is a torn
 * prefix of this campaign's header: a kill during the header write.
 * Such a journal holds no checkpoint yet.  (The job count that ends
 * the header is not checked: the fingerprint covers it.)
 */
bool
tornHeader(const std::string &line, std::uint64_t fingerprint)
{
    const std::string want =
        strprintf("%s %s fp=%016llx jobs=", kMagic, kVersion,
                  static_cast<unsigned long long>(fingerprint));
    if (line.size() <= want.size())
        return want.compare(0, line.size(), line) == 0;
    return line.compare(0, want.size(), want) == 0 &&
           line.find_first_not_of("0123456789", want.size()) ==
               std::string::npos;
}

/** Die unless `line` is this version's header for `fingerprint`. */
void
requireHeader(const std::string &path, const std::string &line,
              std::uint64_t fingerprint)
{
    const std::string magic = strprintf("%s ", kMagic);
    if (line.compare(0, magic.size(), magic) == 0) {
        const std::string version = line.substr(
            magic.size(), line.find(' ', magic.size()) - magic.size());
        if (version != kVersion)
            fbsim_fatal("journal: %s is a %s journal; this build reads "
                        "%s only (start the campaign afresh)",
                        path.c_str(), version.c_str(), kVersion);
    }
    const std::string want =
        strprintf("%s%s fp=%016llx ", magic.c_str(), kVersion,
                  static_cast<unsigned long long>(fingerprint));
    if (line.compare(0, want.size(), want) != 0)
        fbsim_fatal("journal: %s belongs to a different campaign "
                    "(fingerprint mismatch)",
                    path.c_str());
}

/** Cut an unterminated final line off the `size`-byte file `fd`. */
void
cutTornTail(int fd, off_t size, const std::string &path)
{
    char buf[4096];
    for (off_t end = size; end > 0;) {
        const off_t start =
            std::max<off_t>(0, end - static_cast<off_t>(sizeof buf));
        if (::pread(fd, buf, static_cast<std::size_t>(end - start),
                    start) != end - start)
            fbsim_fatal("journal: cannot read %s: %s", path.c_str(),
                        std::strerror(errno));
        for (off_t i = end - start; i > 0; --i) {
            if (buf[i - 1] != '\n')
                continue;
            if (start + i != size && ::ftruncate(fd, start + i) != 0)
                fbsim_fatal("journal: cannot truncate %s: %s",
                            path.c_str(), std::strerror(errno));
            return;
        }
        end = start;
    }
}

/** The token that closes a record: the FNV-1a of the text before it. */
std::string
checksumToken(const std::string &line, std::size_t len)
{
    return strprintf("%016llx", static_cast<unsigned long long>(
                                    fnv1a(kFnvBasis, line.data(), len)));
}

} // namespace

std::uint64_t
campaignFingerprint(const CampaignSpec &spec)
{
    std::uint64_t h = kFnvBasis;
    std::uint64_t scalars[] = {spec.campaignSeed, spec.refsPerProc,
                               spec.numJobs(), spec.clusters};
    h = fnv1a(h, scalars, sizeof scalars);
    for (const ProtocolMix &m : spec.mixes) {
        h = fnvString(h, m.name);
        std::uint64_t slots = m.slots.size();
        h = fnv1a(h, &slots, sizeof slots);
    }
    for (const GeometryPoint &g : spec.geometries)
        h = fnvString(h, g.name);
    for (const CostPoint &c : spec.costs)
        h = fnvString(h, c.name);
    for (const WorkloadSpec &w : spec.workloads)
        h = fnvString(h, w.name);
    for (const FaultPoint &f : spec.faults)
        h = fnvString(h, f.name);
    return h;
}

std::string
encodeJournalRecord(const CampaignResult &r)
{
    RecordWriter out;
    walkRecord(out, r);
    return out.line + ' ' + checksumToken(out.line, out.line.size());
}

std::optional<CampaignResult>
decodeJournalRecord(const std::string &line)
{
    // FNV-1a changes with any one changed byte, so a record that
    // survived intact is the only one whose checksum matches.
    const std::size_t cut = line.rfind(' ');
    if (cut == std::string::npos ||
        line.compare(cut + 1, std::string::npos,
                     checksumToken(line, cut)) != 0)
        return std::nullopt;
    const std::string body = line.substr(0, cut);
    RecordReader in(body);
    CampaignResult r;
    if (!walkRecord(in, r) || !in.atEnd())
        return std::nullopt;
    return r;
}

CampaignJournal::CampaignJournal(const std::string &path,
                                 std::uint64_t fingerprint,
                                 std::size_t num_jobs)
    : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0)
        fbsim_fatal("journal: cannot open %s: %s", path.c_str(),
                    std::strerror(errno));
    off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size > 0) {
        std::ifstream in(path);
        std::string first;
        std::getline(in, first);
        if (!in.eof() || !tornHeader(first, fingerprint)) {
            // Appending to an existing journal: its header must match,
            // or we would be checkpointing one campaign into another's
            // file.
            requireHeader(path, first, fingerprint);
            // A torn final record (a kill mid-write) is no checkpoint;
            // cut it, or the next record would be appended onto it and
            // lost with it.
            cutTornTail(fd_, size, path);
            return;
        }
        // Only a torn header: start afresh.
        if (::ftruncate(fd_, 0) != 0)
            fbsim_fatal("journal: cannot truncate %s: %s", path.c_str(),
                        std::strerror(errno));
    }
    writeLine(headerLine(fingerprint, num_jobs));
}

CampaignJournal::~CampaignJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
CampaignJournal::writeLine(const std::string &line)
{
    std::string buf = line;
    buf += '\n';
    const char *p = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
        ssize_t n = ::write(fd_, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fbsim_fatal("journal: write to %s failed: %s",
                        path_.c_str(), std::strerror(errno));
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    // The record is a checkpoint only once it is on stable storage; a
    // torn write after a crash is dropped harmlessly by the loader.
    if (::fsync(fd_) != 0)
        fbsim_fatal("journal: fsync of %s failed: %s", path_.c_str(),
                    std::strerror(errno));
}

void
CampaignJournal::append(const CampaignResult &result)
{
    writeLine(encodeJournalRecord(result));
}

JournalContents
loadCampaignJournal(const std::string &path, std::uint64_t fingerprint)
{
    std::ifstream in(path);
    if (!in.is_open())
        return {};
    std::string line;
    if (!std::getline(in, line) ||
        (in.eof() && tornHeader(line, fingerprint)))
        return {};   // no header or a torn one: nothing checkpointed
    requireHeader(path, line, fingerprint);
    JournalContents out;
    while (std::getline(in, line)) {
        if (std::optional<CampaignResult> r = decodeJournalRecord(line))
            out.results.push_back(std::move(*r));
        else if (!in.eof())
            ++out.dropped;
        // Malformed or corrupted lines (the torn tail of a killed run,
        // a flipped digit) are simply not checkpoints; the jobs they
        // would have covered re-run.  Only a line that getline found
        // terminated is corruption: a kill tears the last line alone.
    }
    return out;
}

} // namespace fbsim
