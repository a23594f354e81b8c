#include "campaign/campaign_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

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

void
putU64(std::string &out, std::uint64_t v)
{
    out += ' ';
    out += strprintf("%llu", static_cast<unsigned long long>(v));
}

/** Strings travel as hex tokens; "-" encodes the empty string. */
void
putString(std::string &out, const std::string &s)
{
    out += ' ';
    if (s.empty()) {
        out += '-';
        return;
    }
    static const char digits[] = "0123456789abcdef";
    for (unsigned char c : s) {
        out += digits[c >> 4];
        out += digits[c & 0xf];
    }
}

/** Sequential token parser; every getter fails sticky on bad input. */
class TokenReader
{
  public:
    explicit TokenReader(const std::string &line) : line_(line) {}

    bool
    u64(std::uint64_t &out)
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

void
putStringVec(std::string &out, const std::vector<std::string> &v)
{
    putU64(out, v.size());
    for (const std::string &s : v)
        putString(out, s);
}

bool
getStringVec(TokenReader &r, std::vector<std::string> &out)
{
    std::uint64_t n = 0;
    if (!r.u64(n) || n > 1u << 20)
        return false;
    out.clear();
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string s;
        if (!r.str(s))
            return false;
        out.push_back(std::move(s));
    }
    return true;
}

std::string
headerLine(std::uint64_t fingerprint, std::size_t num_jobs)
{
    return strprintf("%s %s fp=%016llx jobs=%llu", kMagic, kVersion,
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(num_jobs));
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
    std::string out = "job";
    putU64(out, r.job.index);
    putU64(out, r.job.mixIdx);
    putU64(out, r.job.geometryIdx);
    putU64(out, r.job.costIdx);
    putU64(out, r.job.workloadIdx);
    putU64(out, r.job.faultIdx);
    putU64(out, r.job.seed);

    const EngineResult &e = r.engine;
    putU64(out, e.elapsed);
    putU64(out, e.busBusy);
    putU64(out, e.faultedRefs);
    putU64(out, e.watchdogTrips);
    putU64(out, e.quarantines);
    putU64(out, e.reintegrations);
    putU64(out, e.cancelled ? 1 : 0);
    putU64(out, e.procs.size());
    for (const ProcTiming &p : e.procs) {
        putU64(out, p.refs);
        putU64(out, p.finishTime);
        putU64(out, p.execCycles);
        putU64(out, p.busWaitCycles);
        putU64(out, p.busServiceCycles);
    }

    const BusStats &b = r.bus;
    putU64(out, b.transactions);
    putU64(out, b.reads);
    putU64(out, b.readsForModify);
    putU64(out, b.wordWrites);
    putU64(out, b.broadcastWrites);
    putU64(out, b.linePushes);
    putU64(out, b.invalidates);
    putU64(out, b.syncs);
    putU64(out, b.interventions);
    putU64(out, b.writeCaptures);
    putU64(out, b.aborts);
    putU64(out, b.spuriousAborts);
    putU64(out, b.droppedResponses);
    putU64(out, b.retryExhausted);
    putU64(out, b.responseConflicts);
    putU64(out, b.addressCycles);
    putU64(out, b.dataWords);
    putU64(out, b.busyCycles);
    putU64(out, b.backoffCycles);

    const CacheStats &c = r.cacheTotals;
    putU64(out, c.reads);
    putU64(out, c.writes);
    putU64(out, c.readHits);
    putU64(out, c.writeHits);
    putU64(out, c.readMisses);
    putU64(out, c.writeMisses);
    putU64(out, c.writeSharedBus);
    putU64(out, c.evictions);
    putU64(out, c.writebacks);
    putU64(out, c.invalidationsRecv);
    putU64(out, c.updatesRecv);
    putU64(out, c.interventions);
    putU64(out, c.writeCaptures);
    putU64(out, c.abortPushes);
    putU64(out, c.dirtyFills);
    putU64(out, c.faultedAccesses);
    putU64(out, c.illegalSnoops);

    const FaultStats &f = r.faults;
    putU64(out, f.spuriousAborts);
    putU64(out, f.stormAborts);
    putU64(out, f.memoryDelays);
    putU64(out, f.memoryDrops);
    putU64(out, f.dataFlips);
    putU64(out, f.responseFlips);
    putU64(out, f.snooperMutes);
    putU64(out, f.bridgeDrops);
    putU64(out, f.bridgeDelays);
    putU64(out, f.bridgeDups);
    putU64(out, f.filterStales);
    putU64(out, f.leafStalls);

    // Speculation counters + log2 histograms, same sparse bucket
    // encoding as the metric snapshot below.
    auto putHist = [&out](const HistogramData &h) {
        putU64(out, h.count);
        putU64(out, h.sum);
        putU64(out, h.min);
        putU64(out, h.max);
        std::uint64_t nonzero = 0;
        for (std::uint64_t b : h.buckets)
            nonzero += (b != 0);
        putU64(out, nonzero);
        for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
            if (h.buckets[i] != 0) {
                putU64(out, i);
                putU64(out, h.buckets[i]);
            }
        }
    };
    const SpecStats &sp = r.speculation;
    putU64(out, sp.batches);
    putU64(out, sp.specRefs);
    putU64(out, sp.rollbacks);
    putU64(out, sp.rolledBackRefs);
    putHist(sp.batchLen.data());
    putHist(sp.rollbackDepth.data());

    putU64(out, r.watchdogTrips);
    putU64(out, r.quarantines);
    putU64(out, r.reintegrations);
    putU64(out, r.scrubDivergence);
    putU64(out, r.consistent ? 1 : 0);
    putU64(out, static_cast<std::uint64_t>(r.status));
    putU64(out, r.attempts);

    putStringVec(out, r.violations);
    putStringVec(out, r.faultEvents);
    putString(out, r.faultReport);
    putString(out, r.failureReason);

    // Metric snapshot: name + kind + value per entry; histograms add
    // count/sum/min/max plus sparse (bucket index, count) pairs.
    putU64(out, r.metrics.entries.size());
    for (const MetricEntry &m : r.metrics.entries) {
        putString(out, m.name);
        putU64(out, static_cast<std::uint64_t>(m.kind));
        if (m.kind == MetricKind::Histogram) {
            putU64(out, m.hist.count);
            putU64(out, m.hist.sum);
            putU64(out, m.hist.min);
            putU64(out, m.hist.max);
            std::uint64_t nonzero = 0;
            for (std::uint64_t b : m.hist.buckets)
                nonzero += (b != 0);
            putU64(out, nonzero);
            for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
                if (m.hist.buckets[i] != 0) {
                    putU64(out, i);
                    putU64(out, m.hist.buckets[i]);
                }
            }
        } else {
            putU64(out, m.value);
        }
    }
    out += " end ";
    out += checksumToken(out, out.size() - 1);
    return out;
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
    TokenReader t(body);
    if (!t.expect("job"))
        return std::nullopt;
    CampaignResult r;
    std::uint64_t v = 0;
    auto u64 = [&](std::uint64_t &out) { return t.u64(out); };
    auto size = [&](std::size_t &out) {
        if (!t.u64(v))
            return false;
        out = static_cast<std::size_t>(v);
        return true;
    };
    auto boolean = [&](bool &out) {
        if (!t.u64(v) || v > 1)
            return false;
        out = v != 0;
        return true;
    };

    if (!size(r.job.index) || !size(r.job.mixIdx) ||
        !size(r.job.geometryIdx) || !size(r.job.costIdx) ||
        !size(r.job.workloadIdx) || !size(r.job.faultIdx) ||
        !u64(r.job.seed))
        return std::nullopt;

    EngineResult &e = r.engine;
    std::uint64_t nprocs = 0;
    if (!u64(e.elapsed) || !u64(e.busBusy) || !u64(e.faultedRefs) ||
        !u64(e.watchdogTrips) || !u64(e.quarantines) ||
        !u64(e.reintegrations) || !boolean(e.cancelled) ||
        !t.u64(nprocs) || nprocs > 4096)
        return std::nullopt;
    e.procs.resize(nprocs);
    for (ProcTiming &p : e.procs) {
        if (!u64(p.refs) || !u64(p.finishTime) || !u64(p.execCycles) ||
            !u64(p.busWaitCycles) || !u64(p.busServiceCycles))
            return std::nullopt;
    }

    BusStats &b = r.bus;
    if (!u64(b.transactions) || !u64(b.reads) ||
        !u64(b.readsForModify) || !u64(b.wordWrites) ||
        !u64(b.broadcastWrites) || !u64(b.linePushes) ||
        !u64(b.invalidates) || !u64(b.syncs) || !u64(b.interventions) ||
        !u64(b.writeCaptures) || !u64(b.aborts) ||
        !u64(b.spuriousAborts) || !u64(b.droppedResponses) ||
        !u64(b.retryExhausted) || !u64(b.responseConflicts) ||
        !u64(b.addressCycles) || !u64(b.dataWords) ||
        !u64(b.busyCycles) || !u64(b.backoffCycles))
        return std::nullopt;

    CacheStats &c = r.cacheTotals;
    if (!u64(c.reads) || !u64(c.writes) || !u64(c.readHits) ||
        !u64(c.writeHits) || !u64(c.readMisses) ||
        !u64(c.writeMisses) || !u64(c.writeSharedBus) ||
        !u64(c.evictions) || !u64(c.writebacks) ||
        !u64(c.invalidationsRecv) || !u64(c.updatesRecv) ||
        !u64(c.interventions) || !u64(c.writeCaptures) ||
        !u64(c.abortPushes) || !u64(c.dirtyFills) ||
        !u64(c.faultedAccesses) || !u64(c.illegalSnoops))
        return std::nullopt;

    FaultStats &f = r.faults;
    if (!u64(f.spuriousAborts) || !u64(f.stormAborts) ||
        !u64(f.memoryDelays) || !u64(f.memoryDrops) ||
        !u64(f.dataFlips) || !u64(f.responseFlips) ||
        !u64(f.snooperMutes) || !u64(f.bridgeDrops) ||
        !u64(f.bridgeDelays) || !u64(f.bridgeDups) ||
        !u64(f.filterStales) || !u64(f.leafStalls))
        return std::nullopt;

    auto hist = [&](Histogram &out) {
        HistogramData h;
        std::uint64_t nonzero = 0;
        if (!u64(h.count) || !u64(h.sum) || !u64(h.min) ||
            !u64(h.max) || !t.u64(nonzero) ||
            nonzero > HistogramData::kBuckets)
            return false;
        for (std::uint64_t i = 0; i < nonzero; ++i) {
            std::uint64_t idx = 0, count = 0;
            if (!t.u64(idx) || idx >= HistogramData::kBuckets ||
                !t.u64(count))
                return false;
            h.buckets[idx] = count;
        }
        // A fresh Histogram is empty, so merging the decoded data
        // restores it exactly (min/max widen from the empty extremes).
        out.merge(h);
        return true;
    };
    SpecStats &sp = r.speculation;
    if (!u64(sp.batches) || !u64(sp.specRefs) || !u64(sp.rollbacks) ||
        !u64(sp.rolledBackRefs) || !hist(sp.batchLen) ||
        !hist(sp.rollbackDepth))
        return std::nullopt;

    std::uint64_t status = 0, attempts = 0;
    if (!u64(r.watchdogTrips) || !u64(r.quarantines) ||
        !u64(r.reintegrations) || !u64(r.scrubDivergence) ||
        !boolean(r.consistent) ||
        !t.u64(status) || status > 2 || !t.u64(attempts))
        return std::nullopt;
    r.status = static_cast<JobStatus>(status);
    r.attempts = static_cast<unsigned>(attempts);

    if (!getStringVec(t, r.violations) ||
        !getStringVec(t, r.faultEvents) || !t.str(r.faultReport) ||
        !t.str(r.failureReason))
        return std::nullopt;

    std::uint64_t nmetrics = 0;
    if (!t.u64(nmetrics) || nmetrics > 4096)
        return std::nullopt;
    r.metrics.entries.resize(nmetrics);
    for (MetricEntry &m : r.metrics.entries) {
        std::uint64_t kind = 0;
        if (!t.str(m.name) || !t.u64(kind) || kind > 2)
            return std::nullopt;
        m.kind = static_cast<MetricKind>(kind);
        if (m.kind == MetricKind::Histogram) {
            std::uint64_t nonzero = 0;
            if (!u64(m.hist.count) || !u64(m.hist.sum) ||
                !u64(m.hist.min) || !u64(m.hist.max) ||
                !t.u64(nonzero) || nonzero > HistogramData::kBuckets)
                return std::nullopt;
            for (std::uint64_t i = 0; i < nonzero; ++i) {
                std::uint64_t idx = 0, count = 0;
                if (!t.u64(idx) || idx >= HistogramData::kBuckets ||
                    !t.u64(count))
                    return std::nullopt;
                m.hist.buckets[idx] = count;
            }
        } else {
            if (!u64(m.value))
                return std::nullopt;
        }
    }
    if (!t.expect("end") || !t.atEnd())
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
    if (size == 0) {
        writeLine(headerLine(fingerprint, num_jobs));
        return;
    }
    // Appending to an existing journal: its header must match, or we
    // would be checkpointing one campaign into another's file.
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    requireHeader(path, first, fingerprint);
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
    if (!std::getline(in, line))
        return {};   // torn header: nothing checkpointed yet
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
