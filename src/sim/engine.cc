#include "sim/engine.h"

#include <algorithm>

#include "bus/arbiter.h"
#include "common/logging.h"
#include "obs/latency.h"
#include "obs/trace_sink.h"

namespace fbsim {

double
EngineResult::systemPower() const
{
    double sum = 0.0;
    for (const ProcTiming &p : procs)
        sum += p.utilization();
    return sum;
}

double
EngineResult::meanUtilization() const
{
    return procs.empty() ? 0.0 : systemPower() / procs.size();
}

double
EngineResult::busServiceFairness() const
{
    std::vector<double> xs;
    xs.reserve(procs.size());
    for (const ProcTiming &p : procs)
        xs.push_back(static_cast<double>(p.busServiceCycles));
    return jainFairnessIndex(xs);
}

double
EngineResult::busWaitFairness() const
{
    std::vector<double> xs;
    xs.reserve(procs.size());
    for (const ProcTiming &p : procs)
        xs.push_back(static_cast<double>(p.busWaitCycles));
    return jainFairnessIndex(xs);
}

Engine::Engine(Fabric &system, const EngineConfig &config)
    : system_(system), config_(config)
{
}

bool
Engine::specEligible() const
{
    for (std::size_t i = 0; i < system_.numClients(); ++i) {
        const SnoopingCache *c =
            system_.cacheOf(static_cast<MasterId>(i));
        if (c == nullptr || !c->specEligible())
            return false;
    }
    return true;
}

AccessOutcome
Engine::access(EngineResult &result, std::size_t proc, const ProcRef &ref,
               std::uint64_t &seq)
{
    const MasterId id = static_cast<MasterId>(proc);
    const AccessOutcome outcome =
        ref.write ? system_.write(id, ref.addr, writeValue(proc, ++seq))
                  : system_.read(id, ref.addr);
    if (outcome.faulted)
        ++result.faultedRefs;
    if (config_.accessLog)
        config_.accessLog->push_back({id, ref.write, ref.addr});
    return outcome;
}

Cycles
Engine::billBus(EngineResult &result, std::size_t proc, const ProcRef &ref,
                Cycles readyAt, Cycles start, const AccessOutcome &outcome)
{
    const Cycles wait = start - readyAt;
    ProcTiming &timing = result.procs[proc];
    timing.busWaitCycles += wait;
    timing.busServiceCycles += outcome.busCycles;
    result.busBusy += outcome.busCycles;
    const auto tid = static_cast<std::uint32_t>(proc);
    if (config_.latency)
        config_.latency->recordWait(tid, wait);
    if (config_.trace) {
        if (wait > 0) {
            config_.trace->onSpan("arb-wait", kTraceEnginePid, tid,
                                  readyAt, wait, std::nullopt);
        }
        config_.trace->onSpan(ref.write ? "write" : "read",
                              kTraceEnginePid, tid, start,
                              outcome.busCycles, ref.addr);
    }
    return start + outcome.busCycles;
}

void
Engine::finish(EngineResult &result) const
{
    for (const ProcTiming &p : result.procs)
        result.elapsed = std::max(result.elapsed, p.finishTime);
    result.watchdogTrips = system_.watchdogTrips();
    result.quarantines = system_.quarantineCount();
    result.reintegrations = system_.reintegrationCount();
}

EngineResult
Engine::run(const std::vector<RefStream *> &streams,
            std::uint64_t refs_per_proc, const RunControl *control)
{
    fbsim_assert(streams.size() == system_.numClients());
    fbsim_assert(!streams.empty());
    // Per-access machinery (fault injection, per-access checking,
    // scheduled reintegrations) observes the exact global access
    // order, and a tree of buses needs the tree rule: only the
    // interleaved loop provides them.  Strict and PerLine are policies
    // of the speculative loop, which needs every client to support
    // undoable local execution.
    if (system_.numLeafBuses() == 0 && system_.plainAccessPath() &&
        config_.ordering != EngineOrdering::Interleaved && specEligible())
        return runSpeculative(streams, refs_per_proc, control);
    return runInterleaved(streams, refs_per_proc, control);
}

EngineResult
Engine::runInterleaved(const std::vector<RefStream *> &streams,
                       std::uint64_t refs_per_proc,
                       const RunControl *control)
{
    std::size_t n = streams.size();

    struct ProcState
    {
        Cycles readyAt = 0;
        std::uint64_t done = 0;
        bool hasRef = false;
        ProcRef ref;
    };
    std::vector<ProcState> procs(n);
    EngineResult result;
    result.procs.resize(n);

    // Compact mirror of each proc's next-ready time, scanned once per
    // executed reference; a drained stream parks at the sentinel so
    // the scan needs no separate hasRef test.
    constexpr Cycles kIdle = ~Cycles{0};
    std::vector<Cycles> ready(n, 0);

    auto fetch = [&](std::size_t i) {
        if (!procs[i].hasRef && procs[i].done < refs_per_proc) {
            procs[i].ref = streams[i]->next();
            procs[i].hasRef = true;
        }
        ready[i] = procs[i].hasRef ? procs[i].readyAt : kIdle;
    };
    for (std::size_t i = 0; i < n; ++i)
        fetch(i);

    std::vector<std::uint64_t> seq(n, 0);

    // Proc i's reference is done and its next ready time set.
    auto retire = [&](std::size_t i) {
        ProcState &p = procs[i];
        ProcTiming &timing = result.procs[i];
        timing.refs += 1;
        timing.execCycles += kHitCycles;
        timing.finishTime = p.readyAt;
        p.hasRef = false;
        p.done += 1;
        fetch(i);
    };

    // The flat rule's state: one bus and its arbiter.
    Arbiter arbiter(n);
    Cycles bus_free = 0;

    auto execute = [&](std::size_t i, Cycles start) {
        ProcState &p = procs[i];
        const AccessOutcome outcome = access(result, i, p.ref, seq[i]);
        if (outcome.usedBus) {
            bus_free = billBus(result, i, p.ref, p.readyAt, start, outcome);
            p.readyAt = bus_free + kHitCycles;
        } else {
            p.readyAt += kHitCycles;
        }
        retire(i);
    };

    // The tree rule's state (see the file comment): each leaf bus
    // with its free time and its occupancy before the current access,
    // and the root's free time.
    struct Leaf
    {
        const Bus *bus = nullptr;
        Cycles free = 0;
        Cycles before = 0;
    };
    std::vector<Leaf> leaves(system_.numLeafBuses());
    for (std::size_t c = 0; c < leaves.size(); ++c)
        leaves[c].bus = &system_.leafBus(c);
    Cycles root_free = 0;

    auto serveTree = [&](std::size_t i) {
        ProcState &p = procs[i];
        const MasterId id = static_cast<MasterId>(i);
        const std::size_t home = system_.boardOf(id);
        Cycles start = p.readyAt;
        // Root involvement is unknown before the access, so only the
        // home leaf is waited for here.
        if (system_.wouldUseBus(id, p.ref.write, p.ref.addr))
            start = std::max(start, leaves[home].free);

        for (Leaf &leaf : leaves)
            leaf.before = leaf.bus->stats().busyCycles;
        const Cycles root_before = system_.rootBus().stats().busyCycles;
        access(result, i, p.ref, seq[i]);

        const Cycles root_delta =
            system_.rootBus().stats().busyCycles - root_before;
        if (root_delta > 0)
            start = std::max(start, root_free);
        Cycles home_delta = 0;
        for (std::size_t c = 0; c < leaves.size(); ++c) {
            Leaf &leaf = leaves[c];
            const Cycles delta = leaf.bus->stats().busyCycles - leaf.before;
            if (delta == 0)
                continue;
            leaf.free = std::max(leaf.free, start + delta);
            if (c == home)
                home_delta = delta;
        }
        if (root_delta > 0) {
            root_free = start + root_delta;
            result.busBusy += root_delta;
        }

        if (home_delta > 0 || root_delta > 0) {
            ProcTiming &timing = result.procs[i];
            timing.busWaitCycles += start - p.readyAt;
            timing.busServiceCycles += home_delta;
            p.readyAt =
                start + std::max(home_delta, root_delta) + kHitCycles;
        } else {
            p.readyAt += kHitCycles;
        }
        retire(i);
    };

    // Cooperative cancellation: poll the supervisor between
    // references, amortized so the steady-clock read stays off the
    // per-reference path.
    std::uint64_t untilCheck =
        control ? std::max<std::uint64_t>(1, control->checkEveryRefs)
                : 0;
    std::uint64_t executed = 0;

    for (;;) {
        if (control && ++executed >= untilCheck) {
            executed = 0;
            if (control->shouldStop()) {
                result.cancelled = true;
                break;
            }
        }
        // Earliest pending reference.
        std::size_t imin = 0;
        for (std::size_t i = 1; i < n; ++i) {
            if (ready[i] < ready[imin])
                imin = i;
        }
        if (ready[imin] == kIdle)
            break;
        if (!leaves.empty()) {
            serveTree(imin);
            continue;
        }

        ProcState &p = procs[imin];
        bool needs_bus = system_.wouldUseBus(static_cast<MasterId>(imin),
                                             p.ref.write, p.ref.addr);
        if (!needs_bus) {
            // Local work never waits for the bus.
            execute(imin, p.readyAt);
            continue;
        }

        // Bus transaction: grant at max(bus free, requester ready);
        // everyone who is also ready by then competes in arbitration.
        // The arbiter probes candidates lazily in its own scan order,
        // so only masters up to the winner pay the cache-state lookup;
        // imin is known to be ready and bus-bound already.
        Cycles grant = std::max(bus_free, p.readyAt);
        std::optional<MasterId> winner =
            arbiter.grantWhere([&](std::size_t i) {
                return i == imin ||
                       (ready[i] <= grant &&
                        system_.wouldUseBus(static_cast<MasterId>(i),
                                            procs[i].ref.write,
                                            procs[i].ref.addr));
            });
        fbsim_assert(winner.has_value());
        std::size_t w = *winner;
        execute(w, std::max(bus_free, procs[w].readyAt));
    }

    finish(result);
    return result;
}

EngineResult
Engine::runSpeculative(const std::vector<RefStream *> &streams,
                       std::uint64_t refs_per_proc,
                       const RunControl *control)
{
    const std::size_t n = streams.size();
    constexpr Cycles hit = kHitCycles;
    constexpr Cycles kIdle = ~Cycles{0};
    constexpr std::uint64_t kFetchBatch = 64;
    // Committed prefix length at which a window's buffers compact.
    constexpr std::uint64_t kCompactAt = 256;
    // PerLine's commit-on-drain policy (see EngineOrdering); its
    // commits leave the speculation counters alone.
    const bool perLine = config_.ordering == EngineOrdering::PerLine;
    SpecStats *const specStats = perLine ? nullptr : config_.specStats;

    /**
     * Per-processor speculation state.  Reference positions are
     * per-processor indices g in [0, refs_per_proc); the functional
     * (interleaved) order of reference g is keyed by (startOf(g),
     * proc), where startOf(g) = rBase + (g - runStart) * hit - the
     * instant the interleaved loop would begin it.  Invariants:
     * bufBase <= commitPos <= execPos <= fetched, runStart <=
     * commitPos, and every reference in [commitPos, execPos) executed
     * speculatively: its frame is recorded, and a write's value is in
     * the oracle with its one undo record here.
     */
    struct PendWrite
    {
        std::uint64_t g;   ///< absolute index of the speculated write
        Word old;          ///< the oracle word it overwrote
        SnoopingCache::SpecUndo undo;   ///< what it overwrote in the cache
    };
    struct SpecProc
    {
        /** Fetched refs [bufBase, fetched) at the front; the rest is
         *  spare room the fetches write into, so a fetch never
         *  value-initializes a slot. */
        std::vector<ProcRef> buf;
        /** Frame each executed ref hit, parallel to buf: the deferred
         *  replacement touches commitRange applies. */
        std::vector<std::uint32_t> frames;
        /** The window's speculated writes, in order; the prefix below
         *  pendHead is committed.  Lets the commit, rollback and
         *  conflict paths walk only writes instead of re-scanning the
         *  whole buffer. */
        std::vector<PendWrite> pendWrites;
        std::size_t pendHead = 0;
        std::uint64_t bufBase = 0;   ///< g of buf[0]
        std::uint64_t fetched = 0;   ///< g past the last buffered ref
        std::uint64_t commitPos = 0; ///< refs below are permanent
        std::uint64_t execPos = 0;   ///< refs below executed
        std::uint64_t seqExec = 0;   ///< write counter at execPos
        std::uint64_t runStart = 0;  ///< g whose start time is rBase
        Cycles rBase = 0;
        std::uint64_t sig = 0;   ///< line-hash OR over open window
        std::uint64_t sigW = 0;  ///< same, over speculated writes only
        bool parked = false;     ///< next ref needs the bus
        bool paused = false;     ///< mismatch awaiting adjudication
        std::uint64_t pausePos = 0; ///< g of the paused read
        Addr pauseAddr = 0;
        Word pauseGot = 0;
    };

    std::vector<SpecProc> procs(n);
    std::vector<SnoopingCache *> caches(n);
    unsigned line_shift = 0;
    for (std::size_t i = 0; i < n; ++i) {
        caches[i] = system_.cacheOf(static_cast<MasterId>(i));
        fbsim_assert(caches[i] != nullptr);
    }
    line_shift = static_cast<unsigned>(
        std::countr_zero(caches[0]->lineBytes()));

    EngineResult result;
    result.procs.resize(n);
    Arbiter arbiter(n);
    Cycles bus_free = 0;

    CoherenceChecker &ck = system_.checker();
    {
        // Pre-size the oracle for the expected distinct-word footprint
        // so steady state pays no incremental rehashes.
        std::uint64_t guess = n * refs_per_proc / 2;
        ck.reserveOracle(static_cast<std::size_t>(std::clamp<
            std::uint64_t>(guess, std::uint64_t{1} << 10,
                           std::uint64_t{1} << 20)));
    }

    // Conflict notification: each transaction reports which caches'
    // copies it mutated, on which lines (word-granular for captured
    // foreign writes with the state unchanged).  Every snooper on the
    // bus is one of these caches (specEligible() admits no other
    // client), so wiring the log into each of them sees every
    // mutation; the guard detaches it on every exit.
    std::vector<SpecConflict> conflicts;
    const std::uint64_t word_mask =
        (caches[0]->lineBytes() / kWordBytes) - 1;
    // Procs whose state a transaction changed (the winner plus every
    // rolled-back proc): the only ones a re-drain can advance, since
    // everyone else is still parked, paused or exhausted.
    std::vector<std::uint8_t> redrain(n, 0);
    struct LogGuard
    {
        const std::vector<SnoopingCache *> &caches;
        ~LogGuard()
        {
            for (SnoopingCache *c : caches)
                c->setSpecConflictLog(nullptr);
        }
    } guard{caches};
    for (SnoopingCache *c : caches)
        c->setSpecConflictLog(&conflicts);

    bool stop = false;
    const std::uint64_t pollEvery =
        control ? std::max<std::uint64_t>(1, control->checkEveryRefs)
                : 0;

    auto sigBit = [](LineAddr la) {
        return std::uint64_t{1}
               << ((la * 0x9e3779b97f4a7c15ull) >> 58);
    };
    auto startOf = [&](const SpecProc &p, std::uint64_t g) {
        return p.rBase + (g - p.runStart) * hit;
    };

    /**
     * Speculatively execute proc i's run of local hits until it parks
     * (bus-bound ref), pauses (Strict: a read mismatch needing
     * in-order adjudication), exhausts its stream, or the supervisor
     * stops the run.  Touches only proc-i state (its stream, buffer,
     * pending writes and cache), oracle words of lines its cache holds
     * exclusively, and the stop flag.  A speculated write stores
     * its value into the oracle at once: its line is M or E (the
     * exclusivity gate), so no other processor can read the word
     * before the next bus transaction on the line, which first commits
     * or rolls the write back.
     */
    auto drainOne = [&](std::size_t i) {
        SpecProc &p = procs[i];
        if (p.parked || p.paused)
            return;
        SnoopingCache &c = *caches[i];
        RefStream &stream = *streams[i];
        std::uint64_t sincePoll = 0;
        // Hot per-ref state lives in locals (written back on every
        // exit path below): the cache calls alias `p` through the
        // enclosing frame, so member accesses would reload each
        // iteration.
        std::uint64_t sig = p.sig;
        std::uint64_t sigW = p.sigW;
        std::uint64_t g = p.execPos;
        std::uint64_t fetched = p.fetched;
        std::uint64_t seqExec = p.seqExec;
        const std::uint64_t bufBase = p.bufBase;
        const ProcRef *buf = p.buf.data();
        std::uint32_t *frames = p.frames.data();
        // Oracle slab memo, so a run of same-line hits verifies with
        // one indexed load each.  Only this drain's own writes can
        // allocate (and so move) slabs, and each one re-points it.
        LineAddr oLa = ~LineAddr{0};
        const Word *oWords = nullptr;
        while (g < refs_per_proc) {
            if (pollEvery && ++sincePoll >= pollEvery) {
                sincePoll = 0;
                if (stop || control->shouldStop()) {
                    stop = true;
                    break;
                }
            }
            if (g == fetched) {
                const std::uint64_t batch = std::min<std::uint64_t>(
                    kFetchBatch, refs_per_proc - fetched);
                const std::size_t at = fetched - bufBase;
                if (at + batch > p.buf.size()) {
                    // The buffers only grow, geometrically; slots past
                    // `fetched` are scratch the next fetch overwrites.
                    const std::size_t cap = std::max<std::size_t>(
                        2 * p.buf.size(), at + kFetchBatch);
                    p.buf.resize(cap);
                    p.frames.resize(cap);
                    buf = p.buf.data();
                    frames = p.frames.data();
                }
                stream.nextBatch(p.buf.data() + at, batch);
                fetched += batch;
            }
            const ProcRef ref = buf[g - bufBase];
            std::uint32_t &frame = frames[g - bufBase];
            const LineAddr la = ref.addr >> line_shift;
            const std::size_t wi = (ref.addr / kWordBytes) & word_mask;
            if (ref.write) {
                const Word value = writeValue(i, seqExec + 1);
                SnoopingCache::SpecUndo undo;
                if (!c.specLocalWrite(ref.addr, value, frame, undo)) {
                    p.parked = true;
                    break;
                }
                ++seqExec;
                Word *slab = ck.oracleLine(la);
                p.pendWrites.push_back({g, slab[wi], undo});
                slab[wi] = value;
                oLa = la;
                oWords = slab;
                const std::uint64_t b = sigBit(la);
                sig |= b;
                sigW |= b;
                ++g;
            } else {
                Word got = 0;
                if (!c.specLocalRead(ref.addr, got, frame)) {
                    p.parked = true;
                    break;
                }
                sig |= sigBit(la);
                ++g;
                if (la != oLa) {
                    oLa = la;
                    oWords = ck.expectedLine(la);
                }
                if (got != (oWords ? oWords[wi] : 0)) {
                    if (perLine) {
                        // Every other window is committed, so the
                        // oracle is exact: record it here.
                        system_.recordReadMismatch(ref.addr, got);
                        continue;
                    }
                    // The oracle already holds this proc's own writes,
                    // so this is a mismatch candidate: its violation
                    // string must be rendered at the exact functional
                    // instant, so stop here and let the serialization
                    // loop adjudicate in order.
                    p.paused = true;
                    p.pausePos = g - 1;
                    p.pauseAddr = ref.addr;
                    p.pauseGot = got;
                    break;
                }
            }
        }
        // Batched hit counters: one adjustment per drained run instead
        // of two increments per reference (specLocal* leave stats
        // alone by contract).
        const auto dw = static_cast<std::int64_t>(seqExec - p.seqExec);
        c.specCountHits(static_cast<std::int64_t>(g - p.execPos) - dw, dw);
        p.execPos = g;
        p.fetched = fetched;
        p.seqExec = seqExec;
        p.sig = sig;
        p.sigW = sigW;
    };

    /**
     * Per-proc commit cut for the functional instant C = (tc, qc):
     * the first position g >= commitPos whose (startOf(g), i) is not
     * lexicographically before C, clamped to execPos.  tc == kIdle
     * means "commit everything executed".
     */
    auto cutFor = [&](std::size_t i, Cycles tc, std::size_t qc) {
        SpecProc &p = procs[i];
        if (tc == kIdle)
            return p.execPos;
        // Walk forward from the committed frontier; the steps taken
        // are exactly the refs about to commit, so the cost amortizes
        // to one compare per committed ref.  (A closed form costs a
        // 64-bit division per call, which measured slower: most calls
        // commit only a few refs.)
        std::uint64_t cut = p.commitPos;
        Cycles s = startOf(p, cut);
        while (cut < p.execPos && (s < tc || (s == tc && i < qc))) {
            ++cut;
            s += hit;
        }
        return cut;
    };

    /**
     * Functional-order log staging: the committed ranges of different
     * processors interleave in time, so commitRange buffers entries
     * with their start instants and each serialization point flushes
     * them merged by (start, proc) - reproducing the interleaved
     * loop's access log byte-for-byte.
     */
    struct LogEntry
    {
        Cycles start;
        std::uint32_t proc;
        EngineAccess acc;
    };
    std::vector<LogEntry> logScratch;
    auto flushLog = [&] {
        if (logScratch.empty())
            return;
        std::stable_sort(logScratch.begin(), logScratch.end(),
                         [](const LogEntry &a, const LogEntry &b) {
                             return a.start != b.start
                                        ? a.start < b.start
                                        : a.proc < b.proc;
                         });
        for (const LogEntry &e : logScratch)
            config_.accessLog->push_back(e.acc);
        logScratch.clear();
    };

    /** Make proc i's speculated prefix below `cut` permanent: the
     *  replacement touches and the access log, in reference order
     *  (the oracle already holds its writes). */
    auto commitRange = [&](std::size_t i, std::uint64_t cut) {
        SpecProc &p = procs[i];
        if (cut <= p.commitPos)
            return;
        std::size_t h = p.pendHead;
        while (h < p.pendWrites.size() && p.pendWrites[h].g < cut)
            ++h;
        p.pendHead = h;
        if (config_.accessLog) {
            Cycles s = startOf(p, p.commitPos);
            for (std::uint64_t g = p.commitPos; g < cut;
                 ++g, s += hit) {
                const ProcRef &r = p.buf[g - p.bufBase];
                logScratch.push_back(
                    {s, static_cast<std::uint32_t>(i),
                     {static_cast<MasterId>(i), r.write, r.addr}});
            }
        }
        if (specStats) {
            ++specStats->batches;
            specStats->specRefs += cut - p.commitPos;
            specStats->batchLen.record(cut - p.commitPos);
        }
        caches[i]->specCommit(p.frames.data() + (p.commitPos - p.bufBase),
                              cut - p.commitPos);
        p.commitPos = cut;
        if (p.commitPos == p.execPos) {
            p.sig = 0;
            p.sigW = 0;
            p.pendWrites.clear();
            p.pendHead = 0;
        } else if (p.pendHead >= kCompactAt &&
                   p.pendHead * 2 >= p.pendWrites.size()) {
            p.pendWrites.erase(
                p.pendWrites.begin(),
                p.pendWrites.begin() +
                    static_cast<std::ptrdiff_t>(p.pendHead));
            p.pendHead = 0;
        }
        if (p.commitPos - p.bufBase >= kCompactAt) {
            // Slide the live refs [commitPos, fetched) to the front;
            // the buffers keep their size.
            const auto dead =
                static_cast<std::ptrdiff_t>(p.commitPos - p.bufBase);
            const auto live =
                static_cast<std::ptrdiff_t>(p.fetched - p.bufBase);
            std::copy(p.buf.begin() + dead, p.buf.begin() + live,
                      p.buf.begin());
            std::copy(p.frames.begin() + dead, p.frames.begin() + live,
                      p.frames.begin());
            p.bufBase = p.commitPos;
        }
    };

    /** Undo proc i's speculated suffix [k, execPos): each write's
     *  oracle word and cache word and state, newest first, then the
     *  hit counters and the write counter; the refs replay on the
     *  next drain with byte-identical values, and their touches were
     *  never applied. */
    auto rollbackTo = [&](std::size_t i, std::uint64_t k) {
        SpecProc &p = procs[i];
        SnoopingCache &c = *caches[i];
        fbsim_assert(k >= p.commitPos && k < p.execPos);
        std::uint64_t undone = p.execPos - k;
        std::uint64_t writes = 0;
        while (p.pendWrites.size() > p.pendHead &&
               p.pendWrites.back().g >= k) {
            const PendWrite &w = p.pendWrites.back();
            const Addr a = p.buf[w.g - p.bufBase].addr;
            ck.oracleLine(a >> line_shift)[(a / kWordBytes) & word_mask] =
                w.old;
            c.specRestore(w.undo);
            p.pendWrites.pop_back();
            ++writes;
        }
        p.seqExec -= writes;
        c.specCountHits(-static_cast<std::int64_t>(undone - writes),
                        -static_cast<std::int64_t>(writes));
        p.execPos = k;
        p.parked = false;
        p.paused = false;   // a rolled-back pause re-adjudicates
        redrain[i] = 1;
        if (specStats) {
            ++specStats->rollbacks;
            specStats->rolledBackRefs += undone;
            specStats->rollbackDepth.record(undone);
        }
    };

    /** First open-window ref of proc i touching line `la` - narrowed
     *  to one word when `word` >= 0 - or execPos when none (sig
     *  pre-filters callers). */
    auto firstTouch = [&](std::size_t i, LineAddr la,
                          std::int32_t word) {
        SpecProc &p = procs[i];
        for (std::uint64_t g = p.commitPos; g < p.execPos; ++g) {
            const Addr a = p.buf[g - p.bufBase].addr;
            if ((a >> line_shift) != la)
                continue;
            if (word < 0 ||
                ((a / kWordBytes) & word_mask) ==
                    static_cast<std::uint64_t>(word))
                return g;
        }
        return p.execPos;
    };

    /** drainOne; under PerLine the drained run commits at once, so
     *  no window is ever open at a serialization point. */
    auto drain = [&](std::size_t i) {
        drainOne(i);
        if (perLine) {
            commitRange(i, procs[i].execPos);
            flushLog();
        }
    };

    // --- Round 1: every processor's first run of local hits.
    for (std::size_t i = 0; i < n; ++i)
        drain(i);

    // --- Serialization loop.  Each iteration resolves the earliest
    // outstanding functional event: a paused read's adjudication or
    // the next bus transaction, both at the exact instant the
    // interleaved loop would reach them.
    std::uint64_t sincePoll = 0;
    while (!stop) {
        Cycles tstar = kIdle;
        std::size_t pv = 0;
        Cycles tm = kIdle;
        std::size_t qp = 0;
        bool anyPause = false;
        for (std::size_t i = 0; i < n; ++i) {
            SpecProc &p = procs[i];
            if (p.parked) {
                Cycles t = startOf(p, p.execPos);
                if (t < tstar) {
                    tstar = t;
                    pv = i;
                }
            } else if (p.paused) {
                Cycles t = startOf(p, p.pausePos);
                if (!anyPause || t < tm) {
                    anyPause = true;
                    tm = t;
                    qp = i;
                }
            }
        }
        if (tstar == kIdle && !anyPause)
            break;   // every stream exhausted

        if (pollEvery && ++sincePoll >= pollEvery) {
            sincePoll = 0;
            if (control->shouldStop()) {
                stop = true;
                break;
            }
        }

        if (anyPause &&
            (tstar == kIdle || tm < tstar || (tm == tstar && qp < pv))) {
            // Adjudicate the earliest pending mismatch at C = (tm,
            // qp): commit everything functionally before it, roll
            // back everything at or after it (except the paused read
            // itself, which stays in the window and commits later),
            // and re-check the value against the now-exact oracle.
            // Recording through the system here renders the identical
            // violation string the interleaved loop would have - or
            // none, when the apparent mismatch was only commit lag.
            for (std::size_t i = 0; i < n; ++i)
                commitRange(i, cutFor(i, tm, qp));
            flushLog();
            for (std::size_t i = 0; i < n; ++i) {
                if (i != qp && procs[i].commitPos < procs[i].execPos)
                    rollbackTo(i, procs[i].commitPos);
            }
            SpecProc &p = procs[qp];
            if (p.pauseGot != ck.expected(p.pauseAddr))
                system_.recordReadMismatch(p.pauseAddr, p.pauseGot);
            p.paused = false;
            for (std::size_t i = 0; i < n; ++i) {
                redrain[i] = 0;
                drain(i);
            }
            continue;
        }

        // Bus transaction at S = (tstar, pv): commit the functional
        // prefix, arbitrate among parked processors with empty
        // windows (exactly the interleaved loop's candidates - a
        // processor with uncommitted speculation would, interleaved,
        // still be executing local work at the grant instant).
        for (std::size_t i = 0; i < n; ++i) {
            if (procs[i].commitPos < procs[i].execPos)
                commitRange(i, cutFor(i, tstar, pv));
        }
        flushLog();
        Cycles grant = std::max(bus_free, tstar);
        std::optional<MasterId> winner =
            arbiter.grantWhere([&](std::size_t i) {
                const SpecProc &p = procs[i];
                return p.parked && p.commitPos == p.execPos &&
                       startOf(p, p.execPos) <= grant;
            });
        fbsim_assert(winner.has_value());
        std::size_t w = *winner;
        SpecProc &p = procs[w];
        const std::uint64_t g = p.execPos;
        const ProcRef ref = p.buf[g - p.bufBase];
        const Cycles t_park = startOf(p, g);

        // Pre-execute: speculated *writes* on the transaction's line
        // roll back first, so snoop decisions, wired-OR responses and
        // any supplied or pushed data - and the oracle - see exactly
        // the state the interleaved order implies at the grant.
        // Speculated reads change nothing (their touches wait for
        // commit), so they may stay; if the transaction mutates their
        // line the conflict log rolls them back after.
        const LineAddr la = ref.addr >> line_shift;
        const std::uint64_t laBit = sigBit(la);
        for (std::size_t i = 0; i < n; ++i) {
            SpecProc &q = procs[i];
            if (i == w || q.commitPos == q.execPos ||
                (q.sigW & laBit) == 0)
                continue;
            std::uint64_t first = q.execPos;
            for (std::size_t h = q.pendHead; h < q.pendWrites.size();
                 ++h) {
                const std::uint64_t g2 = q.pendWrites[h].g;
                if ((q.buf[g2 - q.bufBase].addr >> line_shift) ==
                    la) {
                    first = g2;
                    break;
                }
            }
            if (first < q.execPos)
                rollbackTo(i, first);
        }

        conflicts.clear();
        const AccessOutcome outcome = access(result, w, ref, p.seqExec);
        // Candidacy required an empty window, so the winner's pending
        // writes are already committed; the bus reference itself ran
        // non-speculatively.
        p.execPos = g + 1;
        p.commitPos = g + 1;
        p.sig = 0;
        p.sigW = 0;
        p.runStart = g + 1;
        p.parked = false;

        if (outcome.usedBus) {
            bus_free = billBus(result, w, ref, t_park, grant, outcome);
            p.rBase = bus_free + hit;
        } else {
            // Classification is exact and nothing ran in between, so
            // a parked reference always uses the bus; stay robust.
            p.rBase = t_park + hit;
        }

        // Post-execute: the transaction (including nested victim
        // pushes and abort pushes) reported every (cache, line) copy
        // it mutated; speculation from that copy's first stale touch
        // on is replayed.  A word-granular record (captured foreign
        // write, state unchanged) leaves the line's other words'
        // speculation standing.
        for (const SpecConflict &c : conflicts) {
            std::size_t i = static_cast<std::size_t>(c.id);
            if (i >= n)
                continue;
            SpecProc &q = procs[i];
            if (q.commitPos == q.execPos ||
                (q.sig & sigBit(c.line)) == 0)
                continue;
            if (c.word >= 0) {
                // Captured foreign write, state unchanged: the capture
                // wrote the transaction's value into both the copy and
                // the oracle, so standing hits on the word replay
                // byte-identically (hits either way, stamps already
                // exact) and hits on the line's other words were never
                // touched.  Re-verify the copy against the oracle and
                // keep the whole window when they agree; only a
                // divergent copy (broken table) pays the exact replay.
                const CacheLine *cl = caches[i]->peekLine(c.line);
                const Addr wa =
                    (static_cast<Addr>(c.line) << line_shift) +
                    static_cast<Addr>(c.word) * kWordBytes;
                if (cl != nullptr &&
                    cl->data[static_cast<std::size_t>(c.word)] ==
                        ck.expected(wa))
                    continue;
            }
            std::uint64_t first = firstTouch(i, c.line, c.word);
            if (first < q.execPos)
                rollbackTo(i, first);
        }
        conflicts.clear();

        redrain[w] = 1;
        for (std::size_t i = 0; i < n; ++i) {
            if (redrain[i]) {
                redrain[i] = 0;
                drain(i);
            }
        }
    }

    // Final commit: everything still speculated is functionally
    // before "end of run" (or, when cancelled, simply everything that
    // actually executed).
    for (std::size_t i = 0; i < n; ++i)
        commitRange(i, procs[i].execPos);
    flushLog();
    result.cancelled = stop;

    for (std::size_t i = 0; i < n; ++i) {
        SpecProc &p = procs[i];
        ProcTiming &t = result.procs[i];
        t.refs = p.commitPos;
        t.execCycles = p.commitPos * hit;
        if (p.commitPos > 0)
            t.finishTime = startOf(p, p.execPos);
    }
    finish(result);
    return result;
}

} // namespace fbsim
