#include "sim/engine.h"

#include <algorithm>

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

Engine::Engine(System &system, const EngineConfig &config)
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
                                  readyAt, wait, std::string());
        }
        config_.trace->onSpan(
            ref.write ? "write" : "read", kTraceEnginePid, tid, start,
            outcome.busCycles,
            strprintf("addr 0x%llx",
                      static_cast<unsigned long long>(ref.addr)));
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
    // order: only the interleaved loop provides it.
    if (!system_.plainAccessPath())
        return runInterleaved(streams, refs_per_proc, control);
    switch (config_.ordering) {
      case EngineOrdering::Interleaved:
        return runInterleaved(streams, refs_per_proc, control);
      case EngineOrdering::PerLine:
        return runWindowed(streams, refs_per_proc, control);
      case EngineOrdering::Strict:
        break;
    }
    // Strict means interleaved *semantics*; the speculative loop is
    // just the fast way to produce them when every client supports
    // undoable local execution.
    if (specEligible())
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
    Arbiter arbiter(config_.arbitration, n);
    Cycles bus_free = 0;

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

    auto execute = [&](std::size_t i, Cycles start) {
        ProcState &p = procs[i];
        const AccessOutcome outcome = access(result, i, p.ref, seq[i]);
        ProcTiming &timing = result.procs[i];
        timing.refs += 1;
        timing.execCycles += config_.hitCycles;
        if (outcome.usedBus) {
            bus_free = billBus(result, i, p.ref, p.readyAt, start, outcome);
            p.readyAt = bus_free + config_.hitCycles;
        } else {
            p.readyAt += config_.hitCycles;
        }
        p.hasRef = false;
        p.done += 1;
        timing.finishTime = p.readyAt;
        fetch(i);
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
Engine::runWindowed(const std::vector<RefStream *> &streams,
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
    // Caches with the devirtualized hit path drain through the fused
    // classify-and-execute probe (tryLocalRead/Write) instead of the
    // wouldUseBus + System-call pair; null falls back to the generic
    // pair.  Stable for the whole run: on the plain access path
    // nothing can quarantine a cache or attach coverage mid-run.
    std::vector<SnoopingCache *> fastCache(n);
    for (std::size_t i = 0; i < n; ++i) {
        SnoopingCache *c = system_.cacheOf(static_cast<MasterId>(i));
        fastCache[i] = (c && c->fastPathEnabled()) ? c : nullptr;
    }
    EngineResult result;
    result.procs.resize(n);
    Arbiter arbiter(config_.arbitration, n);
    Cycles bus_free = 0;
    std::vector<std::uint64_t> seq(n, 0);

    auto fetch = [&](std::size_t i) {
        if (procs[i].done < refs_per_proc) {
            procs[i].ref = streams[i]->next();
            procs[i].hasRef = true;
        }
    };
    for (std::size_t i = 0; i < n; ++i)
        fetch(i);

    bool stop = false;
    const std::uint64_t pollEvery =
        control ? std::max<std::uint64_t>(1, control->checkEveryRefs)
                : 0;
    std::uint64_t sincePoll = 0;

    CoherenceChecker &ck = system_.checker();
    const Cycles hit = config_.hitCycles;

    /**
     * Run processor i's cache-local references to exhaustion (end of
     * stream or a bus-bound reference, which stays parked for the
     * service loop).  Oracle bookkeeping is immediate: a local write
     * needs an M or E copy, so no other processor holds a valid copy
     * it could read, and processor-ordered updates are exact.  The
     * per-reference accounting (refs, cycles, seq) accumulates in
     * locals and flushes once at the end of the run - the drained
     * count fully determines it.
     */
    auto drain = [&](std::size_t i) {
        ProcState &p = procs[i];
        ProcTiming &t = result.procs[i];
        SnoopingCache *fc = fastCache[i];
        RefStream &stream = *streams[i];
        const MasterId id = static_cast<MasterId>(i);
        std::uint64_t drained = 0;
        std::uint64_t sq = seq[i];
        while (p.hasRef) {
            if (pollEvery && ++sincePoll >= pollEvery) {
                sincePoll = 0;
                if (control->shouldStop()) {
                    stop = true;
                    break;
                }
            }
            if (p.ref.write) {
                // Computed from sq+1 and committed only when the
                // write executes, so a parked reference re-derives the
                // identical value in the service phase.
                const Word value = writeValue(i, sq + 1);
                if (fc) {
                    if (!fc->tryLocalWrite(p.ref.addr, value))
                        break;   // parked: the service loop takes over
                    ck.noteWrite(p.ref.addr, value);
                } else {
                    if (system_.wouldUseBus(id, true, p.ref.addr))
                        break;
                    AccessOutcome o = system_.write(id, p.ref.addr, value);
                    fbsim_assert(!o.usedBus);
                }
                ++sq;
            } else {
                if (fc) {
                    Word got = 0;
                    if (!fc->tryLocalRead(p.ref.addr, got))
                        break;
                    if (got != ck.expected(p.ref.addr))
                        system_.recordReadMismatch(p.ref.addr, got);
                } else {
                    if (system_.wouldUseBus(id, false, p.ref.addr))
                        break;
                    AccessOutcome o = system_.read(id, p.ref.addr);
                    fbsim_assert(!o.usedBus);
                }
            }
            if (config_.accessLog)
                config_.accessLog->push_back({id, p.ref.write, p.ref.addr});
            ++drained;
            if (p.done + drained < refs_per_proc)
                p.ref = stream.next();
            else
                p.hasRef = false;
        }
        seq[i] = sq;
        if (drained) {
            p.done += drained;
            t.refs += drained;
            t.execCycles += drained * hit;
            p.readyAt += drained * hit;
            t.finishTime = p.readyAt;
        }
    };

    // --- Cold-start drain window: every processor's initial run of
    // cache-local references, in processor order.  The runs are
    // mutually independent (a cross-processor conflict needs the bus,
    // which parks the reference).
    for (std::size_t i = 0; i < n && !stop; ++i)
        drain(i);

    // --- Service loop: bus transactions in readyAt order, each
    // followed by the winner's next cache-local run.  Invariant at the
    // top of each iteration: every processor with a pending reference
    // is parked bus-bound (a completed transaction can invalidate or
    // demote other caches' lines - making their parked references
    // *more* bus-bound - but never refill one, so parked processors
    // stay parked until they win the bus).
    while (!stop) {
        constexpr Cycles kIdle = ~Cycles{0};
        Cycles tstar = kIdle;
        for (std::size_t i = 0; i < n; ++i) {
            if (procs[i].hasRef)
                tstar = std::min(tstar, procs[i].readyAt);
        }
        if (tstar == kIdle)
            break;   // every stream exhausted

        if (pollEvery && ++sincePoll >= pollEvery) {
            sincePoll = 0;
            if (control->shouldStop()) {
                stop = true;
                break;
            }
        }

        // Grant at max(bus free, earliest bus-bound ready); every
        // parked processor ready by then competes.  The winner's
        // start time always equals the grant time: a candidate ready
        // after bus_free became ready exactly at the grant.
        Cycles grant = std::max(bus_free, tstar);
        std::optional<MasterId> winner =
            arbiter.grantWhere([&](std::size_t i) {
                return procs[i].hasRef && procs[i].readyAt <= grant;
            });
        fbsim_assert(winner.has_value());
        std::size_t w = *winner;
        ProcState &p = procs[w];
        ProcTiming &t = result.procs[w];

        const AccessOutcome outcome = access(result, w, p.ref, seq[w]);
        t.refs += 1;
        t.execCycles += hit;
        if (outcome.usedBus) {
            bus_free = billBus(result, w, p.ref, p.readyAt, grant, outcome);
            p.readyAt = bus_free + hit;
        } else {
            // Classification is exact and nothing ran in between, so
            // a granted reference always uses the bus; stay robust.
            p.readyAt += hit;
        }
        t.finishTime = p.readyAt;
        p.hasRef = false;
        p.done += 1;
        fetch(w);

        // Drain the winner's cache-local run inline: its next
        // bus-bound reference must re-enter arbitration at its true
        // ready time, not after other processors' later transactions
        // have pushed bus_free past it.
        drain(w);
    }
    result.cancelled = stop;
    finish(result);
    return result;
}

EngineResult
Engine::runSpeculative(const std::vector<RefStream *> &streams,
                       std::uint64_t refs_per_proc,
                       const RunControl *control)
{
    const std::size_t n = streams.size();
    const Cycles hit = config_.hitCycles;
    constexpr Cycles kIdle = ~Cycles{0};
    constexpr std::uint64_t kFetchBatch = 64;

    /**
     * Per-processor speculation state.  Reference positions are
     * per-processor indices g in [0, refs_per_proc); the functional
     * (interleaved) order of reference g is keyed by (startOf(g),
     * proc), where startOf(g) = rBase + (g - runStart) * hit - the
     * instant the interleaved loop would begin it.  Invariants:
     * bufBase <= commitPos <= execPos <= fetched, runStart <=
     * commitPos, and every reference in [commitPos, execPos) executed
     * speculatively with a live undo entry in its cache.
     */
    struct SpecProc
    {
        std::vector<ProcRef> buf;
        /** Absolute indices g of the window's speculated writes, in
         *  order; the prefix below pendHead is committed.  Lets the
         *  commit, rollback and conflict paths walk only writes
         *  instead of re-scanning the whole buffer. */
        std::vector<std::uint64_t> pendWrites;
        std::size_t pendHead = 0;
        std::uint64_t bufBase = 0;   ///< g of buf[0]
        std::uint64_t fetched = 0;   ///< g past the last buffered ref
        std::uint64_t commitPos = 0; ///< refs below are permanent
        std::uint64_t execPos = 0;   ///< refs below executed
        std::uint64_t seqExec = 0;   ///< write counter at execPos
        std::uint64_t seqCommit = 0; ///< write counter at commitPos
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
    Arbiter arbiter(config_.arbitration, n);
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
    // foreign writes with the state unchanged).
    std::vector<SpecConflict> conflicts;
    const std::uint64_t word_mask =
        (caches[0]->lineBytes() / kWordBytes) - 1;
    // Procs whose state a transaction changed (the winner plus every
    // rolled-back proc): the only ones a re-drain can advance, since
    // everyone else is still parked, paused or exhausted.
    std::vector<std::uint8_t> redrain(n, 0);
    struct LogGuard
    {
        Bus &bus;
        ~LogGuard() { bus.setSpecConflictLog(nullptr); }
    } guard{system_.bus()};
    system_.bus().setSpecConflictLog(&conflicts);

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
     * (bus-bound ref), pauses (read mismatch needing in-order
     * adjudication), exhausts its stream, or the supervisor stops the
     * run.  Touches only proc-i state (its stream, buffer, cache and
     * its cache's undo log) plus const oracle reads and the stop flag.
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
        // Oracle slab memo: commits only happen at serialization
        // points, so no slab can move while this drain runs and a run
        // of same-line hits verifies with one indexed load each.
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
                std::uint64_t batch = std::min<std::uint64_t>(
                    kFetchBatch, refs_per_proc - fetched);
                std::size_t at = p.buf.size();
                if (p.buf.capacity() < at + batch) {
                    p.buf.reserve(std::max<std::size_t>(
                        2 * p.buf.capacity(),
                        std::min<std::uint64_t>(refs_per_proc,
                                                8192 + kFetchBatch)));
                }
                p.buf.resize(at + batch);
                stream.nextBatch(p.buf.data() + at, batch);
                buf = p.buf.data();
                fetched += batch;
            }
            const ProcRef ref = buf[g - bufBase];
            if (ref.write) {
                if (!c.specLocalWrite(ref.addr,
                                      writeValue(i, seqExec + 1))) {
                    p.parked = true;
                    break;
                }
                ++seqExec;
                p.pendWrites.push_back(g);
                const std::uint64_t b = sigBit(ref.addr >> line_shift);
                sig |= b;
                sigW |= b;
                ++g;
            } else {
                Word got = 0;
                if (!c.specLocalRead(ref.addr, got)) {
                    p.parked = true;
                    break;
                }
                const LineAddr la = ref.addr >> line_shift;
                sig |= sigBit(la);
                ++g;
                if (la != oLa) {
                    oLa = la;
                    oWords = ck.expectedLine(la);
                }
                const Word exp =
                    oWords
                        ? oWords[(ref.addr / kWordBytes) & word_mask]
                        : 0;
                if (got != exp) {
                    // The committed oracle lags this proc's own
                    // pending writes; reconstruct the latest one to
                    // the word from the pending-write index (the k-th
                    // write carries sequence number k, so a backward
                    // walk recovers each value without storing it).
                    bool own = false;
                    std::uint64_t s = seqExec;
                    for (std::size_t j = p.pendWrites.size();
                         j > p.pendHead;) {
                        --j;
                        if (buf[p.pendWrites[j] - bufBase].addr ==
                            ref.addr) {
                            own = writeValue(i, s) == got;
                            break;
                        }
                        --s;
                    }
                    if (!own) {
                        // Possibly a real mismatch: its violation
                        // string must be rendered at the exact
                        // functional instant, so stop here and let
                        // the serialization loop adjudicate in order.
                        p.paused = true;
                        p.pausePos = g - 1;
                        p.pauseAddr = ref.addr;
                        p.pauseGot = got;
                        break;
                    }
                }
            }
        }
        // Batched hit counters: one adjustment per drained run instead
        // of two increments per reference (specLocal* leave stats
        // alone by contract).
        const std::uint64_t dw = seqExec - p.seqExec;
        c.specCountHits(g - p.execPos - dw, dw);
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
        // to one compare per committed ref (no division).
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

    /** Make proc i's speculated prefix below `cut` permanent: oracle
     *  writes and the access log, in reference order. */
    auto commitRange = [&](std::size_t i, std::uint64_t cut) {
        SpecProc &p = procs[i];
        if (cut <= p.commitPos)
            return;
        // Oracle updates touch only writes: walk the pending-write
        // index, not the whole buffer.  Values are re-derived from
        // the commit-side counter (the k-th write carries k).
        std::uint64_t seq = p.seqCommit;
        std::size_t h = p.pendHead;
        const std::size_t pendSize = p.pendWrites.size();
        while (h < pendSize && p.pendWrites[h] < cut) {
            ck.noteWrite(p.buf[p.pendWrites[h] - p.bufBase].addr,
                         writeValue(i, ++seq));
            ++h;
        }
        p.seqCommit = seq;
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
        if (config_.specStats) {
            ++config_.specStats->batches;
            config_.specStats->specRefs += cut - p.commitPos;
            config_.specStats->batchLen.record(cut - p.commitPos);
        }
        caches[i]->specDropCommitted(cut - p.commitPos);
        p.commitPos = cut;
        if (p.commitPos == p.execPos) {
            p.sig = 0;
            p.sigW = 0;
            p.pendWrites.clear();
            p.pendHead = 0;
        } else if (p.pendHead >= 1024 &&
                   p.pendHead * 2 >= p.pendWrites.size()) {
            // Mirror the cache's bounded dead-prefix policy.
            p.pendWrites.erase(
                p.pendWrites.begin(),
                p.pendWrites.begin() +
                    static_cast<std::ptrdiff_t>(p.pendHead));
            p.pendHead = 0;
        }
        if (p.commitPos - p.bufBase >= 8192) {
            p.buf.erase(p.buf.begin(),
                        p.buf.begin() +
                            static_cast<std::ptrdiff_t>(p.commitPos -
                                                        p.bufBase));
            p.bufBase = p.commitPos;
        }
    };

    /** Undo proc i's speculated suffix [k, execPos): cache state via
     *  the undo log, the write counter here; the refs replay on the
     *  next drain with byte-identical values and stamps. */
    auto rollbackTo = [&](std::size_t i, std::uint64_t k) {
        SpecProc &p = procs[i];
        fbsim_assert(k >= p.commitPos && k < p.execPos);
        std::uint64_t undone = p.execPos - k;
        std::uint64_t writes = 0;
        while (p.pendWrites.size() > p.pendHead &&
               p.pendWrites.back() >= k) {
            p.pendWrites.pop_back();
            ++writes;
        }
        p.seqExec -= writes;
        caches[i]->specRollbackTo(undone);
        p.execPos = k;
        p.parked = false;
        p.paused = false;   // a rolled-back pause re-adjudicates
        redrain[i] = 1;
        if (config_.specStats) {
            ++config_.specStats->rollbacks;
            config_.specStats->rolledBackRefs += undone;
            config_.specStats->rollbackDepth.record(undone);
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

    // --- Round 1: every processor's first run of local hits.
    for (std::size_t i = 0; i < n; ++i)
        drainOne(i);

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
            // itself, whose only residue is its replacement stamp),
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
                drainOne(i);
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
        // any supplied or pushed data see exactly the state the
        // interleaved order implies at the grant.  Speculated reads
        // change nothing a snooper or supplier can observe (only
        // replacement stamps), so they may stay; if the transaction
        // mutates their line the conflict log rolls them back after.
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
                const std::uint64_t g2 = q.pendWrites[h];
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
        fbsim_assert(p.seqExec == p.seqCommit);
        const AccessOutcome outcome = access(result, w, ref, p.seqExec);
        p.seqCommit = p.seqExec;
        // Candidacy required an empty window, so the winner's undo
        // log and pending-write index are already empty; the bus
        // reference itself ran non-speculatively.
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
                drainOne(i);
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
