/**
 * @file
 * Byte-identity of the speculative post-grant execution engine.
 *
 * Strict ordering promises interleaved *semantics*: the speculative
 * loop batches provable local hits between bus transactions, commits
 * them at serialization points and rolls back on snoop conflicts, but
 * NOTHING observable may change versus the classic interleaved
 * scheduler - the EngineResult, every cache's counters, the bus
 * counters, the checker's verdicts and the functional access log.
 * These tests pin that byte-for-byte across protocol mixes and every
 * stock protocol, from cold and from warm caches, under replacement
 * pressure, with fault injection armed or a table that writes S
 * without the bus (where the engine must fall back to the interleaved
 * loop entirely), and through forced mid-batch rollbacks.  PerLine,
 * the same loop under a commit-on-drain policy, has no such twin, so
 * its exact output is pinned by digest; where a cache is not
 * speculation-eligible it must equal the interleaved loop.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/engine.h"
#include "test_util.h"
#include "trace/workloads.h"

namespace fbsim {
namespace {

/** Everything a run can tell us, for exact comparison. */
struct Observed
{
    std::vector<EngineResult> engine;   ///< one per pass
    BusStats bus;
    std::vector<CacheStats> caches;
    std::vector<std::string> violations;
    std::vector<std::string> checkNow;
    std::vector<EngineAccess> accesses;
    /** Processors whose first reference of the last pass was a local
     *  hit: work the first drain round executes before any bus
     *  transaction (always 0 from cold caches). */
    std::size_t warmHeads = 0;
};

/** One Arch85 run's shape; the defaults are the kMixes setting. */
struct Arch85Setup
{
    std::vector<ProtocolKind> mix;
    bool withFaults = false;
    unsigned passes = 1;
    std::uint64_t refsPerProc = 1500;
    Arch85Params params;
    std::uint64_t seed = 7;
    std::size_t numSets = 16;
    /** Replaces every cache's stock table when set. */
    const ProtocolTable *table = nullptr;
    /** Gives cache 0 a Random chooser (speculation-ineligible). */
    bool randomFirst = false;
    /** Lines per sector of cache i (a plain cache when absent). */
    std::vector<std::size_t> sectors;
};

/**
 * Timed runs of an Arch85 workload over the given protocol mix.  With
 * passes = 2 the engine runs twice on one System: the second pass
 * continues the same streams on the caches the first left warm.
 */
Observed
runArch85(const Arch85Setup &setup, EngineOrdering ordering,
          SpecStats *spec = nullptr)
{
    const std::vector<ProtocolKind> &mix = setup.mix;
    SystemConfig cfg;
    cfg.lineBytes = 32;
    if (setup.withFaults) {
        FaultConfig fc;
        fc.seed = 11;
        fc.spuriousAbort.probability = 0.02;
        fc.memoryDelay.probability = 0.01;
        cfg.faults = fc;
    }
    System sys(cfg);
    for (std::size_t i = 0; i < mix.size(); ++i) {
        CacheSpec spec = test::smallCache(mix[i]);
        spec.numSets = setup.numSets;
        spec.assoc = 2;
        spec.seed = i + 1;
        spec.table = setup.table;
        if (setup.randomFirst && i == 0)
            spec.chooser = ChooserKind::Random;
        if (i < setup.sectors.size())
            sys.addSectorCache(spec, setup.sectors[i]);
        else
            sys.addCache(spec);
    }
    const unsigned passes = setup.passes;
    const std::uint64_t refs_per_proc = setup.refsPerProc;
    auto streams = makeArch85Streams(setup.params, mix.size(), setup.seed);
    // Identically seeded twins, read one pass at a time, expose each
    // pass's first references without disturbing the engine's streams.
    auto twins = makeArch85Streams(setup.params, mix.size(), setup.seed);
    std::vector<RefStream *> raw;
    for (auto &s : streams)
        raw.push_back(s.get());

    Observed o;
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    ec.accessLog = &o.accesses;
    Engine engine(sys, ec);

    for (unsigned pass = 0; pass < passes; ++pass) {
        o.warmHeads = 0;
        for (std::size_t i = 0; i < twins.size(); ++i) {
            const ProcRef head = twins[i]->next();
            if (!sys.wouldUseBus(static_cast<MasterId>(i), head.write,
                                 head.addr))
                ++o.warmHeads;
            for (std::uint64_t r = 1; r < refs_per_proc; ++r)
                twins[i]->next();
        }
        o.engine.push_back(engine.run(raw, refs_per_proc));
    }
    o.bus = sys.bus().stats();
    for (MasterId id = 0; id < sys.numClients(); ++id)
        o.caches.push_back(sys.cacheOf(id)->stats());
    o.violations = sys.violations();
    o.checkNow = sys.checkNow();
    return o;
}

Observed
runArch85(const std::vector<ProtocolKind> &mix, EngineOrdering ordering,
          bool with_faults, SpecStats *spec = nullptr,
          unsigned passes = 1)
{
    Arch85Setup setup;
    setup.mix = mix;
    setup.withFaults = with_faults;
    setup.passes = passes;
    return runArch85(setup, ordering, spec);
}

void
expectIdentical(const Observed &a, const Observed &b)
{
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.bus, b.bus);
    EXPECT_EQ(a.caches, b.caches);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.checkNow, b.checkNow);
    EXPECT_EQ(a.accesses, b.accesses);
}

const std::vector<std::vector<ProtocolKind>> kMixes = {
    {ProtocolKind::Berkeley, ProtocolKind::Berkeley,
     ProtocolKind::Berkeley, ProtocolKind::Berkeley},
    {ProtocolKind::Illinois, ProtocolKind::Illinois,
     ProtocolKind::Firefly, ProtocolKind::Firefly},
    {ProtocolKind::Berkeley, ProtocolKind::Illinois,
     ProtocolKind::Firefly, ProtocolKind::Moesi},
};

TEST(SpeculativeEngineTest, StrictMatchesInterleavedByteIdentical)
{
    // One pass starts from cold caches, where the first drain round
    // finds nothing to run; the warm second pass makes that round
    // execute real hits before the first bus transaction.  The last
    // setup puts K = 4 and K = 2 sector caches beside plain ones.
    std::vector<Arch85Setup> setups(kMixes.size() + 1);
    for (std::size_t m = 0; m < kMixes.size(); ++m)
        setups[m].mix = kMixes[m];
    setups.back().mix = kMixes.back();
    setups.back().sectors = {4, 2, 1, 4};
    for (Arch85Setup &setup : setups) {
        for (unsigned passes : {1u, 2u}) {
            setup.passes = passes;
            Observed inter = runArch85(setup, EngineOrdering::Interleaved);
            ASSERT_GT(inter.bus.transactions, 0u);
            SpecStats spec;
            Observed strict =
                runArch85(setup, EngineOrdering::Strict, &spec);
            expectIdentical(inter, strict);
            // The comparison must not be vacuous: the strict run has
            // to actually take the speculative loop and commit real
            // batches.
            EXPECT_GT(spec.batches, 0u);
            EXPECT_GT(spec.specRefs, 0u);
            if (passes == 2)
                EXPECT_GT(strict.warmHeads, 0u);
            else
                EXPECT_EQ(strict.warmHeads, 0u);
        }
    }
}

TEST(SpeculativeEngineTest, FaultCampaignsFallBackIdentically)
{
    // With an injector armed the access path is not plain, so Strict
    // must route to the interleaved loop; speculation counters stay
    // zero and everything matches exactly.
    for (const auto &mix : kMixes) {
        Observed inter =
            runArch85(mix, EngineOrdering::Interleaved, true);
        SpecStats spec;
        Observed strict =
            runArch85(mix, EngineOrdering::Strict, true, &spec);
        expectIdentical(inter, strict);
        EXPECT_EQ(spec.batches, 0u);
        EXPECT_EQ(spec.specRefs, 0u);
    }
}

TEST(SpeculativeEngineTest, EveryStockProtocolSpeculates)
{
    // Every stock table keeps bus-free writes on exclusive lines, so
    // each homogeneous bus must take the speculative loop (the
    // exclusivity gate may not quietly disable it) and stay identical
    // from cold and warm caches.
    for (ProtocolKind kind : kAllProtocolKinds) {
        SCOPED_TRACE(std::string(protocolKindName(kind)));
        Arch85Setup setup;
        setup.mix.assign(4, kind);
        setup.passes = 2;
        Observed inter = runArch85(setup, EngineOrdering::Interleaved);
        SpecStats spec;
        Observed strict = runArch85(setup, EngineOrdering::Strict, &spec);
        expectIdentical(inter, strict);
        EXPECT_GT(spec.batches, 0u);
    }
}

TEST(SpeculativeEngineTest, ReplacementPressureStaysIdentical)
{
    // Arch85's private lines map one per set at the default geometry,
    // so victims are rarely chosen.  Four sets and a flat stack-depth
    // distribution make most refills evict a valid line picked by LRU
    // stamps - which speculated hits only apply at commit.
    for (const auto &mix : kMixes) {
        Arch85Setup setup;
        setup.mix = mix;
        setup.passes = 2;
        setup.numSets = 4;
        setup.params.pLocality = 0.3;
        Observed inter = runArch85(setup, EngineOrdering::Interleaved);
        SpecStats spec;
        Observed strict = runArch85(setup, EngineOrdering::Strict, &spec);
        expectIdentical(inter, strict);
        EXPECT_GT(spec.batches, 0u);
        EXPECT_GT(inter.caches[0].evictions, 0u);
    }
}

TEST(SpeculativeEngineTest, NonExclusiveSilentWriteFallsBack)
{
    // Illinois with a bus-free write from S: the write leaves the other
    // sharers' copies stale, so its value is visible to foreign reads
    // before any bus transaction on the line.  Speculation relies on
    // bus-free writes finding their line exclusive, so such a table
    // must run the interleaved loop - and match it exactly, stale-read
    // mismatches included.
    ProtocolTable silent = illinoisTable();
    LocalAction stay;
    stay.next = toState(State::S);
    stay.usesBus = false;
    silent.setLocal(State::S, LocalEvent::Write, {stay});
    for (double p_shared : {0.05, 0.3}) {
        for (std::uint64_t seed : {1u, 2u, 3u, 7u}) {
            SCOPED_TRACE(testing::Message() << "pShared " << p_shared
                                            << " seed " << seed);
            Arch85Setup setup;
            setup.mix.assign(4, ProtocolKind::Illinois);
            setup.table = &silent;
            setup.refsPerProc = 3000;
            setup.params.sharedLines = 4;
            setup.params.pShared = p_shared;
            setup.seed = seed;
            Observed inter =
                runArch85(setup, EngineOrdering::Interleaved);
            SpecStats spec;
            Observed strict =
                runArch85(setup, EngineOrdering::Strict, &spec);
            expectIdentical(inter, strict);
            EXPECT_EQ(spec.batches, 0u);
        }
    }
}

/**
 * Forced mid-batch rollback: every processor hammers the same few hot
 * lines under an invalidating protocol, so a speculated run of read
 * hits is regularly killed by a foreign write's invalidation before
 * its serialization point.  The rollback/replay machinery must both
 * actually fire and leave no observable trace.
 */
Observed
runPingPong(EngineOrdering ordering, SpecStats *spec)
{
    SystemConfig cfg;
    cfg.lineBytes = 32;
    System sys(cfg);
    const std::size_t procs = 4;
    for (std::size_t i = 0; i < procs; ++i) {
        CacheSpec spec_i = test::smallCache(ProtocolKind::Berkeley);
        spec_i.numSets = 16;
        spec_i.assoc = 2;
        spec_i.seed = i + 1;
        sys.addCache(spec_i);
    }
    std::vector<std::unique_ptr<RefStream>> streams;
    std::vector<RefStream *> raw;
    for (std::size_t p = 0; p < procs; ++p) {
        streams.push_back(std::make_unique<PingPongWorkload>(
            32, 3, p, p + 21, 2));
        raw.push_back(streams.back().get());
    }

    Observed o;
    EngineConfig ec;
    ec.ordering = ordering;
    ec.specStats = spec;
    ec.accessLog = &o.accesses;
    Engine engine(sys, ec);
    o.engine.push_back(engine.run(raw, 2000));
    o.bus = sys.bus().stats();
    for (MasterId id = 0; id < sys.numClients(); ++id)
        o.caches.push_back(sys.cacheOf(id)->stats());
    o.violations = sys.violations();
    o.checkNow = sys.checkNow();
    return o;
}

TEST(SpeculativeEngineTest, MidBatchRollbackIsInvisible)
{
    Observed inter = runPingPong(EngineOrdering::Interleaved, nullptr);
    SpecStats spec;
    Observed strict = runPingPong(EngineOrdering::Strict, &spec);
    expectIdentical(inter, strict);
    // The adversarial workload must actually exercise the rollback
    // path, not just commit clean batches.
    EXPECT_GE(spec.rollbacks, 1u);
    EXPECT_GE(spec.rolledBackRefs, spec.rollbacks);
    EXPECT_TRUE(inter.violations.empty());
    EXPECT_TRUE(inter.checkNow.empty());
}

/** FNV-1a over a sequence of 64-bit words. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (unsigned b = 0; b < 64; b += 8) {
            h_ ^= (v >> b) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    /** A stats block made only of 64-bit counters, in field order. */
    template <class Counters>
    void
    addCounters(const Counters &c)
    {
        static_assert(std::is_trivially_copyable_v<Counters> &&
                      sizeof(Counters) % sizeof(std::uint64_t) == 0);
        std::array<std::uint64_t, sizeof(Counters) / sizeof(std::uint64_t)>
            words;
        std::memcpy(words.data(), &c, sizeof c);
        for (std::uint64_t w : words)
            add(w);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
digestOf(const Observed &o)
{
    Digest d;
    for (const EngineResult &r : o.engine) {
        for (std::uint64_t v :
             {r.elapsed, r.busBusy, r.faultedRefs, r.watchdogTrips,
              r.quarantines, r.reintegrations,
              std::uint64_t{r.cancelled}})
            d.add(v);
        for (const ProcTiming &p : r.procs) {
            for (std::uint64_t v : {p.refs, p.finishTime, p.execCycles,
                                    p.busWaitCycles, p.busServiceCycles})
                d.add(v);
        }
    }
    d.addCounters(o.bus);
    for (const CacheStats &c : o.caches)
        d.addCounters(c);
    for (const EngineAccess &a : o.accesses) {
        d.add(a.proc);
        d.add(a.write);
        d.add(a.addr);
    }
    d.add(o.violations.size());
    d.add(o.checkNow.size());
    return d.value();
}

/** digestOf plus the violation and audit strings themselves. */
std::uint64_t
digestWithText(const Observed &o)
{
    Digest d;
    d.add(digestOf(o));
    d.add(test::fnv1a(o.violations));
    d.add(test::fnv1a(o.checkNow));
    return d.value();
}

/** Illinois whose S ignores ReadForModify: a writer's invalidate
 *  leaves the other sharers' copies valid and stale. */
ProtocolTable
staleSharerIllinois()
{
    ProtocolTable t = illinoisTable();
    SnoopAction stay;
    stay.next = toState(State::S);
    t.setSnoop(State::S, BusEvent::ReadForModify, {stay});
    return t;
}

TEST(SpeculativeEngineTest, PerLinePinnedFromColdAndWarmCaches)
{
    // The relaxed per-line loop reproduces no other loop's order, so
    // its exact output - timing, bus and cache counters, the access
    // log - is pinned by digest, over a cold pass and a warm pass whose
    // first drain window executes real hits.  Its semantic oracle is
    // the model replay in differential_test.
    const std::uint64_t kPinned[] = {
        0x345dd57b97c2bc12ull,
        0xad117934511f626aull,
        0x2de0e89b493ca81bull,
    };
    ASSERT_EQ(std::size(kPinned), kMixes.size());
    for (std::size_t m = 0; m < kMixes.size(); ++m) {
        Observed o =
            runArch85(kMixes[m], EngineOrdering::PerLine, false, nullptr, 2);
        ASSERT_GT(o.bus.transactions, 0u);
        EXPECT_GT(o.warmHeads, 0u) << "mix " << m;
        EXPECT_EQ(digestOf(o), kPinned[m])
            << "mix " << m << ": 0x" << std::hex << digestOf(o);
    }
}

TEST(SpeculativeEngineTest, PerLineStaleCopiesPinned)
{
    // Stale sharers make local read hits disagree with the oracle.
    // PerLine records each mismatch where its drain meets it, so the
    // digest covers the violation and audit strings as well.  Its
    // commits leave the speculation counters untouched.
    const ProtocolTable stale = staleSharerIllinois();
    const std::uint64_t kPinned[] = {
        0x6d42f452993e1395ull,
        0x7d2b59deaf89900cull,
    };
    const double kShared[] = {0.05, 0.3};
    for (std::size_t k = 0; k < std::size(kShared); ++k) {
        Arch85Setup setup;
        setup.mix.assign(4, ProtocolKind::Illinois);
        setup.table = &stale;
        setup.passes = 2;
        setup.refsPerProc = 3000;
        setup.params.sharedLines = 4;
        setup.params.pShared = kShared[k];
        setup.seed = 5;
        SpecStats spec;
        Observed o = runArch85(setup, EngineOrdering::PerLine, &spec);
        ASSERT_GT(o.violations.size(), 0u) << "pShared " << kShared[k];
        EXPECT_EQ(spec.batches, 0u);
        EXPECT_EQ(spec.specRefs, 0u);
        const std::uint64_t got = digestWithText(o);
        EXPECT_EQ(got, kPinned[k])
            << "pShared " << kShared[k] << ": 0x" << std::hex << got;
    }
}

TEST(SpeculativeEngineTest, PerLineFallsBackToInterleavedWhenIneligible)
{
    // A Random chooser makes its cache speculation-ineligible, so
    // PerLine runs the interleaved loop, exactly as Strict does.
    for (const auto &mix : kMixes) {
        Arch85Setup setup;
        setup.mix = mix;
        setup.passes = 2;
        setup.randomFirst = true;
        Observed inter = runArch85(setup, EngineOrdering::Interleaved);
        Observed perLine = runArch85(setup, EngineOrdering::PerLine);
        expectIdentical(inter, perLine);
    }
}

} // namespace
} // namespace fbsim
