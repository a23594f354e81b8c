/**
 * @file
 * Differential lockstep tests: real engine vs abstract model over long
 * seeded random walks, byte-identical state vectors after every step -
 * fault-free with per-cache random choice streams, and under
 * timing-only fault injection with stutter-resync on faulted accesses.
 */

#include <gtest/gtest.h>

#include "mc/differential.h"
#include "protocols/factory.h"

namespace fbsim {
namespace {

TEST(Differential, FaultFreeEveryProtocol)
{
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::DiffConfig cfg;
        cfg.tables.assign(3, &protocolTable(kind));
        cfg.lines = 2;
        cfg.steps = 10000;
        cfg.seed = 0xfb51u + static_cast<std::uint64_t>(kind);
        mc::DiffResult res = mc::runDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << protocolKindName(kind) << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
        EXPECT_EQ(res.stepsRun, 10000u);
        EXPECT_EQ(res.faultedSteps, 0u);
    }
}

TEST(Differential, FaultedEveryProtocol)
{
    std::size_t total_faulted = 0;
    for (ProtocolKind kind : kAllProtocolKinds) {
        mc::DiffConfig cfg;
        cfg.tables.assign(3, &protocolTable(kind));
        cfg.lines = 2;
        cfg.steps = 10000;
        cfg.seed = 0xdead0 + static_cast<std::uint64_t>(kind);
        cfg.faults = true;
        mc::DiffResult res = mc::runDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << protocolKindName(kind) << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
        EXPECT_EQ(res.stepsRun, 10000u);
        total_faulted += res.faultedSteps;
    }
    // The campaign must actually have exercised stutter-resync.
    EXPECT_GT(total_faulted, 0u);
}

TEST(Differential, MixedProtocolsFourCaches)
{
    mc::DiffConfig cfg;
    cfg.tables = {&moesiTable(), &berkeleyTable(), &dragonTable(),
                  &illinoisTable()};
    cfg.lines = 2;
    cfg.steps = 10000;
    cfg.seed = 7;
    mc::DiffResult res = mc::runDifferential(cfg);
    EXPECT_TRUE(res.ok)
        << (res.errors.empty() ? "" : res.errors[0]);

    cfg.faults = true;
    res = mc::runDifferential(cfg);
    EXPECT_TRUE(res.ok)
        << (res.errors.empty() ? "" : res.errors[0]);
}

// Engine lockstep: the timed engine's functional access log, replayed
// against the abstract model, must be accepted transition by
// transition and land on the engine's final state vector.  This is
// the relaxed PerLine loop's semantic oracle; the Strict leg checks
// the speculative loop the same way.
TEST(Differential, EngineLockstepPerLine)
{
    for (ProtocolKind kind :
         {ProtocolKind::Moesi, ProtocolKind::Berkeley}) {
        mc::EngineDiffConfig cfg;
        cfg.tables.assign(4, &protocolTable(kind));
        cfg.lines = 2;
        cfg.refsPerProc = 4000;
        cfg.seed = 0x5a4d + static_cast<std::uint64_t>(kind);
        cfg.ordering = EngineOrdering::PerLine;
        mc::DiffResult res = mc::runEngineDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << protocolKindName(kind) << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
        EXPECT_EQ(res.stepsRun, 1u);
    }
}

TEST(Differential, EngineLockstepStrict)
{
    mc::EngineDiffConfig cfg;
    cfg.tables.assign(4, &moesiTable());
    cfg.lines = 2;
    cfg.refsPerProc = 4000;
    cfg.seed = 0xfb02;
    cfg.ordering = EngineOrdering::Strict;
    mc::DiffResult res = mc::runEngineDifferential(cfg);
    EXPECT_TRUE(res.ok)
        << (res.errors.empty() ? "" : res.errors[0]);
    EXPECT_EQ(res.stepsRun, 1u);
}

// Hierarchical lockstep: a live HierSystem (2 leaf buses, bridges,
// root bus) against the hier model, byte-identical on the full state
// vector AND every bridge's filter bits after each of 10k steps.
TEST(Differential, HierFaultFreeMoesiClass)
{
    for (ProtocolKind kind : {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                              ProtocolKind::Dragon}) {
        mc::HierDiffConfig cfg;
        cfg.tables.assign(4, &protocolTable(kind));
        cfg.clusters = 2;
        cfg.lines = 2;
        cfg.steps = 10000;
        cfg.seed = 0xfb51u + static_cast<std::uint64_t>(kind);
        mc::DiffResult res = mc::runHierDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << protocolKindName(kind) << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
        EXPECT_EQ(res.stepsRun, 10000u);
        EXPECT_EQ(res.faultedSteps, 0u);
    }
}

// Same walks with bridge drops/delays/dups, leaf-stall windows,
// spurious aborts and memory delay/drop armed: faulted accesses are
// stutter steps, everything else must still match byte-for-byte, and
// the engine's checker must stay silent throughout.
TEST(Differential, HierFaultedMoesiClass)
{
    std::size_t total_faulted = 0;
    for (ProtocolKind kind : {ProtocolKind::Moesi, ProtocolKind::Berkeley,
                              ProtocolKind::Dragon}) {
        mc::HierDiffConfig cfg;
        cfg.tables.assign(4, &protocolTable(kind));
        cfg.clusters = 2;
        cfg.lines = 2;
        cfg.steps = 10000;
        cfg.seed = 0xfb51u + static_cast<std::uint64_t>(kind);
        cfg.faults = true;
        mc::DiffResult res = mc::runHierDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << protocolKindName(kind) << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
        EXPECT_EQ(res.stepsRun, 10000u);
        total_faulted += res.faultedSteps;
    }
    EXPECT_GT(total_faulted, 0u);
}

// Mixed MOESI-class tables across the clusters, faults off and on.
TEST(Differential, HierMixedClusters)
{
    mc::HierDiffConfig cfg;
    cfg.tables = {&moesiTable(), &berkeleyTable(), &dragonTable(),
                  &moesiTable()};
    cfg.clusters = 2;
    cfg.lines = 2;
    cfg.steps = 10000;
    cfg.seed = 11;
    mc::DiffResult res = mc::runHierDifferential(cfg);
    EXPECT_TRUE(res.ok)
        << (res.errors.empty() ? "" : res.errors[0]);

    cfg.faults = true;
    res = mc::runHierDifferential(cfg);
    EXPECT_TRUE(res.ok)
        << (res.errors.empty() ? "" : res.errors[0]);
}

// Different seeds must exercise genuinely different walks yet always
// agree; a quick spread guards against a degenerate driver.
TEST(Differential, SeedSpread)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 1234567ull}) {
        mc::DiffConfig cfg;
        cfg.tables.assign(2, &moesiTable());
        cfg.lines = 1;
        cfg.steps = 2000;
        cfg.seed = seed;
        mc::DiffResult res = mc::runDifferential(cfg);
        EXPECT_TRUE(res.ok)
            << "seed " << seed << ": "
            << (res.errors.empty() ? "" : res.errors[0]);
    }
}

} // namespace
} // namespace fbsim
