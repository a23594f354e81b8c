#include "mc/litmus.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"
#include "hier/hier_system.h"
#include "sim/system.h"

namespace fbsim {
namespace mc {

std::vector<LitmusTest>
standardLitmusTests()
{
    std::vector<LitmusTest> tests;

    // CoRR: once T1 reads the new value it may never read the old one.
    tests.push_back({"CoRR",
                     {{{true, 0, 1}},
                      {{false, 0, 0}, {false, 0, 0}}}});

    // CoWW: a thread's own writes to one location serialize; a
    // concurrent reader can never see them out of order.
    tests.push_back({"CoWW",
                     {{{true, 0, 1}, {true, 0, 2}},
                      {{false, 0, 0}, {false, 0, 0}}}});

    // CoWR: a write followed by a read of the same location returns
    // that write unless another processor's write intervened.
    tests.push_back({"CoWR",
                     {{{true, 0, 1}, {false, 0, 0}},
                      {{true, 0, 2}}}});

    // CoRW (per-location load buffering): a read ordered before a
    // write in program order cannot observe that write or anything
    // serialized after it.
    tests.push_back({"CoRW",
                     {{{false, 0, 0}, {true, 0, 1}},
                      {{false, 0, 0}, {true, 0, 2}}}});

    // Write serialization: two writers, one observer; the observer's
    // two reads must agree with a single global order of the writes.
    tests.push_back({"WriteSerialization",
                     {{{true, 0, 1}},
                      {{true, 0, 2}},
                      {{false, 0, 0}, {false, 0, 0}}}});

    return tests;
}

namespace {

/** Run one realized interleaving (a sequence of thread indices). */
void
runInterleaving(const LitmusTest &test, const LitmusRunConfig &cfg,
                const std::vector<std::size_t> &order,
                std::vector<std::string> &failures)
{
    std::size_t max_line = 0;
    for (const auto &thread : test.threads)
        for (const LitmusOp &op : thread)
            max_line = std::max<std::size_t>(max_line, op.line);

    // Flat bus or a bridged hierarchy, behind one access surface.
    CacheSpec spec;
    spec.chooser = cfg.chooser;
    spec.policy = cfg.policy;
    spec.numSets = 1;
    spec.assoc = max_line + 1;
    std::unique_ptr<Fabric> sys;
    if (cfg.clusters > 1) {
        HierConfig hc;
        hc.lineBytes = kWordBytes;
        hc.maxBusRetries = cfg.maxBusRetries;
        hc.checkEveryAccess = true;
        auto hier = std::make_unique<HierSystem>(hc, cfg.clusters);
        for (std::size_t t = 0; t < test.threads.size(); ++t) {
            spec.table = cfg.tables[t];
            spec.seed = cfg.seed + t;
            hier->addCache(t % cfg.clusters, spec);
        }
        sys = std::move(hier);
    } else {
        SystemConfig sc;
        sc.lineBytes = kWordBytes;
        sc.maxBusRetries = cfg.maxBusRetries;
        sc.checkEveryAccess = true;
        sc.quarantineOnWatchdog = false;
        auto flat = std::make_unique<System>(sc);
        for (std::size_t t = 0; t < test.threads.size(); ++t) {
            spec.table = cfg.tables[t];
            spec.seed = cfg.seed + t;
            flat->addCache(spec);
        }
        sys = std::move(flat);
    }

    auto describe = [&] {
        std::string s = test.name + " order[";
        for (std::size_t t : order)
            s += strprintf("%zu", t);
        return s + "]";
    };

    // Independent reference: plain memory updated in realized order.
    std::array<Word, 4> ref{};
    std::vector<std::size_t> pc(test.threads.size(), 0);
    for (std::size_t t : order) {
        const LitmusOp &op = test.threads[t][pc[t]++];
        const Addr addr = static_cast<Addr>(op.line) * kWordBytes;
        const auto id = static_cast<MasterId>(t);
        if (op.write) {
            sys->write(id, addr, op.value);
            ref[op.line] = op.value;
        } else {
            AccessOutcome out = sys->read(id, addr);
            if (out.value != ref[op.line]) {
                failures.push_back(strprintf(
                    "%s: thread %zu read line %u = 0x%llx, reference "
                    "says 0x%llx",
                    describe().c_str(), t,
                    static_cast<unsigned>(op.line),
                    static_cast<unsigned long long>(out.value),
                    static_cast<unsigned long long>(ref[op.line])));
            }
        }
    }

    for (const std::string &v : sys->violations())
        failures.push_back(describe() + ": " + v);
    for (const std::string &v : sys->checkNow())
        failures.push_back(describe() + ": final: " + v);
}

/** Recursively enumerate program-order preserving interleavings. */
void
enumerate(const LitmusTest &test, const LitmusRunConfig &cfg,
          std::vector<std::size_t> &pc, std::vector<std::size_t> &order,
          LitmusOutcome &out)
{
    bool any = false;
    for (std::size_t t = 0; t < test.threads.size(); ++t) {
        if (pc[t] >= test.threads[t].size())
            continue;
        any = true;
        ++pc[t];
        order.push_back(t);
        enumerate(test, cfg, pc, order, out);
        order.pop_back();
        --pc[t];
    }
    if (!any) {
        ++out.interleavings;
        runInterleaving(test, cfg, order, out.failures);
    }
}

} // namespace

LitmusOutcome
runLitmus(const LitmusTest &test, const LitmusRunConfig &cfg)
{
    fbsim_assert(cfg.tables.size() == test.threads.size());
    LitmusOutcome out;
    std::vector<std::size_t> pc(test.threads.size(), 0);
    std::vector<std::size_t> order;
    enumerate(test, cfg, pc, order, out);
    return out;
}

} // namespace mc
} // namespace fbsim
