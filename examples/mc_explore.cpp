/**
 * @file
 * Command-line front end for the bounded exhaustive model checker.
 *
 * Enumerates the full reachable state space of N caches x L lines
 * under every legal combination of table alternatives, checks the
 * MOESI structural invariants at every node, and - on a violation -
 * prints the minimal counterexample trace and replays it through the
 * real engine.
 *
 * Usage:
 *   mc_explore [--protocol NAME | --mixed P1,P2,...] [--caches N]
 *              [--lines L] [--max-nodes N] [--json] [--all]
 *
 * --all sweeps every protocol in Tables 1-7 at the given geometry.
 * Exits 1 when any exploration finds a violation, hits the node cap,
 * or a counterexample fails to replay, and 2 on a malformed command
 * line (each numeric value must be a whole decimal number in range).
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cli_args.h"
#include "core/protocol_table.h"
#include "mc/explorer.h"
#include "mc/replay.h"
#include "protocols/factory.h"

using namespace fbsim;

namespace {

void
printTrace(const mc::Counterexample &cex)
{
    std::printf("counterexample (%zu steps):\n", cex.steps.size());
    for (std::size_t i = 0; i < cex.steps.size(); ++i) {
        const mc::TraceStep &s = cex.steps[i];
        std::printf("  %2zu: cache %u line %u %s  choices[", i,
                    s.event.cache, s.event.line,
                    std::string(localEventName(s.event.ev)).c_str());
        for (const mc::ChoiceRecord &r : s.choices)
            std::printf(" c%u:%u/%u", r.cache, r.idx, r.nAlts);
        std::printf(" ]\n");
    }
    for (const std::string &v : cex.violations)
        std::printf("  violation: %s\n", v.c_str());
}

int
runOne(const std::string &label,
       const std::vector<const ProtocolTable *> &tables,
       std::size_t lines, std::size_t max_nodes, bool json)
{
    mc::ExploreConfig cfg;
    cfg.model.tables = tables;
    cfg.model.lines = lines;
    cfg.maxNodes = max_nodes;
    mc::ExploreResult res = mc::explore(cfg);

    if (json) {
        std::printf("{\"config\": \"%s\", \"caches\": %zu, "
                    "\"lines\": %zu, \"nodes\": %zu, \"edges\": %zu, "
                    "\"depth\": %zu, \"nodeFingerprint\": \"%016llx\", "
                    "\"edgeFingerprint\": \"%016llx\", "
                    "\"complete\": %s, \"violation\": %s}\n",
                    label.c_str(), tables.size(), lines, res.nodes,
                    res.edges, res.depth,
                    static_cast<unsigned long long>(res.nodeFingerprint),
                    static_cast<unsigned long long>(res.edgeFingerprint),
                    res.complete ? "true" : "false",
                    res.counterexample ? "true" : "false");
    } else {
        std::printf("%-28s caches=%zu lines=%zu: %zu states, %zu "
                    "transitions, depth %zu, fingerprints %016llx / "
                    "%016llx %s\n",
                    label.c_str(), tables.size(), lines, res.nodes,
                    res.edges, res.depth,
                    static_cast<unsigned long long>(res.nodeFingerprint),
                    static_cast<unsigned long long>(res.edgeFingerprint),
                    res.complete        ? "[complete]"
                    : res.counterexample ? "[VIOLATION]"
                                         : "[capped]");
    }

    if (res.counterexample) {
        printTrace(*res.counterexample);
        // An invariant-violation counterexample must reproduce on the
        // real engine; an illegal-transition one cannot (the model
        // rejects the step the engine counts and answers), so replay
        // only its clean prefix.
        std::vector<mc::TraceStep> steps = res.counterexample->steps;
        mc::ReplayResult rr =
            mc::replayTrace(cfg.model, steps, /*expect_violation=*/true);
        if (rr.ok) {
            std::printf("replayed through the real engine: the live "
                        "checker reports %zu violation(s)\n",
                        rr.systemViolations.size());
        } else {
            for (const std::string &e : rr.errors)
                std::printf("replay: %s\n", e.c_str());
        }
        return 1;
    }
    return res.complete ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string protocol = "moesi";
    std::string mixed;
    std::size_t caches = 2;
    std::size_t lines = 1;
    std::size_t max_nodes = 1u << 20;
    bool json = false;
    bool all = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : "";
        };
        auto count = [&](const char *flag, std::size_t lo,
                         std::size_t hi) {
            return cli::parseCount("mc_explore", flag, next(), lo, hi);
        };
        if (a == "--protocol")
            protocol = next();
        else if (a == "--mixed")
            mixed = next();
        else if (a == "--caches")
            caches = count("--caches", 2, mc::kMaxCaches);
        else if (a == "--lines")
            lines = count("--lines", 1, mc::kMaxLines);
        else if (a == "--max-nodes")
            // Node indices are 32-bit in the explorer's visited set.
            max_nodes = count("--max-nodes", 1, UINT32_MAX);
        else if (a == "--json")
            json = true;
        else if (a == "--all")
            all = true;
        else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return 2;
        }
    }
    int rc = 0;
    if (all) {
        for (ProtocolKind kind : kAllProtocolKinds) {
            std::vector<const ProtocolTable *> tables(
                caches, &protocolTable(kind));
            rc |= runOne(std::string(protocolKindName(kind)), tables,
                         lines, max_nodes, json);
        }
        return rc;
    }

    std::vector<const ProtocolTable *> tables;
    std::string label;
    if (!mixed.empty()) {
        std::size_t pos = 0;
        while (pos <= mixed.size()) {
            std::size_t comma = mixed.find(',', pos);
            if (comma == std::string::npos)
                comma = mixed.size();
            std::string name = mixed.substr(pos, comma - pos);
            auto kind = protocolKindFromName(name);
            if (!kind) {
                std::fprintf(stderr, "unknown protocol: %s\n",
                             name.c_str());
                return 2;
            }
            tables.push_back(&protocolTable(*kind));
            if (!label.empty())
                label += '+';
            label += protocolKindName(*kind);
            pos = comma + 1;
        }
        if (tables.size() < 2 || tables.size() > mc::kMaxCaches) {
            std::fprintf(stderr, "--mixed needs 2-4 protocols\n");
            return 2;
        }
    } else {
        auto kind = protocolKindFromName(protocol);
        if (!kind) {
            std::fprintf(stderr, "unknown protocol: %s\n",
                         protocol.c_str());
            return 2;
        }
        tables.assign(caches, &protocolTable(*kind));
        label = std::string(protocolKindName(*kind));
    }
    return runOne(label, tables, lines, max_nodes, json);
}
