/**
 * @file
 * Protocol explorer: a teaching/debugging tool that prints a
 * protocol's paper table and then steps through an access script,
 * showing every cache's line state after each access plus running bus
 * statistics.
 *
 * Usage:
 *   protocol_explorer [protocol] [caches] [-v]
 *     protocol: moesi | berkeley | dragon | writeonce | illinois |
 *               firefly        (default moesi)
 *     caches:   2-8             (default 3; anything else exits 2)
 *     -v:       print the bus transaction log after each access
 *
 * Script lines are read from stdin, one access per line:
 *     r <cache> <hexaddr>     read
 *     w <cache> <hexaddr> <value>
 *     f <cache> <hexaddr>     flush (discard)
 *     p <cache> <hexaddr>     pass (push, keep copy)
 * With no stdin script, a built-in demonstration runs.  A line with a
 * malformed cache, address or value prints "? bad line" and the script
 * continues.
 */

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>

#include "bus/transaction_log.h"
#include "cli_args.h"
#include "sim/system.h"
#include "text/report.h"
#include "text/table_render.h"

using namespace fbsim;

namespace {

int
paperTableNumber(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Moesi:     return 1;
      case ProtocolKind::Berkeley:  return 3;
      case ProtocolKind::Dragon:    return 4;
      case ProtocolKind::WriteOnce: return 5;
      case ProtocolKind::Illinois:  return 6;
      case ProtocolKind::Firefly:   return 7;
    }
    return 1;
}

void
showStates(System &system, Addr addr)
{
    std::printf("    line 0x%llx:",
                static_cast<unsigned long long>(addr / 32 * 32));
    for (MasterId id = 0; id < system.numClients(); ++id) {
        const SnoopingCache *cache = system.cacheOf(id);
        if (cache) {
            std::printf("  cache%u=%s", id,
                        std::string(stateName(cache->lineState(addr)))
                            .c_str());
        }
    }
    const BusStats &b = system.bus().stats();
    std::printf("  [bus: %llu txns, %llu aborts]\n",
                static_cast<unsigned long long>(b.transactions),
                static_cast<unsigned long long>(b.aborts));
}

/** The whole token as a number in `base`; nullopt for anything else
 *  (empty, junk, out of range). */
std::optional<std::uint64_t>
parseNumber(const std::string &tok, int base)
{
    const char *end = tok.data() + tok.size();
    std::uint64_t v = 0;
    auto [stop, ec] = std::from_chars(tok.data(), end, v, base);
    if (tok.empty() || ec != std::errc() || stop != end)
        return std::nullopt;
    return v;
}

TransactionLog *g_log = nullptr;

bool
runLine(System &system, const std::string &line)
{
    if (g_log)
        g_log->clear();
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#')
        return true;
    unsigned cache = 0;
    std::string addr_tok;
    std::optional<std::uint64_t> addr;
    if (ls >> cache >> addr_tok) {
        // An optional 0x prefix, then hex digits only.
        if (addr_tok.size() > 2 && addr_tok[0] == '0' &&
            (addr_tok[1] == 'x' || addr_tok[1] == 'X'))
            addr_tok.erase(0, 2);
        addr = parseNumber(addr_tok, 16);
    }
    std::string value_tok;
    std::optional<std::uint64_t> value;
    if (op == "w" && ls >> value_tok)
        value = parseNumber(value_tok, 10);
    if (!addr || cache >= system.numClients() || (op == "w" && !value)) {
        std::printf("  ? bad line: %s\n", line.c_str());
        return true;
    }
    if (op == "r") {
        AccessOutcome o = system.read(cache, *addr);
        std::printf("  cpu%u read  0x%llx -> %llu%s\n", cache,
                    static_cast<unsigned long long>(*addr),
                    static_cast<unsigned long long>(o.value),
                    o.usedBus ? "  (bus)" : "  (hit)");
    } else if (op == "w") {
        AccessOutcome o = system.write(cache, *addr, *value);
        std::printf("  cpu%u write 0x%llx = %llu%s\n", cache,
                    static_cast<unsigned long long>(*addr),
                    static_cast<unsigned long long>(*value),
                    o.usedBus ? "  (bus)" : "  (silent)");
    } else if (op == "f" || op == "p") {
        system.flush(cache, *addr, op == "p");
        std::printf("  cpu%u %s 0x%llx\n", cache,
                    op == "p" ? "pass " : "flush",
                    static_cast<unsigned long long>(*addr));
    } else if (op == "q") {
        return false;
    } else {
        std::printf("  ? unknown op %s\n", op.c_str());
        return true;
    }
    showStates(system, *addr);
    if (g_log) {
        for (const std::string &entry : g_log->entries())
            std::printf("      %s\n", entry.c_str());
    }
    if (!system.violations().empty()) {
        std::printf("  !! %s\n", system.violations().back().c_str());
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    ProtocolKind kind = ProtocolKind::Moesi;
    if (argc > 1) {
        auto parsed = protocolKindFromName(argv[1]);
        if (!parsed) {
            std::fprintf(stderr, "unknown protocol %s\n", argv[1]);
            return 1;
        }
        kind = *parsed;
    }
    std::size_t caches = 3;
    bool verbose = false;
    for (int i = 2; i < argc; ++i) {
        if (std::string(argv[i]) == "-v")
            verbose = true;
        else
            caches = cli::parseCount("protocol_explorer", "caches",
                                     argv[i], 2, 8);
    }

    std::printf("%s\n",
                renderProtocolTable(protocolTable(kind),
                                    paperRenderConfig(
                                        paperTableNumber(kind)))
                    .c_str());

    SystemConfig config;
    config.checkEveryAccess = true;
    System system(config);
    TransactionLog log(16);
    if (verbose) {
        system.bus().addTraceSink(&log);
        g_log = &log;
    }
    for (std::size_t i = 0; i < caches; ++i) {
        CacheSpec spec;
        spec.protocol = kind;
        spec.numSets = 16;
        spec.assoc = 2;
        spec.seed = i + 1;
        system.addCache(spec);
    }

    if (isatty(STDIN_FILENO)) {
        // Built-in demonstration: the migratory-ownership dance.
        std::printf("no stdin script; running the built-in demo\n\n");
        const char *demo[] = {
            "r 0 100", "w 0 100 1", "r 1 100", "w 1 100 2",
            "r 2 100", "w 2 100 3", "r 0 100", "f 2 100", "r 0 100",
        };
        for (const char *line : demo) {
            std::printf("> %s\n", line);
            runLine(system, line);
        }
    } else {
        std::string line;
        while (std::getline(std::cin, line)) {
            if (!runLine(system, line))
                break;
        }
    }

    std::printf("\n%s", renderClientStats(system).c_str());
    std::printf("%s", renderBusStats(system.bus().stats()).c_str());
    std::printf("consistency: %s\n",
                system.violations().empty() ? "OK" : "VIOLATED");
    return system.violations().empty() ? 0 : 1;
}
