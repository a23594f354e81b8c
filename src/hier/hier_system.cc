#include "hier/hier_system.h"

#include "common/logging.h"
#include "protocols/non_caching.h"

namespace fbsim {

namespace {

/** Leaf-bus master id reserved for the bridge's down-forwards. */
constexpr MasterId kBridgeLeafId = 0xfffe;

} // namespace

HierSystem::HierSystem(const HierConfig &config, std::size_t clusters)
    : Fabric(config), config_(config)
{
    fbsim_assert(clusters >= 1);
    std::size_t words = config_.lineBytes / kWordBytes;
    FaultInjector *faults = faultInjector();
    // Every bus in the fabric gets the injector: the root so its own
    // sites fire, the leaves so a bridge exhausting its forward
    // retries surfaces a coherent converged=false give-up (not a
    // panic) that the masters' watchdog then sees.  The checker
    // observes every bus so incremental per-access scans see lines
    // dirtied by any cluster's transactions.
    clusters_.resize(clusters);
    bridgeTripsSeen_.assign(clusters, 0);
    for (std::size_t i = 0; i < clusters; ++i) {
        // Only an armed injector can quiesce a pull's flushes.
        addBoard(strprintf("leaf segment %zu", i),
                 strprintf("cluster %zu: ", i), faults != nullptr);
        Cluster &cluster = clusters_[i];
        cluster.bridge = std::make_unique<BusBridge>(
            static_cast<MasterId>(i), kBridgeLeafId, rootBus(), words);
        cluster.bus = std::make_unique<Bus>(
            *cluster.bridge, config_.cost, config_.maxBusRetries);
        cluster.bus->setSnoopFilterEnabled(config_.snoopFilter);
        cluster.bus->setSnoopCrossCheck(config_.snoopFilterCrossCheck);
        cluster.bus->addTraceSink(&checker());
        cluster.bridge->setLeafBus(cluster.bus.get());
        rootBus().attach(cluster.bridge.get());
        // With three or more clusters a third cluster's CH cannot be
        // gathered during another leaf's address phase; resolve CH
        // conditionals conservatively (legal per notes 9/10).
        cluster.bridge->setConservativeCh(clusters > 2);
        if (faults) {
            cluster.bus->setFaultInjector(faults);
            cluster.bridge->setFaultInjector(faults, i);
        }
        // H1/H2: the checker verifies the bridge's conservative
        // filters never unsafely exclude a holder.
        attachFilterChecks(i);
    }
}

HierSystem::~HierSystem() = default;

MasterId
HierSystem::addCache(std::size_t cluster, const CacheSpec &spec)
{
    fbsim_assert(cluster < clusters_.size());
    if (!spec.table) {
        switch (spec.protocol) {
          case ProtocolKind::Moesi:
          case ProtocolKind::Berkeley:
          case ProtocolKind::Dragon:
            break;
          default:
            fbsim_fatal("hierarchical systems require MOESI-class "
                        "protocols (no BS aborts); %s is not one",
                        std::string(protocolKindName(spec.protocol))
                            .c_str());
        }
    }
    Cluster &c = clusters_[cluster];
    // The cluster is the cache's board, which the checker's H1/H2
    // holder counts attribute its copies to.
    return addCacheOn(*c.bus, c.nextLeafId++, cluster, spec);
}

MasterId
HierSystem::addNonCachingMaster(std::size_t cluster,
                                bool broadcast_writes)
{
    fbsim_assert(cluster < clusters_.size());
    Cluster &c = clusters_[cluster];
    return addMaster(std::make_unique<NonCachingMaster>(
                         c.nextLeafId++, *c.bus, config_.lineBytes,
                         broadcast_writes),
                     nullptr, cluster);
}

Bus &
HierSystem::leafBus(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    return *clusters_[cluster].bus;
}

BusBridge &
HierSystem::bridge(std::size_t cluster)
{
    fbsim_assert(cluster < clusters_.size());
    return *clusters_[cluster].bridge;
}

void
HierSystem::attachTrace(TraceSink *sink)
{
    Fabric::attachTrace(sink);
    for (Cluster &c : clusters_)
        c.bus->addTraceSink(sink);
}

void
HierSystem::afterWatchdog()
{
    ++accessCount_;
    // The bridges run their own forward watchdog; poll for new trips
    // and charge them to the same per-cluster ladder.
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        std::uint64_t trips = clusters_[k].bridge->stats().watchdogTrips;
        if (trips > bridgeTripsSeen_[k]) {
            bridgeTripsSeen_[k] = trips;
            tripBoard(k, strprintf("bridge %zu forward watchdog tripped",
                                   k));
        }
    }
    if (config_.scrubEveryAccesses > 0 &&
        accessCount_ % config_.scrubEveryAccesses == 0)
        scrubFilters();
}

void
HierSystem::attachFilterChecks(std::size_t k)
{
    BusBridge *b = clusters_[k].bridge.get();
    checker().attachClusterFilter(
        k, [b](LineAddr la) { return b->mayBeLocal(la); },
        [b](LineAddr la) { return b->mayBeRemote(la); });
}

std::vector<LineSet>
HierSystem::presence() const
{
    std::vector<LineSet> held(clusters_.size());
    for (MasterId id = 0; id < numClients(); ++id) {
        const SnoopingCache *cache = cacheOf(id);
        if (!cache || cache->quarantined())
            continue;
        LineSet &mine = held[clusterOf(id)];
        cache->forEachValidLine(
            [&](const CacheLine &line) { mine[line.addr] = 1; });
    }
    return held;
}

FilterAudit
HierSystem::scrubBridge(std::size_t k, const std::vector<LineSet> &held)
{
    LineSet remote;
    for (std::size_t j = 0; j < held.size(); ++j) {
        if (j != k)
            held[j].forEach([&](LineAddr la, std::uint8_t) {
                remote[la] = 1;
            });
    }
    FilterAudit audit =
        clusters_[k].bridge->auditFilters(held[k], remote, /*repair=*/true);
    scrubDivergence_ += audit.total();
    return audit;
}

std::uint64_t
HierSystem::scrubFilters()
{
    // Exact presence per cluster, recomputed from the TagStores; each
    // active bridge's filters are audited against them and repaired.
    const std::vector<LineSet> held = presence();
    std::uint64_t divergence = 0;
    const FaultInjector *faults = faultInjector();
    for (std::size_t k = 0; k < clusters_.size(); ++k) {
        if (clusterQuarantined(k))
            continue;   // suspended filters are scrubbed at rejoin
        FilterAudit audit = scrubBridge(k, held);
        if (audit.total() > 0 && trace()) {
            trace()->onInstant(
                "filter-scrub", kTraceFaultPid,
                static_cast<std::uint32_t>(k),
                rootBus().stats().busyCycles,
                strprintf("bridge %zu: %llu stale, %llu missing "
                          "entries repaired %s",
                          k,
                          static_cast<unsigned long long>(
                              audit.staleLocal + audit.staleRemote),
                          static_cast<unsigned long long>(
                              audit.missingLocal + audit.missingRemote),
                          faults ? faults->describe().c_str() : ""));
        }
        divergence += audit.total();
    }
    return divergence;
}

void
HierSystem::pullBoard(std::size_t cluster)
{
    // The whole board-bus leaves under quarantineBoard's quiesced
    // window, which also keeps the bridge's own fault draws and stall
    // window out of the flushes.
    Cluster &c = clusters_[cluster];
    for (MasterId id = 0; id < numClients(); ++id) {
        SnoopingCache *cache = cacheOf(id);
        if (clusterOf(id) != cluster || !cache || cache->quarantined())
            continue;
        cache->quarantine();
        c.bus->setSnooperSuspended(cache->clientId(), true);
        checker().removeCache(cache);
    }

    // Detached from the root, the bridge neither snoops nor forwards
    // down; its filters lawfully decay until the rejoin scrub.
    rootBus().setSnooperSuspended(static_cast<MasterId>(cluster), true);
    checker().detachClusterFilter(cluster);
}

std::string
HierSystem::rejoinBoard(std::size_t cluster)
{
    Cluster &c = clusters_[cluster];
    for (MasterId id = 0; id < numClients(); ++id) {
        SnoopingCache *cache = cacheOf(id);
        if (clusterOf(id) != cluster || !cache)
            continue;
        if (cache->reintegrate()) {
            c.bus->setSnooperSuspended(cache->clientId(), false);
            checker().addCache(cache, cluster);
        }
    }
    // The rejoined segment's caches are all invalid; scrub the
    // bridge's decayed filters to the exact recomputed presence sets
    // *before* it resumes snooping, so its first down-forward decision
    // is already sound, then re-arm the H1/H2 checks.
    FilterAudit audit = scrubBridge(cluster, presence());
    rootBus().setSnooperSuspended(static_cast<MasterId>(cluster), false);
    attachFilterChecks(cluster);
    return strprintf("rejoined cold, filters scrubbed (%llu entries)",
                     static_cast<unsigned long long>(audit.total()));
}

} // namespace fbsim
