#include "sim/system.h"

#include "common/logging.h"

namespace fbsim {

System::System(const SystemConfig &config)
    : Fabric(config), config_(config)
{
}

void
System::checkProtocolMix(ProtocolKind kind)
{
    // The paper's compatibility claim covers the protocols that keep
    // ownership coherent through the O state or through memory
    // updates; Write-Once's through-to-memory first write collides
    // with a remote O-state owner (the WriteOnceOwnerCollision
    // data-loss class pinned in mixed_system_test).  Refuse the mix at
    // assembly time rather than let the checker find it at run time.
    auto owns = [](ProtocolKind k) {
        return k == ProtocolKind::Moesi || k == ProtocolKind::Berkeley ||
               k == ProtocolKind::Dragon;
    };
    if (!config_.allowIncompatibleMix) {
        for (ProtocolKind prev : stockKinds_) {
            const bool clash =
                (kind == ProtocolKind::WriteOnce && owns(prev)) ||
                (prev == ProtocolKind::WriteOnce && owns(kind));
            if (clash) {
                fbsim_fatal(
                    "incompatible protocol mix on one bus: %s + %s "
                    "(Write-Once's through-to-memory first write "
                    "collides with an O-state owner; set "
                    "SystemConfig::allowIncompatibleMix to assemble "
                    "anyway)",
                    std::string(protocolKindName(prev)).c_str(),
                    std::string(protocolKindName(kind)).c_str());
            }
        }
    }
    stockKinds_.push_back(kind);
}

std::size_t
System::nextBoard(bool caching)
{
    return addBoard(strprintf("cache %zu", numClients()), "", caching);
}

MasterId
System::addCache(const CacheSpec &spec)
{
    if (spec.writeThrough && !spec.table &&
        spec.protocol != ProtocolKind::Moesi)
        fbsim_fatal("write-through clients use the MOESI table's \"*\" "
                    "entries; pick ProtocolKind::Moesi");
    // Write-through clients never hold the O state (memory stays
    // current under them), so only copy-back stock tables join the
    // compatibility guard.
    if (!spec.table && !spec.writeThrough)
        checkProtocolMix(spec.protocol);
    const MasterId id = static_cast<MasterId>(numClients());
    return addCacheOn(bus(), id, nextBoard(true), spec);
}

MasterId
System::addSectorCache(const CacheSpec &spec,
                       std::size_t subsectors_per_sector)
{
    const MasterId id = static_cast<MasterId>(numClients());
    if (spec.writeThrough)
        fbsim_fatal("sector caches are copy-back in fbsim");
    checkProtocolMix(spec.protocol);
    return addCacheOn(bus(), id, nextBoard(true), spec,
                      subsectors_per_sector);
}

MasterId
System::addNonCachingMaster(bool broadcast_writes)
{
    const MasterId id = static_cast<MasterId>(numClients());
    return addMaster(std::make_unique<NonCachingMaster>(
                         id, bus(), config_.lineBytes, broadcast_writes),
                     nullptr, nextBoard(false));
}

AccessOutcome
System::readWords(MasterId id, Addr addr, std::span<Word> out)
{
    AccessOutcome total;
    for (std::size_t i = 0; i < out.size(); ++i) {
        AccessOutcome o = read(id, addr + i * kWordBytes);
        out[i] = o.value;
        total += o;
    }
    if (!out.empty())
        total.value = out[0];
    return total;
}

AccessOutcome
System::writeWords(MasterId id, Addr addr, std::span<const Word> values)
{
    AccessOutcome total;
    for (std::size_t i = 0; i < values.size(); ++i)
        total += write(id, addr + i * kWordBytes, values[i]);
    return total;
}

AccessOutcome
System::syncLine(MasterId id, Addr addr, bool purge)
{
    AccessOutcome total;
    // The issuer's own copy first: an owning issuer pushes locally
    // (Pass keeps the copy for a plain sync; Flush discards on purge);
    // unowned copies drop silently on purge.
    SnoopingCache *own = cacheOf(id);
    if (own && isValid(own->lineState(addr))) {
        bool keep = !purge;
        if (isOwned(own->lineState(addr)) || purge)
            total += own->flush(addr, keep);
    }
    // Then the bus command for everyone else.
    BusRequest req;
    req.master = id;
    req.cmd = BusCmd::Sync;
    req.sig = {false, purge, false};
    req.line = addr / config_.lineBytes;
    BusResult r = bus().execute(req);
    total.usedBus = true;
    total.busTransactions += 1;
    total.busCycles += r.cost;
    if (!r.converged)
        total.faulted = true;
    postAccess(id, total);
    return total;
}

void
System::onReadMismatch(MasterId id, Addr addr)
{
    // Failed data-integrity check: if the reader's own cache holds
    // the line valid, its array is the prime corruption suspect.
    if (config_.quarantineOnIntegrity && faultInjector()) {
        SnoopingCache *cache = cacheOf(id);
        if (cache && isValid(cache->lineState(addr)))
            quarantine(id);
    }
}

void
System::pullBoard(std::size_t board)
{
    // The flush still needs the bus and the other snoopers, so pull
    // the board only after quarantine() has drained it; from then on
    // the empty cache neither snoops nor is scanned by the checker.
    const auto id = static_cast<MasterId>(board);
    SnoopingCache *cache = cacheOf(id);
    cache->quarantine();
    bus().setSnooperSuspended(id, true);
    checker().removeCache(cache);
}

std::string
System::rejoinBoard(std::size_t board)
{
    const auto id = static_cast<MasterId>(board);
    SnoopingCache *cache = cacheOf(id);
    cache->reintegrate();
    checker().addCache(cache, board);
    bus().setSnooperSuspended(id, false);
    clearProgress(board);
    return "rejoined with all lines invalid";
}

} // namespace fbsim
