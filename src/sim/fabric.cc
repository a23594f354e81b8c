#include "sim/fabric.h"

#include "common/logging.h"

namespace fbsim {

namespace {

/** Cap on recorded violations and fault events; property sweeps run
 *  far past the first inconsistency and must not grow these without
 *  bound. */
constexpr std::size_t kMaxRecorded = 1000;

} // namespace

Fabric::Fabric(const FabricConfig &config)
    : config_(config)
{
    std::size_t words = config_.lineBytes / kWordBytes;
    fbsim_assert(words > 0);
    memory_ = std::make_unique<MainMemory>(words);
    slave_ = std::make_unique<MainMemorySlave>(*memory_);
    bus_ = std::make_unique<Bus>(*slave_, config_.cost, config_.maxBusRetries);
    bus_->setSnoopFilterEnabled(config_.snoopFilter);
    bus_->setSnoopCrossCheck(config_.snoopFilterCrossCheck);
    checker_ =
        std::make_unique<CoherenceChecker>(*memory_, config_.lineBytes);
    // The checker observes completed transactions to maintain its
    // dirty-line set for incremental per-access scans; when nothing
    // will consume that set, skip the per-access bookkeeping.
    bus_->addTraceSink(checker_.get());
    checker_->setTrackDirty(config_.checkEveryAccess &&
                            config_.incrementalCheck);
    if (config_.faults && config_.faults->anyEnabled()) {
        faults_ = std::make_unique<FaultInjector>(*config_.faults);
        bus_->setFaultInjector(faults_.get());
        slave_->setFaultInjector(faults_.get());
        // Every checker message carries the injector's reproduction
        // tag: seed + schedule + transaction index.
        checker_->setAnnotator(
            [this]() { return faults_->describe(); });
    }
}

Fabric::~Fabric() = default;

void
Fabric::attachTrace(TraceSink *sink)
{
    fbsim_assert(sink != nullptr);
    trace_ = sink;
    bus_->addTraceSink(sink);
}

std::size_t
Fabric::addBoard(std::string name, std::string trip_tag, bool pullable)
{
    Board board;
    board.name = std::move(name);
    board.tripTag = std::move(trip_tag);
    board.pullable = pullable;
    boards_.push_back(std::move(board));
    return boards_.size() - 1;
}

MasterId
Fabric::addCacheOn(Bus &bus, MasterId bus_id, std::size_t board,
                   const CacheSpec &spec, std::size_t lines_per_sector)
{
    SnoopingCacheConfig cfg;
    cfg.geometry = {config_.lineBytes, spec.numSets, spec.assoc,
                    lines_per_sector};
    cfg.kind = spec.writeThrough ? ClientKind::WriteThrough
                                 : ClientKind::CopyBack;
    cfg.discardNearReplacement = spec.discardNearReplacement;
    const ProtocolTable &table =
        spec.table ? *spec.table : protocolTable(spec.protocol);
    auto chooser = spec.makeChooser
                       ? spec.makeChooser()
                       : makeChooser(spec.chooser, spec.policy,
                                     spec.seed);
    auto cache = std::make_unique<SnoopingCache>(bus_id, bus, table,
                                                 std::move(chooser), cfg);
    bus.attach(cache.get());
    checker_->addCache(cache.get(), board);
    SnoopingCache *raw = cache.get();
    return addMaster(std::move(cache), raw, board);
}

MasterId
Fabric::addMaster(std::unique_ptr<BusClient> client, SnoopingCache *cache,
                  std::size_t board)
{
    fbsim_assert(board < boards_.size());
    MasterId id = static_cast<MasterId>(clients_.size());
    clients_.push_back(std::move(client));
    caches_.push_back(cache);
    masterBoard_.push_back(board);
    noProgress_.push_back(0);
    return id;
}

BusClient &
Fabric::client(MasterId id)
{
    fbsim_assert(id < clients_.size());
    return *clients_[id];
}

SnoopingCache *
Fabric::cacheOf(MasterId id)
{
    fbsim_assert(id < caches_.size());
    return caches_[id];
}

const SnoopingCache *
Fabric::cacheOf(MasterId id) const
{
    fbsim_assert(id < caches_.size());
    return caches_[id];
}

CacheStats
Fabric::cacheTotals() const
{
    CacheStats totals;
    for (const SnoopingCache *cache : caches_) {
        if (cache)
            totals += cache->stats();
    }
    return totals;
}

void
Fabric::addLeafBus(Bus &bus)
{
    fbsim_assert(leafBuses_.size() + 1 == boards_.size());
    leafBuses_.push_back(&bus);
}

Bus &
Fabric::leafBus(std::size_t k)
{
    fbsim_assert(k < leafBuses_.size());
    return *leafBuses_[k];
}

std::size_t
Fabric::boardOf(MasterId id) const
{
    fbsim_assert(id < masterBoard_.size());
    return masterBoard_[id];
}

bool
Fabric::boardPulled(std::size_t board) const
{
    fbsim_assert(board < boards_.size());
    return boards_[board].pulled;
}

AccessOutcome
Fabric::read(MasterId id, Addr addr)
{
    AccessOutcome outcome = client(id).read(addr);
    // Value verification is cheap and always on; the structural scan
    // only runs when configured.  The violation string is only built
    // on an actual mismatch - the match test is one oracle probe.  A
    // faulted read returned no data, so there is no value to verify
    // (and blaming a timing fault as corruption would be wrong).
    if (!outcome.faulted &&
        outcome.value != checker_->expected(addr)) {
        recordReadMismatch(addr, outcome.value);
        onReadMismatch(id, addr);
    }
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
Fabric::write(MasterId id, Addr addr, Word value)
{
    AccessOutcome outcome = client(id).write(addr, value);
    // A faulted write never reached the shared image; advancing the
    // oracle would charge the fault to every later reader.
    if (!outcome.faulted)
        checker_->noteWrite(addr, value);
    postAccess(id, outcome);
    return outcome;
}

AccessOutcome
Fabric::flush(MasterId id, Addr addr, bool keep_copy)
{
    AccessOutcome outcome = client(id).flush(addr, keep_copy);
    postAccess(id, outcome);
    return outcome;
}

void
Fabric::recordReadMismatch(Addr addr, Word value)
{
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(checker_->noteRead(addr, value));
}

bool
Fabric::wouldUseBus(MasterId id, bool is_write, Addr addr) const
{
    const SnoopingCache *cache = caches_[id];
    if (!cache)
        return true;   // non-caching masters always use the bus
    State s = cache->lineState(addr);
    if (!is_write)
        return s == State::I;
    if (cache->kind() == ClientKind::WriteThrough)
        return true;   // every write goes through
    // Copy-back: M and E writes are silent; O, S and I need the bus.
    return !(s == State::M || s == State::E);
}

std::vector<std::string>
Fabric::checkNow() const
{
    return checker_->checkInvariants();
}

void
Fabric::checkAfterAccess()
{
    std::vector<std::string> v = config_.incrementalCheck
                                     ? checker_->checkDirtyLines()
                                     : checker_->checkInvariants();
    for (std::string &s : v) {
        if (violations_.size() >= kMaxRecorded)
            break;
        violations_.push_back(std::move(s));
    }
}

void
Fabric::postAccess(MasterId id, const AccessOutcome &outcome)
{
    // Rejoins can be due without an injector (a manual quarantine()
    // with reintegrateAfterCycles set), so they are serviced first.
    if (scheduledRejoins_ > 0)
        serviceRejoins();
    if (faults_) {
        unsigned &rounds = noProgress_[id];
        if (!outcome.faulted) {
            rounds = 0;
        } else if (++rounds >= config_.watchdogRounds) {
            const unsigned faulted = rounds;
            rounds = 0;
            tripBoard(masterBoard_[id],
                      strprintf("master %u made no forward progress "
                                "over %u consecutive faulted accesses",
                                id, faulted));
        }
        afterWatchdog();
        maybeFlipData();
    }
    if (config_.checkEveryAccess)
        checkAfterAccess();
}

void
Fabric::serviceRejoins()
{
    const Cycles now = bus_->stats().busyCycles;
    for (std::size_t b = 0; b < boards_.size(); ++b) {
        if (boards_[b].rejoinDue != kNeverDue &&
            now >= boards_[b].rejoinDue)
            reintegrateBoard(b);
    }
}

void
Fabric::maybeFlipData()
{
    if (!faults_->shouldFlipData())
        return;
    // Victim selection comes from the data-flip stream itself, so the
    // whole fault - when and where - replays from the seed.  A pulled
    // board's caches are all quarantined, hence never candidates.
    std::vector<SnoopingCache *> candidates;
    for (SnoopingCache *cache : caches_) {
        if (cache && !cache->quarantined())
            candidates.push_back(cache);
    }
    if (candidates.empty())
        return;
    Rng &rng = faults_->dataFlipRng();
    SnoopingCache *victim = candidates[rng.below(candidates.size())];
    std::optional<LineAddr> la = victim->corruptRandomBit(rng);
    if (!la)
        return;
    faults_->noteDataFlip();
    // No bus transaction touched the line, so dirty it by hand for
    // the incremental scan.
    checker_->markLineDirty(*la);
    ladderEvent("data-flip", victim->clientId(),
                strprintf("data flip: cache %u line 0x%llx %s",
                          victim->clientId(),
                          static_cast<unsigned long long>(*la),
                          faults_->describe().c_str()));
}

void
Fabric::tripBoard(std::size_t board, const std::string &why)
{
    ++watchdogTrips_;
    std::string msg =
        strprintf("watchdog: %s%s %s", boards_[board].tripTag.c_str(),
                  why.c_str(), faults_->describe().c_str());
    fbsim_warn("%s", msg.c_str());
    ladderEvent("watchdog-trip", board, std::move(msg));
    // Escalation ladder: the bus already retried, the watchdog has now
    // tripped; only a board that keeps tripping gets pulled.
    if (config_.quarantineOnWatchdog &&
        ++boards_[board].trips >= config_.quarantineAfterTrips)
        quarantineBoard(board);
}

bool
Fabric::quarantineBoard(std::size_t board)
{
    fbsim_assert(board < boards_.size());
    if (!boards_[board].pullable || boards_[board].pulled)
        return false;
    ++quarantines_;
    // Rendered before the pull: its flushes advance the injector's
    // transaction counter that the reproduction tag prints.
    std::string msg = strprintf("quarantine: %s flushed and isolated%s",
                                boards_[board].name.c_str(),
                                replayTag().c_str());
    fbsim_warn("%s", msg.c_str());
    ladderEvent("quarantine", board, std::move(msg));
    // P896 live removal: every board leaves under a quiesced window -
    // no site fires while its owned data drains to memory, so the
    // flushes converge and nothing is lost.
    if (faults_)
        faults_->setQuiesced(true);
    pullBoard(board);
    if (faults_)
        faults_->setQuiesced(false);
    boards_[board].pulled = true;
    clearProgress(board);
    if (config_.reintegrateAfterCycles > 0 &&
        boards_[board].rejoinDue == kNeverDue) {
        boards_[board].rejoinDue =
            bus_->stats().busyCycles + config_.reintegrateAfterCycles;
        ++scheduledRejoins_;
    }
    return true;
}

bool
Fabric::reintegrateBoard(std::size_t board)
{
    fbsim_assert(board < boards_.size());
    Board &b = boards_[board];
    if (!b.pulled)
        return false;
    if (b.rejoinDue != kNeverDue) {
        b.rejoinDue = kNeverDue;
        --scheduledRejoins_;
    }
    const std::string how = rejoinBoard(board);
    b.pulled = false;
    b.trips = 0;   // the rejoined board starts a fresh ladder
    ++reintegrations_;
    std::string msg = strprintf("reintegrate: %s %s%s", b.name.c_str(),
                                how.c_str(), replayTag().c_str());
    fbsim_warn("%s", msg.c_str());
    ladderEvent("reintegrate", board, std::move(msg));
    return true;
}

void
Fabric::clearProgress(std::size_t board)
{
    for (std::size_t id = 0; id < masterBoard_.size(); ++id) {
        if (masterBoard_[id] == board)
            noProgress_[id] = 0;
    }
}

void
Fabric::ladderEvent(const char *kind, std::size_t track, std::string msg)
{
    if (trace_)
        trace_->onInstant(kind, kTraceFaultPid,
                          static_cast<std::uint32_t>(track),
                          bus_->stats().busyCycles, msg);
    if (faultEvents_.size() < kMaxRecorded)
        faultEvents_.push_back(std::move(msg));
}

std::string
Fabric::replayTag() const
{
    return faults_ ? strprintf(" %s", faults_->describe().c_str())
                   : std::string();
}

} // namespace fbsim
