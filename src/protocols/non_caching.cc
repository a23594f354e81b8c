#include "protocols/non_caching.h"

#include "common/logging.h"

namespace fbsim {

NonCachingMaster::NonCachingMaster(MasterId id, Bus &bus,
                                   std::size_t line_bytes,
                                   bool broadcast_writes)
    : id_(id), bus_(bus), lineBytes_(line_bytes),
      broadcastWrites_(broadcast_writes)
{
    fbsim_assert(line_bytes / kWordBytes == bus.wordsPerLine());
}

AccessOutcome
uncachedRead(Bus &bus, MasterId id, LineAddr line, std::size_t word)
{
    BusRequest req;
    req.master = id;
    req.cmd = BusCmd::Read;
    req.sig = {false, false, false};   // "I,R**": no CA asserted
    req.line = line;
    BusResult r = bus.execute(req);
    AccessOutcome outcome;
    outcome.usedBus = true;
    outcome.busTransactions = 1;
    outcome.busCycles = r.cost;
    if (!r.converged) {
        outcome.faulted = true;
        return outcome;
    }
    outcome.value = r.line[word];
    bus.recycleLineBuffer(std::move(r.line));
    return outcome;
}

AccessOutcome
uncachedWrite(Bus &bus, MasterId id, LineAddr line, std::size_t word,
              Word value, bool broadcast)
{
    BusRequest req;
    req.master = id;
    req.cmd = BusCmd::WriteWord;
    req.sig = {false, true, broadcast};   // "I,IM,[BC],W**"
    req.line = line;
    req.wordIdx = word;
    req.wdata = value;
    BusResult r = bus.execute(req);
    AccessOutcome outcome;
    outcome.usedBus = true;
    outcome.busTransactions = 1;
    outcome.busCycles = r.cost;
    outcome.value = value;
    outcome.faulted = !r.converged;
    return outcome;
}

AccessOutcome
NonCachingMaster::read(Addr addr)
{
    ++stats_.reads;
    ++stats_.readMisses;
    AccessOutcome outcome = uncachedRead(bus_, id_, addr / lineBytes_,
                                         (addr % lineBytes_) / kWordBytes);
    if (outcome.faulted)
        ++stats_.faultedAccesses;
    return outcome;
}

AccessOutcome
NonCachingMaster::write(Addr addr, Word value)
{
    ++stats_.writes;
    ++stats_.writeMisses;
    AccessOutcome outcome =
        uncachedWrite(bus_, id_, addr / lineBytes_,
                      (addr % lineBytes_) / kWordBytes, value,
                      broadcastWrites_);
    if (outcome.faulted)
        ++stats_.faultedAccesses;
    return outcome;
}

} // namespace fbsim
