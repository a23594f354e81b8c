/**
 * @file
 * A non-caching bus master (e.g. an I/O processor) - the "**" rows of
 * Table 1.  It reads without asserting CA, writes with IM (optionally
 * broadcast), and never responds to bus events.
 */

#ifndef FBSIM_PROTOCOLS_NON_CACHING_H_
#define FBSIM_PROTOCOLS_NON_CACHING_H_

#include "bus/bus.h"
#include "protocols/bus_client.h"
#include "protocols/cache_stats.h"

namespace fbsim {

/**
 * The uncached read of the "**" rows: "I,R**", no CA asserted, so no
 * cache changes state on its behalf.  Shared by NonCachingMaster and a
 * quarantined SnoopingCache; a bus give-up comes back `faulted` for
 * the caller to count.
 */
AccessOutcome uncachedRead(Bus &bus, MasterId id, LineAddr line,
                           std::size_t word);

/** The uncached word write: "I,IM,[BC],W**" (BC when `broadcast`). */
AccessOutcome uncachedWrite(Bus &bus, MasterId id, LineAddr line,
                            std::size_t word, Word value, bool broadcast);

/** A cache-less master: every access is a bus transaction. */
class NonCachingMaster : public BusClient
{
  public:
    /**
     * @param id bus module id.
     * @param bus the shared bus.
     * @param line_bytes system line size (for word addressing).
     * @param broadcast_writes assert BC on writes (column 10 vs 9).
     */
    NonCachingMaster(MasterId id, Bus &bus, std::size_t line_bytes,
                     bool broadcast_writes);

    MasterId clientId() const override { return id_; }
    const char *protocolName() const override { return "non-caching"; }

    AccessOutcome read(Addr addr) override;
    AccessOutcome write(Addr addr, Word value) override;
    AccessOutcome flush(Addr, bool) override { return {}; }

    CacheStats &stats() { return stats_; }
    const CacheStats &stats() const { return stats_; }

  private:
    MasterId id_;
    Bus &bus_;
    std::size_t lineBytes_;
    bool broadcastWrites_;
    CacheStats stats_;
};

} // namespace fbsim

#endif // FBSIM_PROTOCOLS_NON_CACHING_H_
