/**
 * @file
 * Per-cache activity counters.
 */

#ifndef FBSIM_PROTOCOLS_CACHE_STATS_H_
#define FBSIM_PROTOCOLS_CACHE_STATS_H_

#include <cstdint>

namespace fbsim {

/** Counters maintained by every cache controller. */
struct CacheStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readHits = 0;
    std::uint64_t writeHits = 0;          ///< completed without the bus
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;        ///< line absent on a write
    std::uint64_t writeSharedBus = 0;     ///< hit but bus needed (O/S)
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;         ///< dirty pushes (evict/flush)
    std::uint64_t invalidationsRecv = 0;  ///< copy killed by a bus event
    std::uint64_t updatesRecv = 0;        ///< copy updated by broadcast
    std::uint64_t interventions = 0;      ///< lines supplied via DI
    std::uint64_t writeCaptures = 0;      ///< words captured via DI
    std::uint64_t abortPushes = 0;        ///< BS abort/push responses
    std::uint64_t dirtyFills = 0;         ///< fills supplied by a cache
    std::uint64_t faultedAccesses = 0;    ///< gave up (fault injection)
    std::uint64_t illegalSnoops = 0;      ///< undefined cells ignored
                                          ///  (a fault or bad table)

    double
    missRatio() const
    {
        std::uint64_t total = reads + writes;
        std::uint64_t misses = readMisses + writeMisses;
        return total == 0 ? 0.0
                          : static_cast<double>(misses) /
                                static_cast<double>(total);
    }

    /** Strict and Interleaved runs of one workload must agree
     *  exactly. */
    bool operator==(const CacheStats &) const = default;

    /** Accumulate (campaign aggregation across a system's caches). */
    CacheStats &
    operator+=(const CacheStats &o)
    {
        reads += o.reads;
        writes += o.writes;
        readHits += o.readHits;
        writeHits += o.writeHits;
        readMisses += o.readMisses;
        writeMisses += o.writeMisses;
        writeSharedBus += o.writeSharedBus;
        evictions += o.evictions;
        writebacks += o.writebacks;
        invalidationsRecv += o.invalidationsRecv;
        updatesRecv += o.updatesRecv;
        interventions += o.interventions;
        writeCaptures += o.writeCaptures;
        abortPushes += o.abortPushes;
        dirtyFills += o.dirtyFills;
        faultedAccesses += o.faultedAccesses;
        illegalSnoops += o.illegalSnoops;
        return *this;
    }
};

} // namespace fbsim

#endif // FBSIM_PROTOCOLS_CACHE_STATS_H_
