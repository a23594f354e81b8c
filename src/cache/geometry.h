/**
 * @file
 * Cache geometry: line size, set count, associativity and lines per
 * sector, plus the address arithmetic derived from them.
 *
 * Section 5.1 of the paper argues that a Futurebus system must
 * standardize on a single line size; fbsim enforces this by making the
 * line size a System-wide constant that every cache geometry must
 * match (see sim/system.h).
 */

#ifndef FBSIM_CACHE_GEOMETRY_H_
#define FBSIM_CACHE_GEOMETRY_H_

#include <bit>
#include <cstddef>

#include "common/types.h"

namespace fbsim {

/**
 * Shape of one cache: line size, sets, ways and lines per sector.
 * Each way of a set is a frame holding one tag and linesPerSector
 * consecutive lines; 1 is a conventional cache, more is section 5.1's
 * sector cache [Hill84], whose subsector is the system line.
 */
struct CacheGeometry
{
    std::size_t lineBytes = 32;   ///< bytes per line (power of two, >= 8)
    std::size_t numSets = 64;     ///< sets (power of two)
    std::size_t assoc = 4;        ///< ways per set (>= 1)
    std::size_t linesPerSector = 1;   ///< lines per frame (power of two)

    /** 64-bit words per line. */
    std::size_t wordsPerLine() const { return lineBytes / kWordBytes; }

    /** Total capacity in bytes. */
    std::size_t capacityBytes() const
    { return lineBytes * numSets * assoc * linesPerSector; }

    /**
     * Line address containing the byte address.  lineBytes, numSets
     * and linesPerSector are powers of two (validate() enforces it),
     * so the address arithmetic below is shift/mask rather than the
     * integer divisions the compiler would otherwise emit for runtime
     * divisors - these run on every cache lookup.
     */
    LineAddr
    lineOf(Addr a) const
    {
        return a >> std::countr_zero(lineBytes);
    }

    /** First byte address of a line. */
    Addr
    lineBase(LineAddr la) const
    {
        return la << std::countr_zero(lineBytes);
    }

    /** Index of the word within its line. */
    std::size_t
    wordIndex(Addr a) const
    {
        return (a & (lineBytes - 1)) / kWordBytes;
    }

    /** log2(linesPerSector): 0 for a conventional cache. */
    unsigned sectorShift() const
    { return static_cast<unsigned>(std::countr_zero(linesPerSector)); }

    /** Sector address of a line (the line itself when unsectored). */
    LineAddr sectorOf(LineAddr la) const { return la >> sectorShift(); }

    /** Index of a line within its sector. */
    std::size_t subOf(LineAddr la) const
    { return la & (linesPerSector - 1); }

    /** Set index for a sector address. */
    std::size_t setOf(LineAddr sector) const
    { return sector & (numSets - 1); }

    /** fatal()s if the geometry is malformed (sizes, powers of two). */
    void validate() const;
};

} // namespace fbsim

#endif // FBSIM_CACHE_GEOMETRY_H_
