/**
 * @file
 * Sector cache storage (section 5.1, [Hill84]).
 *
 * A sector cache associates one address tag with a *sector* of several
 * transfer subsectors.  Here the subsector equals the system line size
 * (it must - section 5.1 explains why the transfer unit has to be
 * standardized), so each sector entry carries one tag plus an
 * independent MOESI state and data array per subsector.  Tag storage
 * shrinks by the sector factor; the price is sector-granular
 * allocation (installing a new sector may evict several valid, even
 * owned, subsectors at once).
 */

#ifndef FBSIM_CACHE_SECTOR_STORE_H_
#define FBSIM_CACHE_SECTOR_STORE_H_

#include "cache/line_store.h"
#include "cache/lru_stamps.h"

namespace fbsim {

/** Shape of a sector store. */
struct SectorGeometry
{
    std::size_t lineBytes = 32;       ///< transfer subsector size
    std::size_t subsectorsPerSector = 4;
    std::size_t numSets = 16;         ///< sector sets (power of two)
    std::size_t assoc = 2;            ///< sectors per set

    /** Total data capacity in bytes. */
    std::size_t
    capacityBytes() const
    {
        return lineBytes * subsectorsPerSector * numSets * assoc;
    }

    /** Sector address of a line. */
    LineAddr sectorOf(LineAddr la) const
    { return la / subsectorsPerSector; }

    /** Subsector index of a line within its sector. */
    std::size_t subOf(LineAddr la) const
    { return la % subsectorsPerSector; }

    /** Set index of a sector. */
    std::size_t setOf(LineAddr sector) const
    { return sector % numSets; }

    /** fatal()s on malformed parameters. */
    void validate() const;
};

/** Sector-organized line store; sectors replace by LRU. */
class SectorStore : public LineStore
{
  public:
    /** @param geometry sector shape (validated here). */
    explicit SectorStore(const SectorGeometry &geometry);

    const SectorGeometry &geometry() const { return geom_; }

    std::size_t wordsPerLine() const override
    { return geom_.lineBytes / kWordBytes; }

    CacheLine *find(LineAddr la) override;
    const CacheLine *peek(LineAddr la) const override;
    void evictionSet(LineAddr la,
                     std::vector<CacheLine *> &out) override;
    CacheLine &install(LineAddr la, State s) override;
    void touch(const CacheLine &line) override;
    bool nearReplacement(const CacheLine &line) const override;
    void forEachValidLine(
        const std::function<void(const CacheLine &)> &fn) const override;
    std::size_t validLineCount() const override;

    /** Number of resident sector tags (for tag-economy statistics). */
    std::size_t validSectorCount() const;

  private:
    /** One sector frame: a tag plus per-subsector lines. */
    struct Sector
    {
        bool tagValid = false;
        LineAddr sector = 0;   ///< sector address (lineAddr / K)
        std::vector<CacheLine> subs;

        bool
        anyValid() const
        {
            for (const CacheLine &line : subs) {
                if (line.valid())
                    return true;
            }
            return false;
        }
    };

    Sector *findSector(LineAddr sector);
    const Sector *findSector(LineAddr sector) const;
    std::size_t frameOf(const CacheLine &line) const;

    SectorGeometry geom_;
    LruStamps lru_;                 // one stamp per sector frame
    std::vector<Sector> sectors_;   // sets x ways, row-major
};

} // namespace fbsim

#endif // FBSIM_CACHE_SECTOR_STORE_H_
