#include "cache/geometry.h"

#include "common/logging.h"

namespace fbsim {

namespace {

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

void
CacheGeometry::validate() const
{
    if (lineBytes < kWordBytes || !isPow2(lineBytes))
        fbsim_fatal("line size %zu must be a power of two >= %zu",
                    lineBytes, kWordBytes);
    if (!isPow2(numSets))
        fbsim_fatal("set count %zu must be a power of two", numSets);
    if (assoc == 0)
        fbsim_fatal("associativity must be at least 1");
    if (!isPow2(linesPerSector))
        fbsim_fatal("subsector count %zu must be a power of two",
                    linesPerSector);
}

} // namespace fbsim
