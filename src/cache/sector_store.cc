#include "cache/sector_store.h"

#include "common/logging.h"

namespace fbsim {

namespace {

bool
isPow2(std::size_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

const SectorGeometry &
validated(const SectorGeometry &geometry)
{
    geometry.validate();
    return geometry;
}

} // namespace

void
SectorGeometry::validate() const
{
    if (lineBytes < kWordBytes || !isPow2(lineBytes))
        fbsim_fatal("subsector size %zu must be a power of two >= %zu",
                    lineBytes, kWordBytes);
    if (subsectorsPerSector == 0)
        fbsim_fatal("sectors need at least one subsector");
    if (!isPow2(numSets))
        fbsim_fatal("sector set count %zu must be a power of two",
                    numSets);
    if (assoc == 0)
        fbsim_fatal("sector associativity must be at least 1");
}

SectorStore::SectorStore(const SectorGeometry &geometry)
    : geom_(validated(geometry)), lru_(geom_.numSets, geom_.assoc)
{
    sectors_.resize(geom_.numSets * geom_.assoc);
    for (Sector &frame : sectors_)
        frame.subs.resize(geom_.subsectorsPerSector);
}

SectorStore::Sector *
SectorStore::findSector(LineAddr sector)
{
    std::size_t set = geom_.setOf(sector);
    for (std::size_t w = 0; w < geom_.assoc; ++w) {
        Sector &frame = sectors_[set * geom_.assoc + w];
        if (frame.tagValid && frame.sector == sector)
            return &frame;
    }
    return nullptr;
}

const SectorStore::Sector *
SectorStore::findSector(LineAddr sector) const
{
    return const_cast<SectorStore *>(this)->findSector(sector);
}

CacheLine *
SectorStore::find(LineAddr la)
{
    Sector *frame = findSector(geom_.sectorOf(la));
    if (!frame)
        return nullptr;
    CacheLine &line = frame->subs[geom_.subOf(la)];
    return line.valid() ? &line : nullptr;
}

const CacheLine *
SectorStore::peek(LineAddr la) const
{
    return const_cast<SectorStore *>(this)->find(la);
}

void
SectorStore::evictionSet(LineAddr la, std::vector<CacheLine *> &out)
{
    out.clear();
    LineAddr sector = geom_.sectorOf(la);
    if (findSector(sector))
        return;   // sector resident: the subsector slot is free
    std::size_t set = geom_.setOf(sector);
    // A reusable frame (never tagged, or tagged but fully invalid)?
    for (std::size_t w = 0; w < geom_.assoc; ++w) {
        Sector &frame = sectors_[set * geom_.assoc + w];
        if (!frame.tagValid || !frame.anyValid())
            return;
    }
    // Evict a whole sector: every valid subsector goes.
    Sector &victim = sectors_[set * geom_.assoc + lru_.victim(set)];
    for (CacheLine &line : victim.subs) {
        if (line.valid())
            out.push_back(&line);
    }
}

CacheLine &
SectorStore::install(LineAddr la, State s)
{
    LineAddr sector = geom_.sectorOf(la);
    Sector *frame = findSector(sector);
    if (!frame) {
        std::size_t set = geom_.setOf(sector);
        for (std::size_t w = 0; w < geom_.assoc; ++w) {
            Sector &cand = sectors_[set * geom_.assoc + w];
            if (!cand.tagValid || !cand.anyValid()) {
                frame = &cand;
                break;
            }
        }
        fbsim_assert(frame != nullptr);
        frame->tagValid = true;
        frame->sector = sector;
        // Retag every subsector slot so line addresses track the tag.
        for (std::size_t k = 0; k < geom_.subsectorsPerSector; ++k) {
            frame->subs[k].addr = sector * geom_.subsectorsPerSector + k;
            frame->subs[k].state = State::I;
            frame->subs[k].data.clear();
        }
        lru_.touch(static_cast<std::size_t>(frame - sectors_.data()));
    }
    CacheLine &line = frame->subs[geom_.subOf(la)];
    fbsim_assert(!line.valid());
    line.addr = la;
    line.state = s;
    line.data.assign(wordsPerLine(), 0);
    return line;
}

std::size_t
SectorStore::frameOf(const CacheLine &line) const
{
    LineAddr sector = geom_.sectorOf(line.addr);
    std::size_t set = geom_.setOf(sector);
    for (std::size_t w = 0; w < geom_.assoc; ++w) {
        const Sector &frame = sectors_[set * geom_.assoc + w];
        if (frame.tagValid && frame.sector == sector)
            return set * geom_.assoc + w;
    }
    fbsim_panic("line not resident in any sector frame");
}

void
SectorStore::touch(const CacheLine &line)
{
    lru_.touch(frameOf(line));
}

bool
SectorStore::nearReplacement(const CacheLine &line) const
{
    std::size_t idx = frameOf(line);
    return lru_.nearReplacement(idx / geom_.assoc, idx % geom_.assoc);
}

void
SectorStore::forEachValidLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const Sector &frame : sectors_) {
        if (!frame.tagValid)
            continue;
        for (const CacheLine &line : frame.subs) {
            if (line.valid())
                fn(line);
        }
    }
}

std::size_t
SectorStore::validLineCount() const
{
    std::size_t n = 0;
    forEachValidLine([&](const CacheLine &) { ++n; });
    return n;
}

std::size_t
SectorStore::validSectorCount() const
{
    std::size_t n = 0;
    for (const Sector &frame : sectors_) {
        if (frame.tagValid && frame.anyValid())
            ++n;
    }
    return n;
}

} // namespace fbsim
