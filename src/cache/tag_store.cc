#include "cache/tag_store.h"

#include <algorithm>

#include "common/logging.h"

namespace fbsim {

namespace {

const CacheGeometry &
validated(const CacheGeometry &geometry)
{
    geometry.validate();
    return geometry;
}

} // namespace

TagStore::TagStore(const CacheGeometry &geometry)
    : geom_(validated(geometry)), lru_(geom_.numSets, geom_.assoc)
{
    lines_.resize(geom_.numSets * geom_.assoc * geom_.linesPerSector);
    tags_.assign(lines_.size(), kNoTag);
    states_.assign(lines_.size(),
                   static_cast<std::uint8_t>(State::I));
    epochOf_.assign(lines_.size(), 0);
}

bool
TagStore::frameFree(std::size_t frame) const
{
    const std::size_t first = frame << geom_.sectorShift();
    for (std::size_t idx = first; idx < first + geom_.linesPerSector;
         ++idx) {
        if (lineValid(idx))
            return false;
    }
    return true;
}

bool
TagStore::holdsSectorOf(std::size_t frame, LineAddr la) const
{
    const std::size_t first = frame << geom_.sectorShift();
    for (std::size_t idx = first; idx < first + geom_.linesPerSector;
         ++idx) {
        if (lineValid(idx) &&
            geom_.sectorOf(tags_[idx]) == geom_.sectorOf(la))
            return true;
    }
    return false;
}

CacheLine &
TagStore::victimFor(LineAddr la)
{
    const std::size_t first = firstFrame(la);
    const std::size_t none = first + geom_.assoc;
    std::size_t frame = none;
    if (geom_.linesPerSector > 1) {
        // A sector keeps all its resident lines in one frame.
        for (std::size_t f = first; f < none && frame == none; ++f) {
            if (holdsSectorOf(f, la))
                frame = f;
        }
    }
    for (std::size_t f = first; f < none && frame == none; ++f) {
        if (frameFree(f))
            frame = f;
    }
    if (frame == none)
        frame = first + lru_.victim(geom_.setOf(geom_.sectorOf(la)));
    const std::size_t idx = slot(frame, la);
    if (epochOf_[idx] != epoch_) {
        // Lazy repair of a bulk-invalidated slot: force the object
        // state to I so the caller's valid() test (and install()'s
        // assert) see the truth.
        lines_[idx].state = State::I;
        states_[idx] = static_cast<std::uint8_t>(State::I);
        tags_[idx] = kNoTag;
        epochOf_[idx] = epoch_;
    }
    return lines_[idx];
}

void
TagStore::evictionSet(LineAddr la, std::vector<CacheLine *> &out)
{
    // Only the LRU victim frame holds valid lines of another sector:
    // a free frame holds none, la's own sector frame only its own.
    out.clear();
    const std::size_t first = frameOf(victimFor(la))
                              << geom_.sectorShift();
    for (std::size_t idx = first; idx < first + geom_.linesPerSector;
         ++idx) {
        if (lineValid(idx) &&
            geom_.sectorOf(tags_[idx]) != geom_.sectorOf(la))
            out.push_back(&lines_[idx]);
    }
}

void
TagStore::install(CacheLine &line, LineAddr la, State s)
{
    std::size_t idx = static_cast<std::size_t>(&line - lines_.data());
    fbsim_assert(!lineValid(idx));
    fbsim_assert(!line.valid());
    fbsim_assert(geom_.subOf(idx) == geom_.subOf(la));
    line.addr = la;
    line.state = s;
    line.data.assign(geom_.wordsPerLine(), 0);
    states_[idx] = static_cast<std::uint8_t>(s);
    epochOf_[idx] = epoch_;
    tags_[idx] = isValid(s) ? la : kNoTag;
    if (isValid(s))
        ++validCount_;
    lru_.touch(frameOf(line));
}

void
TagStore::bulkInvalidate()
{
    ++epoch_;
    if (epoch_ == 0) {
        // 2^32 bulk invalidations wrapped the epoch; hard-reset every
        // slot so a surviving stale entry cannot alias the new epoch.
        std::fill(tags_.begin(), tags_.end(), kNoTag);
        std::fill(epochOf_.begin(), epochOf_.end(), 0u);
        for (CacheLine &line : lines_)
            line.state = State::I;
    }
    validCount_ = 0;
    lastHit_ = nullptr;
}

bool
TagStore::nearReplacement(const CacheLine &line) const
{
    // frame == set * assoc + way by construction; recovering the way
    // with a multiply avoids a division by the runtime-valued assoc.
    std::size_t set = geom_.setOf(geom_.sectorOf(line.addr));
    return lru_.nearReplacement(set, frameOf(line) - set * geom_.assoc);
}

void
TagStore::forEachValidLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
        if (lineValid(idx))
            fn(lines_[idx]);
    }
}

} // namespace fbsim
