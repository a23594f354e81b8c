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
    lines_.resize(geom_.numSets * geom_.assoc);
    tags_.assign(lines_.size(), kNoTag);
    states_.assign(lines_.size(),
                   static_cast<std::uint8_t>(State::I));
    epochOf_.assign(lines_.size(), 0);
}

CacheLine &
TagStore::victimFor(LineAddr la)
{
    std::size_t base = geom_.setOf(la) * geom_.assoc;
    for (std::size_t w = 0; w < geom_.assoc; ++w) {
        std::size_t idx = base + w;
        if (frameValid(idx))
            continue;
        if (epochOf_[idx] != epoch_) {
            // Lazy repair of a bulk-invalidated frame: force the
            // object state to I so the caller's valid() test (and
            // install()'s assert) see the truth.
            lines_[idx].state = State::I;
            states_[idx] = static_cast<std::uint8_t>(State::I);
            tags_[idx] = kNoTag;
            epochOf_[idx] = epoch_;
        }
        return lines_[idx];
    }
    return lines_[base + lru_.victim(geom_.setOf(la))];
}

void
TagStore::evictionSet(LineAddr la, std::vector<CacheLine *> &out)
{
    // victimFor repairs bulk-invalidated frames to state I before
    // returning them, so valid() here is trustworthy.
    out.clear();
    CacheLine &victim = victimFor(la);
    if (victim.valid())
        out.push_back(&victim);
}

void
TagStore::install(CacheLine &line, LineAddr la, State s)
{
    std::size_t idx = static_cast<std::size_t>(&line - lines_.data());
    fbsim_assert(!frameValid(idx));
    fbsim_assert(!line.valid());
    line.addr = la;
    line.state = s;
    line.data.assign(geom_.wordsPerLine(), 0);
    states_[idx] = static_cast<std::uint8_t>(s);
    epochOf_[idx] = epoch_;
    tags_[idx] = isValid(s) ? la : kNoTag;
    if (isValid(s))
        ++validCount_;
    lru_.touch(idx);
}

void
TagStore::bulkInvalidate()
{
    ++epoch_;
    if (epoch_ == 0) {
        // 2^32 bulk invalidations wrapped the epoch; hard-reset every
        // frame so a surviving stale entry cannot alias the new epoch.
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
    std::size_t set = geom_.setOf(line.addr);
    return lru_.nearReplacement(set, frameOf(line) - set * geom_.assoc);
}

void
TagStore::forEachValidLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (std::size_t idx = 0; idx < lines_.size(); ++idx) {
        if (frameValid(idx))
            fn(lines_[idx]);
    }
}

} // namespace fbsim
