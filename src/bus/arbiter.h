/**
 * @file
 * Bus arbitration.
 *
 * The Futurebus grants mastership through a distributed arbiter; at
 * the transaction level all that matters is the selection discipline
 * among simultaneous requesters.  fbsim arbitrates round-robin
 * (rotating highest priority, fair).  The timed engine in sim/ uses an
 * Arbiter to order masters contending for the bus.
 */

#ifndef FBSIM_BUS_ARBITER_H_
#define FBSIM_BUS_ARBITER_H_

#include <cstddef>
#include <optional>

#include "common/logging.h"
#include "common/types.h"

namespace fbsim {

/** Selects one requester per grant, round-robin. */
class Arbiter
{
  public:
    /** @param masters number of master ids (0 .. masters-1). */
    explicit Arbiter(std::size_t masters) : masters_(masters)
    {
        fbsim_assert(masters > 0);
    }

    /**
     * Grant the bus to one of the requesting masters: `wants(i)` says
     * whether master i requests.  The predicate is evaluated lazily in
     * the arbiter's own scan order and the scan stops at the first
     * requester, so callers whose predicate is costly (the engine
     * probes each candidate's cache state) pay for only the masters
     * actually examined.
     * @return the granted id, or nullopt when nobody requests.
     */
    template <typename Fn>
    std::optional<MasterId> grantWhere(Fn &&wants)
    {
        for (std::size_t k = 0; k < masters_; ++k) {
            std::size_t i = nextPriority_ + k;
            if (i >= masters_)
                i -= masters_;
            if (wants(i)) {
                nextPriority_ = i + 1 == masters_ ? 0 : i + 1;
                return static_cast<MasterId>(i);
            }
        }
        return std::nullopt;
    }

  private:
    std::size_t masters_;
    std::size_t nextPriority_ = 0;   ///< round-robin token
};

} // namespace fbsim

#endif // FBSIM_BUS_ARBITER_H_
