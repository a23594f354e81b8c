/**
 * @file
 * The processor half of the model's transition executor, shared by the
 * flat model (model.cc) and the two-level model (hier_model.cc).
 * Private to src/mc.
 *
 * LocalExec mirrors SnoopingCache::dispatchLocal/executeLocal: it picks
 * an alternative of the master's kind-filtered local cell, runs purely
 * local transitions in place and hands every bus command to the
 * derived executor, which mirrors the bus that carries it.  The derived
 * class (CRTP) supplies
 *
 *   kTag        the violation prefix ("MC", "MC-hier");
 *   transact()  the bus transaction: (master, line, cmd, signals,
 *               write data) -> BusOutcome;
 *   render()    the state suffix every violation carries.
 *
 * Successor generation runs this once per enumerated transition, so
 * the clean path allocates nothing: the local cell is read in place and
 * violation text is only formatted on failure.
 */

#ifndef FBSIM_MC_LOCAL_EXEC_H_
#define FBSIM_MC_LOCAL_EXEC_H_

#include <algorithm>
#include <cstdarg>

#include "common/logging.h"
#include "mc/model.h"

namespace fbsim {
namespace mc {

/** May a copy-back cache pick this alternative?  (The model's caches
 *  are all copy-back; SnoopingCache::kindFiltered applies the same.) */
inline bool
copyBackMayPick(const LocalAction &a)
{
    return (a.kinds & kindBit(ClientKind::CopyBack)) != 0;
}

/** The number of alternatives of `cell` a copy-back cache picks from. */
inline std::size_t
copyBackAlternatives(const LocalCell &cell)
{
    return static_cast<std::size_t>(
        std::count_if(cell.begin(), cell.end(), copyBackMayPick));
}

/** What a bus transaction returns to its master. */
struct BusOutcome
{
    bool ch = false;   ///< wired-OR CH as the master observes it
    Word data = 0;     ///< fill data (Read)
};

/** One processor event's executor, minus its bus (see file comment). */
template <class Derived>
class LocalExec
{
  public:
    LocalExec(const ModelConfig &cfg, ModelState &st, ChoiceFeed &feed,
              std::vector<ChoiceRecord> *log)
        : cfg_(cfg), st_(st), feed_(feed), log_(log)
    {
    }

    StepResult
    run(const ModelEvent &ev)
    {
        if (ev.ev == LocalEvent::Write) {
            // Advance the shared image first (System::write updates
            // the oracle from the same value the access carries).
            wval_ = nextWriteValue(st_, ev.line);
            st_.image[ev.line] = wval_;
        }
        result_.value = dispatchLocal(ev.cache, ev.line, ev.ev, 0);
        return std::move(result_);
    }

  protected:
    std::size_t
    pick(std::size_t cache, std::size_t n)
    {
        std::size_t idx = feed_.pick(cache, n);
        fbsim_assert(idx < n);
        if (log_) {
            log_->push_back({static_cast<std::uint8_t>(cache),
                             static_cast<std::uint8_t>(n),
                             static_cast<std::uint8_t>(idx)});
        }
        return idx;
    }

    /** Fail the step with "<kTag>: <message><render()>". */
    __attribute__((format(printf, 2, 3))) void
    fail(const char *fmt, ...)
    {
        std::string why = Derived::kTag;
        why += ": ";
        va_list ap;
        va_start(ap, fmt);
        why += vstrprintf(fmt, ap);
        va_end(ap);
        why += static_cast<Derived &>(*this).render();
        result_.ok = false;
        result_.violations.push_back(std::move(why));
    }

    ModelCopy &cp(std::size_t c, std::size_t l)
    { return copyAt(cfg_, st_, c, l); }

    const ModelConfig &cfg_;
    ModelState &st_;
    StepResult result_;

  private:
    /** Mirror of SnoopingCache::dispatchLocal: the picked alternative
     *  is the k-th copy-back one of the cell, taken in place. */
    Word
    dispatchLocal(std::size_t c, std::size_t l, LocalEvent ev, int depth)
    {
        fbsim_assert(depth < 3);
        const State s = cp(c, l).s;
        const LocalCell &cell = cfg_.tables[c]->local(s, ev);
        const std::size_t n = copyBackAlternatives(cell);
        if (n == 0) {
            // The paper's "--" cells: Pass/Flush of an unheld (or
            // silently droppable) line is a no-op at the API level.
            if (ev == LocalEvent::Pass || ev == LocalEvent::Flush)
                return 0;
            fail("%s cache %zu: no legal action for state %s on local %s",
                 cfg_.tables[c]->name().c_str(), c,
                 std::string(stateName(s)).c_str(),
                 std::string(localEventName(ev)).c_str());
            return 0;
        }
        std::size_t k = pick(c, n);
        for (const LocalAction &action : cell) {
            if (copyBackMayPick(action) && k-- == 0)
                return executeLocal(c, l, action, ev, depth);
        }
        fbsim_panic("copy-back alternative count changed mid-dispatch");
    }

    /** Mirror of SnoopingCache::executeLocal. */
    Word
    executeLocal(std::size_t c, std::size_t l, const LocalAction &action,
                 LocalEvent ev, int depth)
    {
        if (action.readThenWrite) {
            fbsim_assert(ev == LocalEvent::Write);
            dispatchLocal(c, l, LocalEvent::Read, depth + 1);
            if (!result_.ok)
                return 0;
            return dispatchLocal(c, l, LocalEvent::Write, depth + 1);
        }

        ModelCopy &copy = cp(c, l);

        if (!action.usesBus) {
            // Purely local transition: the engine asserts the line is
            // resident (dispatchLocal located it).
            if (copy.s == State::I) {
                fail("%s cache %zu: purely local action on an invalid "
                     "line (local %s)",
                     cfg_.tables[c]->name().c_str(), c,
                     std::string(localEventName(ev)).c_str());
                return 0;
            }
            if (ev == LocalEvent::Write)
                copy.value = wval_;
            Word out = copy.value;
            copy.s = action.next.resolve(false);
            return out;
        }

        Derived &bus = static_cast<Derived &>(*this);
        MasterSignals sig{action.ca, action.im, action.bc};
        switch (action.cmd) {
          case BusCmd::Read: {
            // Fill (read miss or read-for-ownership).  The enumerated
            // geometry is eviction-free, so allocateFor reduces to the
            // install.
            BusOutcome r = bus.transact(c, l, BusCmd::Read, sig, 0);
            if (!result_.ok)
                return 0;
            copy.value = r.data;
            copy.s = action.next.resolve(r.ch);
            if (ev == LocalEvent::Write && isValid(copy.s))
                copy.value = wval_;
            return copy.value;
          }

          case BusCmd::WriteWord: {
            BusOutcome r =
                bus.transact(c, l, BusCmd::WriteWord, sig, wval_);
            if (!result_.ok)
                return 0;
            if (copy.s != State::I) {
                copy.value = wval_;
                copy.s = action.next.resolve(r.ch);
            }
            return wval_;
          }

          case BusCmd::WriteLine: {
            // Push (Pass keeps the copy, Flush discards it).
            fbsim_assert(copy.s != State::I);
            BusOutcome r =
                bus.transact(c, l, BusCmd::WriteLine, sig, copy.value);
            if (!result_.ok)
                return 0;
            Word out = copy.value;
            copy.s = action.next.resolve(r.ch);
            return out;
          }

          case BusCmd::AddrOnly: {
            // Pure invalidate; no data phase.
            fbsim_assert(copy.s != State::I);
            BusOutcome r = bus.transact(c, l, BusCmd::AddrOnly, sig, 0);
            if (!result_.ok)
                return 0;
            if (ev == LocalEvent::Write)
                copy.value = wval_;
            copy.s = action.next.resolve(r.ch);
            return copy.value;
          }

          case BusCmd::Sync:
            break;
        }
        fail("protocol table issued an unmodelled bus command");
        return 0;
    }

    ChoiceFeed &feed_;
    std::vector<ChoiceRecord> *log_;
    Word wval_ = 0;
};

} // namespace mc
} // namespace fbsim

#endif // FBSIM_MC_LOCAL_EXEC_H_
