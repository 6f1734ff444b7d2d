/**
 * @file
 * FIFO waiters for bounded-queue space: the iMC's RPQ/WPQ and the
 * sharded host link's credit pool.
 *
 * A caller whose line op is rejected parks a retry here; the queue's
 * owner wakes the waiters when space frees. A wakeup fires waiters in
 * arrival order, and only while the queue each one waits on has room.
 * That is exact with respect to waking every waiter: within one
 * wakeup the queues only fill (a drain is always a later event), so
 * once a waiter's queue is full every later waiter on it would be
 * rejected and re-park with no other effect. FIFO-until-full accepts
 * the same waiters in the same order, at about one retry per accepted
 * op instead of one per parked waiter.
 *
 * Read and write waiters sit in separate FIFOs that share one arrival
 * sequence, so a full RPQ never holds back a writer parked behind a
 * reader while their relative order is kept.
 *
 * Registration during a wakeup (from inside a fired waiter) follows
 * two rules. The first registration made by a fired waiter is its
 * re-park: it keeps the waiter's arrival number, so the waiter keeps
 * its place ahead of later arrivals. And any registration blocks its
 * queue for the rest of the wakeup: callers only park after a
 * rejection, so that queue is full anyway, and the rule bounds every
 * wakeup to one firing per waiter parked before it began.
 */

#ifndef NVDIMMC_IMC_SPACE_WAITERS_HH
#define NVDIMMC_IMC_SPACE_WAITERS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "imc/request.hh"

namespace nvdimmc::imc
{

/** The bounded queue a parked caller waits on. */
enum class QueueKind : std::uint8_t { Read, Write };

/** Parked "space freed" retries, woken FIFO-until-full. */
class SpaceWaiters
{
  public:
    /** Park @p cb until queue @p q has room. */
    void
    park(QueueKind q, Callback cb)
    {
        if (!st_)
            st_ = std::make_unique<State>();
        State& st = *st_;
        const auto qi = static_cast<std::size_t>(q);
        std::uint64_t seq = st.nextSeq++;
        if (st.waking) {
            st.blocked[qi] = true;
            if (st.inherit != kNoSeq) {
                seq = st.inherit;
                st.inherit = kNoSeq;
            }
        }
        auto& fifo = st.fifos[qi];
        // A re-park's arrival number is older than most of the FIFO:
        // keep the FIFO sorted (usually an O(1) insert at the front).
        auto pos = fifo.empty() || fifo.back().seq < seq
                       ? fifo.end()
                       : std::upper_bound(
                             fifo.begin(), fifo.end(), seq,
                             [](std::uint64_t s, const Waiter& w) {
                                 return s < w.seq;
                             });
        fifo.insert(pos, Waiter{seq, std::move(cb)});
        ++parked_;
    }

    bool empty() const { return parked_ == 0; }

    /**
     * Fire parked waiters in arrival order while @p has_room(queue)
     * holds for the queue each waits on; with none parked, one check.
     * Not reentrant: a waiter's retry never frees space synchronously.
     */
    template <typename HasRoom>
    void
    wake(HasRoom&& has_room)
    {
        if (empty())
            return;
        State& st = *st_;
        NVDC_ASSERT(!st.waking, "reentrant space wakeup");
        st.waking = true;
        st.blocked = {false, false};
        for (;;) {
            std::size_t pick = kNone;
            for (std::size_t qi = 0; qi < st.fifos.size(); ++qi) {
                const auto& fifo = st.fifos[qi];
                if (st.blocked[qi] || fifo.empty())
                    continue;
                if (pick == kNone ||
                    fifo.front().seq < st.fifos[pick].front().seq)
                    pick = qi;
            }
            if (pick == kNone)
                break;
            if (!has_room(static_cast<QueueKind>(pick))) {
                st.blocked[pick] = true;
                continue;
            }
            Waiter w = std::move(st.fifos[pick].front());
            st.fifos[pick].pop_front();
            --parked_;
            ++fired_;
            st.inherit = w.seq;
            w.cb();
        }
        st.inherit = kNoSeq;
        st.waking = false;
    }

    /** Waiters fired so far (each is one retry). */
    std::uint64_t fired() const { return fired_; }

  private:
    static constexpr std::uint64_t kNoSeq =
        std::numeric_limits<std::uint64_t>::max();
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Waiter
    {
        std::uint64_t seq;
        Callback cb;
    };

    /** The FIFOs and the per-wakeup state. */
    struct State
    {
        /** Indexed by QueueKind; each sorted by arrival number. */
        std::array<std::deque<Waiter>, 2> fifos;
        std::uint64_t nextSeq = 0;
        bool waking = false;
        std::array<bool, 2> blocked{};
        /** Arrival number the firing waiter's first re-park inherits. */
        std::uint64_t inherit = kNoSeq;
    };

    /** Allocated at the first park: most queues never back-pressure,
     *  and their owner then carries a pointer and two counters. */
    std::unique_ptr<State> st_;
    std::size_t parked_ = 0;
    std::uint64_t fired_ = 0;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_SPACE_WAITERS_HH
