/**
 * @file
 * Conservative parallel-in-time execution over sharded event queues.
 *
 * A sharded simulation splits the machine into one *host* shard (the
 * CPU-side components: driver, cache model, memcpy engine, workloads)
 * plus one shard per memory channel (iMC, bus, DRAM, NVMC controller
 * + firmware, FTL + Z-NAND). Each shard owns a private EventQueue,
 * every channel shard talks only to the host, through one link, and
 * every round runs on the calling thread.
 *
 * Correctness rests on a classic conservative-lookahead argument.
 * Every cross-shard interaction is a message stamped at least one
 * quantum into the future, where the quantum is the modeled host-link
 * latency (the binding term of the auto-derived bound; see
 * core::NvdimmcSystem::quantumBound). A post goes straight into the
 * receiving shard's queue. Time advances in rounds:
 *
 *   1. in one pass over the shards, find the earliest runnable tick
 *      and the window end E = min over shards s that owe the host a
 *      reply of peek(s) + quantum; a shard with no runnable event, or
 *      one that owes nothing, cannot emit anything this round and
 *      contributes nothing,
 *   2. run every channel shard's window [clock, E) in shard order (a
 *      shard with no event before E only has its clock moved); shard
 *      code never calls across the seam, it posts host-bound
 *      messages, which the host queue takes at once,
 *   3. run the host window [clock, E); host calls into a port post
 *      messages stamped now+quantum >= E, so nothing can land in a
 *      shard's past.
 *
 * Posting at once is exact because a round runs on one thread, shards
 * first: a host post lands in a shard queue that does not run again
 * before the next round, and a shard's host-bound post is followed
 * only by later shards' windows, which never touch the host queue. So
 * no message is seen before every window that precedes it has run,
 * and host messages dispatch in (tick, shard, post order).
 *
 * Adaptive lookahead (the owed-reply term in step 1): every host post
 * declares how many host-bound replies it will provoke, and every
 * shard post consumes one. A shard that owes nothing never emits to
 * the host spontaneously, so it does not bound the window, which lets
 * the host run ahead past the static quantum. A reply nobody declared
 * panics at its post, and the runtime conservative checker (below)
 * verifies every message against the window it was posted in.
 *
 * The per-window schedule and every message stamp depend only on the
 * machine, never on `SystemConfig::threads` beyond selecting this
 * model (threads >= 1). Windows with no runnable event anywhere are
 * skipped in one jump, so idle simulated time is free, as in the
 * serial kernel.
 *
 * Rounds run inline on purpose: each ~200 ns round carries only a
 * handful of events, too few for a cross-thread barrier to pay
 * (DESIGN.md §6d).
 */

#ifndef NVDIMMC_COMMON_SHARD_HH
#define NVDIMMC_COMMON_SHARD_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace nvdimmc
{

/**
 * Barrier-quantum scheduler over one host EventQueue and N channel
 * shard EventQueues, executing every round on the calling thread.
 */
class ShardCoordinator
{
  public:
    /**
     * @param host     the host shard's queue (also the delegation
     *                 target: host.setCoordinator(this) makes the
     *                 public run methods drive the whole system).
     * @param shards   one queue per channel shard.
     * @param quantum  conservative sync quantum: the lead every
     *                 message between the host and a shard carries,
     *                 in either direction. The caller must guarantee
     *                 every message is stamped at least that far
     *                 ahead of the posting shard's clock.
     */
    ShardCoordinator(EventQueue& host, std::vector<EventQueue*> shards,
                     Tick quantum);
    ShardCoordinator(const ShardCoordinator&) = delete;
    ShardCoordinator& operator=(const ShardCoordinator&) = delete;

    Tick quantum() const { return quantum_; }
    /** Executing threads: always 1 (rounds run inline). */
    unsigned executors() const { return 1; }
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }
    /** Sync windows executed so far (idle jumps do not count). */
    std::uint64_t windows() const { return windows_; }
    /** Events fired on the host and every shard combined. */
    std::uint64_t totalEventsFired() const;
    /** Callback SBO overflows on the host and every shard combined. */
    std::uint64_t totalSboOverflows() const;

    /**
     * Schedule @p fn on shard @p shard's queue at tick @p when, owing
     * @p replies host-bound messages back from that shard. Host phase
     * (or pre-run setup) only. The conservative checker asserts the
     * stamp cannot land in the shard's past — tripping it means the
     * quantum exceeds the cross-shard latency bound.
     */
    template <typename F>
    void postToShard(std::uint32_t shard, Tick when,
                     std::uint32_t replies, F&& fn)
    {
        checkPost(shard, when);
        owed_[shard] += replies;
        shards_[shard]->schedule(when, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn on the host queue at tick @p when, as one of the
     * replies shard @p shard owes. Device phase only, from code
     * running in @p shard's window.
     */
    template <typename F>
    void postToHost(std::uint32_t shard, Tick when, F&& fn)
    {
        checkPost(shard, when);
        NVDC_ASSERT(owed_[shard] > 0,
                    "shard-to-host reply that no host post declared");
        --owed_[shard];
        host_.schedule(when, std::forward<F>(fn));
    }

    /** @name Drive API (EventQueue delegation targets). */
    /** @{ */
    void runUntil(Tick target);
    /** One *minimal* sync window [next, next+1) at the next runnable
     *  tick — always conservative, and drain loops built on it leave
     *  every clock just past the last event, independent of the
     *  quantum (matching serial end-of-run semantics).
     *  @return false once no shard has pending work. */
    bool runOne();
    std::uint64_t runAll(std::uint64_t max_events);
    /** @} */

  private:
    /** The conservative checker: while a round is in flight the
     *  current window ends at windowEnd_, and a stamp below it could
     *  land in the destination's past. A trip means the sync quantum
     *  exceeds the cross-shard interaction latency. */
    void checkPost(std::uint32_t shard, Tick when) const
    {
        NVDC_ASSERT(shard < shardCount(), "post: bad shard index");
        NVDC_ASSERT(!inRound_ || when >= windowEnd_,
                    "cross-shard message inside the sync window: "
                    "quantum exceeds the conservative lookahead bound");
    }

    /**
     * One pass over the host and every shard: caches each shard's
     * next event tick in peek_ and returns the earliest runnable tick
     * anywhere (kTickNever if none). With @p bound set, also stores
     * the window end bound there: min over shards that owe replies of
     * the earliest stamp the shard could send the host (kTickNever if
     * no shard can emit at all).
     */
    Tick scan(Tick* bound);
    /** Advance every clock to @p t; no shard may hold an event
     *  before it. */
    void advanceAll(Tick t);
    /** Execute one window ending at @p end across all shards, then
     *  the host. Needs peek_ from a scan() since the last host
     *  window. */
    void round(Tick end);

    EventQueue& host_;
    std::vector<EventQueue*> shards_;
    const Tick quantum_;

    std::vector<Tick> peek_; ///< Next event tick per shard (scan()).
    /** Host-bound replies each shard still owes: raised by
     *  postToShard, lowered by postToHost. */
    std::vector<std::uint64_t> owed_;

    bool inRound_ = false;
    Tick windowEnd_ = 0; ///< End of the in-flight window.
    std::uint64_t windows_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_SHARD_HH
