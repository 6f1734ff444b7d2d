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
 * Every cross-shard interaction goes through a mailbox message stamped
 * at least one quantum into the future, where the quantum is the
 * modeled host-link latency (the binding term of the auto-derived
 * bound; see core::NvdimmcSystem::quantumBound). Time advances in
 * rounds:
 *
 *   1. deliver the host's pending messages into the shard queues
 *      (their stamps are never below the shard clocks),
 *   2. in one pass over the shards, find the earliest runnable tick
 *      and the window end E = min over shards s of
 *      max(peek(s) + quantum, promise(s)); a shard with no runnable
 *      event cannot emit anything this round and contributes nothing,
 *   3. run every channel shard's window [clock, E) in shard order (a
 *      shard with no event before E only has its clock moved); shard
 *      code never calls across the seam, it appends host-bound
 *      messages to one mailbox,
 *   4. admit that mailbox into the host queue in post order; the
 *      shards ran in shard order, so its messages dispatch in (tick,
 *      shard, post order),
 *   5. run the host window [clock, E); host calls into a port post
 *      messages stamped now+quantum >= E, so nothing can land in a
 *      shard's past.
 *
 * Adaptive lookahead (the promise term in step 2) is null-message
 * style: a shard may register a promise function returning a lower
 * bound on the stamp of the *next* message it will ever send the host
 * — kTickNever when the owning port can prove it has nothing in
 * flight (no posted-but-unacknowledged ops), which lets the host run
 * ahead past the static quantum. Promises are queried only between
 * rounds; the runtime conservative checker (below) still verifies
 * every actual message against the window it was posted in, so an
 * unsound promise trips an assertion instead of corrupting time.
 *
 * The per-window schedule, the mailbox order and every message stamp
 * depend only on the machine, never on `SystemConfig::threads`
 * beyond selecting this model (threads >= 1). Windows with no
 * runnable event anywhere are skipped in one jump, so idle simulated
 * time is free, as in the serial kernel.
 *
 * Rounds run inline on purpose: each ~200 ns round carries only a
 * handful of events, too few for a cross-thread barrier to pay
 * (DESIGN.md §6d).
 */

#ifndef NVDIMMC_COMMON_SHARD_HH
#define NVDIMMC_COMMON_SHARD_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/event_queue.hh"
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
    using Fn = std::function<void()>;
    /** Returns a lower bound on the stamp of the next message a
     *  shard will send the host (kTickNever = provably nothing in
     *  flight; 0 = no promise beyond the static bound). Queried
     *  between rounds only. */
    using Promise = std::function<Tick()>;

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
     * Register @p promise as shard @p shard's adaptive lookahead on
     * top of the static quantum (replacing any earlier one). Call
     * before the first run.
     */
    void setPromise(std::uint32_t shard, Promise promise);

    /**
     * Post @p fn to run on shard @p shard's queue at tick @p when.
     * Host phase (or pre-run setup) only. The conservative checker
     * asserts the stamp cannot land in the shard's past — tripping it
     * means the quantum exceeds the cross-shard latency bound.
     */
    void postToShard(std::uint32_t shard, Tick when, Fn fn);

    /**
     * Post @p fn to run on the host queue at tick @p when. Device
     * phase only, from code running in @p shard's window; admitted
     * after every shard's window, in (tick, shard, post order).
     */
    void postToHost(std::uint32_t shard, Tick when, Fn fn);

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
    /** One mailbox message. */
    struct Msg
    {
        Tick when;
        Fn fn;
    };

    void deliverToShards();
    /**
     * One pass over the host and every shard: caches each shard's
     * next event tick in peek_ and returns the earliest runnable tick
     * anywhere (kTickNever if none). With @p bound set, also stores
     * the window end bound there: min over shards of the earliest
     * stamp the shard could send the host (kTickNever if no shard
     * can emit at all).
     */
    Tick scan(Tick* bound);
    /** Advance every clock to @p t; no shard may hold an event
     *  before it. */
    void advanceAll(Tick t);
    /** Execute one window ending at @p end across all shards, then
     *  the host. Needs peek_ from a scan() since the last delivery. */
    void round(Tick end);
    /** Schedule every message of @p box on @p q, in order. */
    static void admit(EventQueue& q, std::vector<Msg>& box);

    EventQueue& host_;
    std::vector<EventQueue*> shards_;
    const Tick quantum_;

    /** Pending deliveries into shard i (host posts during its
     *  window); admitted at the top of the next round. */
    std::vector<std::vector<Msg>> pending_;
    /** Host-bound messages of the running device phase, in (shard,
     *  post order); admitted after it. */
    std::vector<Msg> toHost_;
    std::vector<Tick> peek_; ///< Next event tick per shard (scan()).
    std::vector<Promise> promises_; ///< Per shard; may be empty.

    bool inRound_ = false;
    Tick windowEnd_ = 0; ///< End of the in-flight window.
    std::uint64_t windows_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_SHARD_HH
