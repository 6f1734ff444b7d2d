/**
 * @file
 * Conservative parallel-in-time execution over sharded event queues.
 *
 * A sharded simulation splits the machine into one *host* shard (the
 * CPU-side components: driver, cache model, memcpy engine, workloads)
 * plus a set of device shards. The classic topology is one shard per
 * memory channel; with media splitting each channel contributes two —
 * a DDR-side shard (iMC, bus, DRAM, NVMC controller + firmware) and a
 * media shard (FTL + Z-NAND) — joined by the same mailbox seam. Each
 * shard owns a private EventQueue, and every round runs on the
 * calling thread.
 *
 * Correctness rests on a classic conservative-lookahead argument.
 * Every cross-shard interaction goes through a mailbox message stamped
 * at least L ticks into the future, where L is the modeled latency of
 * the *link* it crosses. Links are per ordered pair: host<->DDR-shard
 * links carry the host-link latency (the binding term of the
 * auto-derived sync quantum; see core::NvdimmcSystem::quantumBound),
 * while firmware<->media links carry the µs-scale media command
 * latency — so the coordinator derives *per-pair* lookahead instead of
 * one global minimum. Time advances in rounds:
 *
 *   1. deliver pending messages into the shard queues (a sorted batch
 *      per shard; their stamps are never below the shard clocks),
 *   2. in one pass over the shards, find the earliest runnable tick
 *      and the window end E = min over every link (s -> d) of
 *      max(peek(s) + L(s,d), promise(s,d)); a shard with no runnable
 *      event cannot emit anything this round and contributes nothing,
 *   3. run every device shard's window [clock, E) in shard order (a
 *      shard with no event before E only has its clock moved); shard
 *      code never calls across the seam, it appends messages (to the
 *      host or a peer shard) to its outbox,
 *   4. route the outboxes in shard order: host-bound messages merge
 *      deterministically — (tick, shard, post order) — into the host
 *      queue; peer-bound messages queue for the next round's delivery,
 *   5. run the host window [clock, E); host calls into a port post
 *      messages stamped now+L >= E, so nothing can land in a shard's
 *      past.
 *
 * Adaptive lookahead (the promise term in step 2) is null-message
 * style: a link may register a promise function returning a lower
 * bound on the stamp of the *next* message that will ever cross it —
 * kTickNever when the owning port can prove it has nothing in flight
 * (no posted-but-unacknowledged ops), which lets the neighbours run
 * ahead past the static quantum. Promises are queried only between
 * rounds; the runtime conservative checker (below) still verifies
 * every actual message against the window it was posted in, so an
 * unsound promise trips an assertion instead of corrupting time.
 *
 * The per-window schedule, the mailbox merge order and every message
 * stamp depend only on the machine, never on `SystemConfig::threads`
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
 * Barrier-quantum scheduler over one host EventQueue and N device
 * shard EventQueues, executing every round on the calling thread.
 */
class ShardCoordinator
{
  public:
    using Fn = std::function<void()>;
    /** Returns a lower bound on the stamp of the next message to
     *  cross the owning link (kTickNever = provably nothing in
     *  flight; 0 = no promise beyond the static bound). Queried
     *  between rounds only. */
    using Promise = std::function<Tick()>;
    /** Link destination naming the host shard. */
    static constexpr std::int32_t kToHost = -1;

    /**
     * @param host     the host shard's queue (also the delegation
     *                 target: host.setCoordinator(this) makes the
     *                 public run methods drive the whole system).
     * @param shards   one queue per device shard.
     * @param quantum  conservative sync quantum for the default
     *                 shard->host links (every shard starts with one);
     *                 also the host's own output bound. The caller
     *                 must guarantee every message crossing a link is
     *                 stamped at least that link's latency ahead of
     *                 the posting shard's clock.
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
    /** Is a sync window currently executing? Ports use this to route
     *  pre/post-run calls (preconditioning, post-mortem dumps)
     *  directly instead of through a mailbox nobody will drain. */
    bool inRound() const { return inRound_; }

    /**
     * Declare (or replace) the outgoing link from @p src to @p dest
     * (a shard index, or kToHost). @p latency is the minimum lead
     * every message crossing it carries; the optional @p promise adds
     * adaptive lookahead on top. A shard's first setLink() discards
     * its default shard->host quantum link, so a fully-specified
     * topology only pays for the links it really has. Call before the
     * first run.
     */
    void setLink(std::uint32_t src, std::int32_t dest, Tick latency,
                 Promise promise = {});

    /**
     * Post @p fn to run on shard @p shard's queue at tick @p when.
     * Host phase (or pre-run setup) only. The conservative checker
     * asserts the stamp cannot land in the shard's past — tripping it
     * means the quantum exceeds the cross-shard latency bound.
     */
    void postToShard(std::uint32_t shard, Tick when, Fn fn);

    /**
     * Post @p fn to run on the host queue at tick @p when. Device
     * phase only, from code running in @p shard's window; delivered
     * after every shard's window, merged deterministically.
     */
    void postToHost(std::uint32_t shard, Tick when, Fn fn);

    /**
     * Post @p fn to run on peer shard @p to's queue at tick @p when.
     * Device phase only, from code running in shard @p from's window
     * (the firmware <-> media seam); routed after the device phase
     * and delivered before the next round.
     */
    void postToPeer(std::uint32_t from, std::uint32_t to, Tick when,
                    Fn fn);

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
    struct Msg
    {
        Tick when;
        std::int32_t dest; ///< Shard index, or kToHost.
        Fn fn;
    };

    /** One outgoing link and its conservative bound. */
    struct Link
    {
        std::int32_t dest;
        Tick latency;
        Promise promise;
    };

    void deliverToShards();
    /**
     * One pass over the host and every shard: caches each shard's
     * next event tick in peek_ and returns the earliest runnable tick
     * anywhere (kTickNever if none). With @p bound set, also stores
     * the window end bound there: min over links of the earliest
     * stamp the source shard could emit across it (kTickNever if no
     * shard can emit at all).
     */
    Tick scan(Tick* bound);
    /** Advance every clock to @p t; no shard may hold an event
     *  before it. */
    void advanceAll(Tick t);
    /** Execute one window ending at @p end across all shards, then
     *  the host. Needs peek_ from a scan() since the last delivery. */
    void round(Tick end);
    /** Admit a sorted-by-tick mailbox into @p q. */
    static void admit(EventQueue& q,
                      std::vector<EventQueue::TimedCallback>& box);

    EventQueue& host_;
    std::vector<EventQueue*> shards_;
    const Tick quantum_;

    std::vector<std::vector<Msg>> outbox_; ///< Shard i -> host/peers.
    /** Pending deliveries into shard i (host posts during its window,
     *  routed peer messages after each device phase); admitted at the
     *  top of the next round. */
    std::vector<std::vector<EventQueue::TimedCallback>> pending_;
    std::vector<EventQueue::TimedCallback> merge_; ///< Merge scratch.
    std::vector<Tick> peek_; ///< Next event tick per shard (scan()).

    std::vector<std::vector<Link>> links_; ///< Per-shard outgoing.
    std::vector<bool> defaultLinks_; ///< links_[s] still the default?

    bool inRound_ = false;
    Tick windowEnd_ = 0; ///< End of the in-flight window.
    std::uint64_t windows_ = 0;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_SHARD_HH
