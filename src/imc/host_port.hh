/**
 * @file
 * Host memory port: routes CPU line/bulk traffic across the channel
 * topology.
 *
 * The CPU-side components (cache model, memcpy engine) address one
 * flat interleaved physical space; the port translates each 64 B line
 * to its owning channel's iMC via the ChannelInterleave map and splits
 * bulk transfers into per-channel pieces. With one channel every call
 * forwards straight to the single iMC — same call sequence, same
 * ticks — which keeps channels=1 byte-identical to the pre-topology
 * simulator.
 *
 * In sharded (parallel-in-time) mode the port is *the* host/channel
 * seam: every CPU-side call becomes a mailbox message to the owning
 * channel's shard, stamped one host-link latency ahead, and every
 * completion posts back the same way. Host-side calls never touch
 * channel state directly; iMC back-pressure still reaches the host
 * through per-channel link credits. Each accepted line op consumes a
 * credit; the credit returns (one link latency back) once the
 * channel-side iMC accepts the op out of the port's FIFO, so a full
 * RPQ/WPQ eventually rejects host calls just like the classic path —
 * delayed by one round trip, which is exactly what a real posted
 * buffer of linkDepth entries would do. whenSpace() then parks the
 * waiter host-side; returning credits wake the parked waiters in
 * arrival order while credits remain (SpaceWaiters' FIFO discipline,
 * the same one the iMC applies to its queues).
 */

#ifndef NVDIMMC_IMC_HOST_PORT_HH
#define NVDIMMC_IMC_HOST_PORT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/shard.hh"
#include "dram/channel_interleave.hh"
#include "imc/imc.hh"

namespace nvdimmc::imc
{

/** Interleave-aware front-end over the per-channel iMCs. */
class HostPort
{
  public:
    /** Multi-channel port over @p imcs (one per channel, in channel
     *  order), routed by @p interleave. */
    HostPort(std::vector<Imc*> imcs,
             const dram::ChannelInterleave& interleave);

    /** Single-channel convenience: identity routing to @p imc. */
    explicit HostPort(Imc& imc);

    std::uint32_t channels() const
    {
        return static_cast<std::uint32_t>(imcs_.size());
    }
    const dram::ChannelInterleave& interleave() const
    {
        return interleave_;
    }
    Imc& imc(std::uint32_t channel) { return *imcs_[channel]; }
    const Imc& imc(std::uint32_t channel) const
    {
        return *imcs_[channel];
    }

    /** Owning channel of a flat line address. */
    std::uint32_t channelOf(Addr flat) const
    {
        return interleave_.route(flat).channel;
    }

    /** Enqueue a 64 B line read on the owning channel.
     *  @return false if that channel's read queue is full. */
    bool readLine(Addr flat, std::uint8_t* buf, Callback done);

    /** Post a 64 B line write on the owning channel.
     *  @return false if that channel's WPQ is full. */
    bool writeLine(Addr flat, const std::uint8_t* data, Callback done);

    /** Park a one-shot retry on the channel owning @p flat (the one
     *  that just rejected the caller's line) until queue @p q has
     *  room; in sharded mode, until a link credit returns (reads and
     *  writes share the credit pool). */
    void whenSpace(Addr flat, QueueKind q, Callback cb);

    /** Parked retries fired so far at every wake site behind this
     *  port: its link-credit waiters plus each iMC's queue waiters.
     *  A cost counter; read it after the run. */
    std::uint64_t spaceWakeups() const;

    /**
     * Analytic bulk transfer of [flat, flat+bytes): byte counts are
     * split per owning channel at interleave granules and each slice
     * runs on its channel's iMC concurrently; @p done fires when the
     * slowest slice completes. One channel == one iMC call.
     */
    void bulkTransfer(Addr flat, std::uint32_t bytes, bool is_write,
                      Callback done);

    /**
     * Switch the port to sharded routing: host-side calls post
     * mailbox messages through @p coord to the owning channel's
     * shard, stamped @p link_latency past the host clock (completions
     * cross back the same way). @p shard_eqs holds one queue per
     * channel, channel order; @p link_depth is the per-channel credit
     * pool (posted ops not yet accepted by the channel's iMC). Must
     * be called before any traffic.
     */
    void enableSharding(ShardCoordinator& coord, EventQueue& host_eq,
                        std::vector<EventQueue*> shard_eqs,
                        Tick link_latency, std::uint32_t link_depth);

    /** Is sharded routing enabled? */
    bool sharded() const { return coord_ != nullptr; }

    /** Host-link credits consumed (line ops posted to channel
     *  @p ch but not yet accepted by its iMC), summed over all
     *  channels when @p ch is ~0u. 0 in classic (non-sharded) mode,
     *  where there is no posted link buffer. A telemetry gauge; read
     *  from the host shard only. */
    std::uint32_t linkCreditsInUse(std::uint32_t ch = ~0u) const
    {
        if (!coord_)
            return 0;
        std::uint32_t used = 0;
        for (std::uint32_t i = 0; i < shardStates_.size(); ++i)
            if (ch == ~0u || ch == i)
                used += linkDepth_ - shardStates_[i].credits;
        return used;
    }

    /**
     * @name Device-message seam (sharded mode only).
     *
     * A transport backend (e.g. the CXL link model) sends its own
     * host<->device messages outside the line/bulk path. They must
     * ride the same promise accounting as line ops, or the
     * coordinator could advance the host past a response's arrival:
     * postDevice() counts one owed host-bound message at post time,
     * completeDevice() delivers it. Every postDevice() must be
     * balanced by exactly one completeDevice() on the same channel.
     */
    /** @{ */
    /** Host-side: run @p fn on channel @p ch's shard @p delay past
     *  the host clock (@p delay >= the link latency / quantum). */
    void postDevice(std::uint32_t ch, Tick delay, Callback fn);
    /** Channel-side: run @p done on the host shard @p delay past the
     *  channel clock, balancing one postDevice(). */
    void completeDevice(std::uint32_t ch, Tick delay, Callback done);
    /** @} */

    /**
     * The channel->host link's adaptive-lookahead promise: kTickNever
     * while channel @p ch provably has nothing host-bound in flight —
     * every posted line op and bulk slice has already pushed its
     * credit and completion into the mailbox, and the channel never
     * emits to the host spontaneously (CP acks are read by host
     * polling). Queried between rounds on the coordinating thread.
     */
    ShardCoordinator::Promise lookaheadFn(std::uint32_t ch);

  private:
    /** One deferred line op queued channel-side in sharded mode. */
    struct PendingOp
    {
        bool isWrite = false;
        bool hasData = false; ///< Caller supplied a write payload.
        Addr local = 0;
        std::uint8_t* buf = nullptr;       ///< Read destination.
        std::array<std::uint8_t, 64> data; ///< Write payload copy.
        Callback done;
    };

    /**
     * Per-channel sharded-mode state. The host fields are only
     * touched on the coordinating thread during host windows; the
     * channel fields only by whichever worker runs the shard's
     * window. The barrier between phases is all the synchronization
     * the split needs.
     */
    struct ShardState
    {
        /** @name Host-side. */
        /** @{ */
        std::uint32_t credits = 0;
        SpaceWaiters spaceWaiters;
        /** Host-bound messages this channel owes (credits +
         *  completions), counted when their trigger op posts; promise
         *  input. */
        std::uint64_t postedMsgs = 0;
        /** @} */

        /** @name Channel-side. */
        /** @{ */
        EventQueue* eq = nullptr;
        std::deque<PendingOp> fifo;
        bool waiting = false; ///< A whenSpace() retry is pending.
        /** Host-bound messages actually pushed into the mailbox;
         *  equal to postedMsgs exactly when the link is provably
         *  quiet. */
        std::uint64_t completedMsgs = 0;
        /** @} */
    };

    void postOp(std::uint32_t ch, PendingOp op);
    void execLine(std::uint32_t ch, PendingOp op);
    void pump(std::uint32_t ch);
    void returnCredit(std::uint32_t ch);
    /** Redirect an iMC completion back to the host shard. */
    Callback wrapDone(std::uint32_t ch, Callback done);

    std::vector<Imc*> imcs_;
    dram::ChannelInterleave interleave_;

    ShardCoordinator* coord_ = nullptr;
    EventQueue* hostEq_ = nullptr;
    Tick linkLatency_ = 0;
    std::uint32_t linkDepth_ = 0;
    std::vector<ShardState> shardStates_;
};

} // namespace nvdimmc::imc

#endif // NVDIMMC_IMC_HOST_PORT_HH
