#include "imc/host_port.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.hh"
#include "common/shard.hh"

namespace nvdimmc::imc
{

HostPort::HostPort(std::vector<Imc*> imcs,
                   const dram::ChannelInterleave& interleave)
    : imcs_(std::move(imcs)), interleave_(interleave)
{
    NVDC_ASSERT(!imcs_.empty(), "host port needs at least one iMC");
    NVDC_ASSERT(imcs_.size() == interleave_.channels(),
                "iMC count does not match the interleave map");
}

HostPort::HostPort(Imc& imc)
    : imcs_{&imc}, interleave_(1, dram::ChannelInterleave::kPageGranule)
{
}

void
HostPort::enableSharding(ShardCoordinator& coord, EventQueue& host_eq,
                         std::vector<EventQueue*> shard_eqs,
                         Tick link_latency, std::uint32_t link_depth)
{
    NVDC_ASSERT(shard_eqs.size() == imcs_.size(),
                "sharded port needs one event queue per channel");
    NVDC_ASSERT(link_latency > 0,
                "host link latency must be positive (it is the "
                "cross-shard lookahead)");
    NVDC_ASSERT(link_depth > 0,
                "host link depth must be positive or no line op could "
                "ever issue");
    coord_ = &coord;
    hostEq_ = &host_eq;
    linkLatency_ = link_latency;
    linkDepth_ = link_depth;
    shardStates_.resize(imcs_.size());
    for (std::size_t ch = 0; ch < shard_eqs.size(); ++ch) {
        shardStates_[ch].eq = shard_eqs[ch];
        shardStates_[ch].credits = link_depth;
    }
}

void
HostPort::postDevice(std::uint32_t ch, Tick delay, Callback fn)
{
    NVDC_ASSERT(coord_ != nullptr,
                "postDevice is the sharded seam; schedule directly on "
                "the shared queue in serial mode");
    NVDC_ASSERT(delay >= coord_->quantum(),
                "device message lead must cover the sync quantum");
    coord_->postToShard(ch, hostEq_->now() + delay, 1, std::move(fn));
}

void
HostPort::completeDevice(std::uint32_t ch, Tick delay, Callback done)
{
    NVDC_ASSERT(coord_ != nullptr,
                "completeDevice is the sharded seam");
    coord_->postToHost(ch, shardStates_[ch].eq->now() + delay,
                       std::move(done));
}

imc::Callback
HostPort::wrapDone(std::uint32_t ch, Callback done)
{
    if (!done)
        return {};
    // Runs on the channel shard when the iMC completes; the payload
    // crosses the link back and fires on the host shard.
    EventQueue* ceq = shardStates_[ch].eq;
    return [this, ch, ceq, done = std::move(done)] {
        coord_->postToHost(ch, ceq->now() + linkLatency_, done);
    };
}

void
HostPort::postOp(std::uint32_t ch, PendingOp op)
{
    // The op waits in the channel FIFO from post time; the link
    // message only marks its arrival, so the capture fits the queue's
    // inline slot. Ops to one channel arrive in post order (one
    // latency past a monotonic host clock), so the arrivals always
    // cover a prefix of the FIFO. The op owes one credit back, plus a
    // completion if asked for.
    auto& st = shardStates_[ch];
    const std::uint32_t replies = op.done ? 2 : 1;
    st.fifo.push_back(std::move(op));
    coord_->postToShard(ch, hostEq_->now() + linkLatency_, replies,
                        [this, ch] {
                            auto& s = shardStates_[ch];
                            ++s.arrived;
                            if (!s.waiting)
                                pump(ch);
                        });
}

void
HostPort::pump(std::uint32_t ch)
{
    auto& st = shardStates_[ch];
    while (st.arrived > 0) {
        PendingOp& op = st.fifo.front();
        // Pass the completion a *copy* so a rejected attempt leaves
        // the op intact for the whenSpace() retry.
        bool accepted =
            op.isWrite
                ? imcs_[ch]->writeLine(
                      op.local,
                      op.hasData ? op.data.data() : nullptr,
                      wrapDone(ch, op.done))
                : imcs_[ch]->readLine(op.local, op.buf,
                                      wrapDone(ch, op.done));
        if (!accepted) {
            st.waiting = true;
            QueueKind q = op.isWrite ? QueueKind::Write : QueueKind::Read;
            imcs_[ch]->whenSpace(q, [this, ch] {
                shardStates_[ch].waiting = false;
                pump(ch);
            });
            return;
        }
        st.fifo.pop_front();
        --st.arrived;
        // The iMC took the op: its link credit travels back to the
        // host, which may wake a parked whenSpace() waiter.
        coord_->postToHost(ch, st.eq->now() + linkLatency_,
                           [this, ch] { returnCredit(ch); });
    }
}

void
HostPort::returnCredit(std::uint32_t ch)
{
    auto& st = shardStates_[ch];
    ++st.credits;
    st.spaceWaiters.wake([&st](QueueKind) { return st.credits > 0; });
}

bool
HostPort::readLine(Addr flat, std::uint8_t* buf, Callback done)
{
    auto t = interleave_.route(flat);
    if (!coord_)
        return imcs_[t.channel]->readLine(t.local, buf,
                                          std::move(done));
    auto& st = shardStates_[t.channel];
    if (st.credits == 0)
        return false;
    --st.credits;
    PendingOp op;
    op.isWrite = false;
    op.local = t.local;
    op.buf = buf;
    op.done = std::move(done);
    postOp(t.channel, std::move(op));
    return true;
}

bool
HostPort::writeLine(Addr flat, const std::uint8_t* data, Callback done)
{
    auto t = interleave_.route(flat);
    if (!coord_)
        return imcs_[t.channel]->writeLine(t.local, data,
                                           std::move(done));
    auto& st = shardStates_[t.channel];
    if (st.credits == 0)
        return false;
    --st.credits;
    PendingOp op;
    op.isWrite = true;
    op.local = t.local;
    // The iMC copies write data at accept; the sharded port must do
    // the same at post time because the caller's buffer only stays
    // valid for the duration of the (host-side) call. A null payload
    // (storeData off) stays null.
    if (data != nullptr) {
        op.hasData = true;
        std::memcpy(op.data.data(), data, op.data.size());
    }
    op.done = std::move(done);
    postOp(t.channel, std::move(op));
    return true;
}

void
HostPort::whenSpace(Addr flat, QueueKind q, Callback cb)
{
    if (coord_) {
        // Park host-side; returning link credits wake waiters FIFO.
        shardStates_[channelOf(flat)].spaceWaiters.park(q, std::move(cb));
        return;
    }
    imcs_[channelOf(flat)]->whenSpace(q, std::move(cb));
}

std::uint64_t
HostPort::spaceWakeups() const
{
    std::uint64_t n = 0;
    for (const auto& st : shardStates_)
        n += st.spaceWaiters.fired();
    for (const Imc* m : imcs_)
        n += m->spaceWakeups();
    return n;
}

void
HostPort::bulkTransfer(Addr flat, std::uint32_t bytes, bool is_write,
                       Callback done)
{
    if (!coord_ && imcs_.size() == 1) {
        imcs_[0]->bulkTransfer(bytes, is_write, std::move(done));
        return;
    }

    // Split the byte count per owning channel at granule boundaries.
    std::vector<std::uint32_t> per_channel(imcs_.size(), 0);
    const std::uint32_t granule = interleave_.granule();
    Addr cur = flat;
    std::uint32_t left = bytes;
    while (left > 0) {
        Addr in_granule = cur % granule;
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, granule - in_granule));
        per_channel[channelOf(cur)] += chunk;
        cur += chunk;
        left -= chunk;
    }

    // Fan out; the shared countdown fires `done` after the last slice.
    auto remaining = std::make_shared<std::uint32_t>(0);
    for (std::uint32_t b : per_channel)
        if (b > 0)
            ++*remaining;
    if (*remaining == 0) {
        if (done)
            done();
        return;
    }
    auto shared_done = std::make_shared<Callback>(std::move(done));
    Callback slice_done = [remaining, shared_done] {
        if (--*remaining == 0 && *shared_done)
            (*shared_done)();
    };
    for (std::uint32_t ch = 0; ch < per_channel.size(); ++ch) {
        if (per_channel[ch] == 0)
            continue;
        if (!coord_) {
            imcs_[ch]->bulkTransfer(per_channel[ch], is_write,
                                    slice_done);
            continue;
        }
        // Sharded: the slice request crosses the link to its channel;
        // each completion crosses back via wrapDone, so the countdown
        // (and `done`) only ever run on the host shard.
        coord_->postToShard(
            ch, hostEq_->now() + linkLatency_, 1,
            [this, ch, b = per_channel[ch], is_write, slice_done] {
                imcs_[ch]->bulkTransfer(b, is_write,
                                        wrapDone(ch, slice_done));
            });
    }
}

} // namespace nvdimmc::imc
