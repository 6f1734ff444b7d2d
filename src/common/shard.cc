#include "common/shard.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace nvdimmc
{

namespace
{

/** t + dt without wrapping past kTickNever. */
inline Tick
satAdd(Tick t, Tick dt)
{
    return dt >= kTickNever - t ? kTickNever : t + dt;
}

} // namespace

ShardCoordinator::ShardCoordinator(EventQueue& host,
                                   std::vector<EventQueue*> shards,
                                   Tick quantum)
    : host_(host),
      shards_(std::move(shards)),
      quantum_(quantum),
      pending_(shards_.size()),
      peek_(shards_.size(), kTickNever),
      promises_(shards_.size())
{
    NVDC_ASSERT(!shards_.empty(), "sharded system needs >= 1 shard");
    NVDC_ASSERT(quantum_ > 0, "sync quantum must be positive");
    for (EventQueue* s : shards_)
        NVDC_ASSERT(s && s != &host_, "bad shard queue");
}

std::uint64_t
ShardCoordinator::totalEventsFired() const
{
    std::uint64_t n = host_.eventsFired();
    for (const EventQueue* s : shards_)
        n += s->eventsFired();
    return n;
}

std::uint64_t
ShardCoordinator::totalSboOverflows() const
{
    std::uint64_t n = host_.sboOverflows();
    for (const EventQueue* s : shards_)
        n += s->sboOverflows();
    return n;
}

void
ShardCoordinator::setPromise(std::uint32_t shard, Promise promise)
{
    NVDC_ASSERT(shard < shardCount(), "setPromise: bad shard index");
    promises_[shard] = std::move(promise);
}

void
ShardCoordinator::postToShard(std::uint32_t shard, Tick when, Fn fn)
{
    NVDC_ASSERT(shard < shardCount(), "postToShard: bad shard index");
    // The conservative checker: while a round is in flight the current
    // window ends at windowEnd_, and a delivery below it could land in
    // the destination shard's past. A trip here means the sync quantum
    // (or an adaptive-lookahead promise) exceeds the cross-shard
    // interaction latency.
    NVDC_ASSERT(!inRound_ ||
                    when >= windowEnd_,
                "cross-shard message inside the sync window: quantum "
                "exceeds the conservative lookahead bound");
    pending_[shard].push_back(Msg{when, std::move(fn)});
}

void
ShardCoordinator::postToHost(std::uint32_t shard, Tick when, Fn fn)
{
    NVDC_ASSERT(shard < shardCount(), "postToHost: bad shard index");
    NVDC_ASSERT(!inRound_ ||
                    when >= windowEnd_,
                "shard-to-host message inside the sync window: an "
                "output promise or the quantum was broken");
    toHost_.push_back(Msg{when, std::move(fn)});
}

void
ShardCoordinator::admit(EventQueue& q, std::vector<Msg>& box)
{
    // No sort needed: the queue orders by (tick, seq), and schedule()
    // hands out sequence numbers in post order, so same-tick messages
    // keep post order and the block's seqs never interleave with any
    // other event's.
    for (Msg& m : box)
        q.schedule(m.when, std::move(m.fn));
    box.clear();
}

void
ShardCoordinator::deliverToShards()
{
    for (std::uint32_t s = 0; s < shardCount(); ++s)
        admit(*shards_[s], pending_[s]);
}

Tick
ShardCoordinator::scan(Tick* bound)
{
    const Tick ph = host_.peekNextTick();
    Tick next = ph;
    // The host's own outputs are bounded by the quantum its ports were
    // built around.
    Tick e = ph == kTickNever ? kTickNever : satAdd(ph, quantum_);
    for (std::uint32_t s = 0; s < shardCount(); ++s) {
        const Tick p = shards_[s]->peekNextTick();
        peek_[s] = p;
        if (p == kTickNever)
            continue; // No event to fire -> nothing can be emitted.
        next = std::min(next, p);
        if (!bound)
            continue;
        Tick b = satAdd(p, quantum_);
        if (promises_[s])
            b = std::max(b, promises_[s]());
        e = std::min(e, b);
    }
    if (bound)
        *bound = e;
    return next;
}

void
ShardCoordinator::advanceAll(Tick t)
{
    for (EventQueue* s : shards_)
        s->runWindow(t);
    host_.runWindow(t);
}

void
ShardCoordinator::round(Tick end)
{
    inRound_ = true;
    windowEnd_ = end;
    ++windows_;

    try {
        for (std::uint32_t s = 0; s < shardCount(); ++s) {
            // peek_ is still exact: a shard's queue changes only while
            // its own window runs, and deliveries wait for next round.
            if (peek_[s] < end)
                shards_[s]->runWindow(end);
            else
                shards_[s]->skipWindow(end);
        }
    } catch (...) {
        inRound_ = false;
        throw;
    }

    // The shards ran in order, so toHost_ holds (shard, post order);
    // admitting it in that order yields the canonical (tick, shard,
    // post order) dispatch.
    admit(host_, toHost_);

    host_.runWindow(end);
    inRound_ = false;
}

void
ShardCoordinator::runUntil(Tick target)
{
    NVDC_ASSERT(!inRound_, "re-entrant run on a sharded system");
    NVDC_ASSERT(target >= host_.now(), "runUntil into the past");
    for (;;) {
        deliverToShards();
        if (host_.now() >= target)
            break;
        Tick bound = kTickNever;
        const Tick next = scan(&bound);
        if (next >= target) {
            // Nothing runnable before the target: one idle jump.
            advanceAll(target);
            break;
        }
        // The window may start later than now (idle skip) but never
        // extends past any shard's conservative output bound, so every
        // in-window stamp keeps its lookahead. When every shard is
        // provably quiet (promises say nothing is in flight) the
        // round runs straight to the target — the decoupled fast
        // path.
        NVDC_ASSERT(bound > next, "window bound regressed below the "
                                  "earliest runnable event");
        round(std::min(bound, target));
    }
}

bool
ShardCoordinator::runOne()
{
    NVDC_ASSERT(!inRound_, "re-entrant run on a sharded system");
    deliverToShards();
    const Tick next = scan(nullptr);
    if (next == kTickNever)
        return false;
    // A minimal window [next, next+1): shrinking a window below the
    // quantum is always conservative, and drain loops then leave the
    // clocks just past the last event — like the serial kernel — so
    // end-of-run time-normalized stats are quantum-independent.
    round(next + 1);
    return true;
}

std::uint64_t
ShardCoordinator::runAll(std::uint64_t max_events)
{
    std::uint64_t start = totalEventsFired();
    while (totalEventsFired() - start < max_events && runOne()) {
    }
    return totalEventsFired() - start;
}

} // namespace nvdimmc
