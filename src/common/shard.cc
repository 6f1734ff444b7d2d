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
      outbox_(shards_.size()),
      pending_(shards_.size()),
      peek_(shards_.size(), kTickNever),
      links_(shards_.size()),
      defaultLinks_(shards_.size(), true)
{
    NVDC_ASSERT(!shards_.empty(), "sharded system needs >= 1 shard");
    NVDC_ASSERT(quantum_ > 0, "sync quantum must be positive");
    for (EventQueue* s : shards_)
        NVDC_ASSERT(s && s != &host_, "bad shard queue");
    for (auto& ls : links_)
        ls.push_back(Link{kToHost, quantum_, {}});
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
ShardCoordinator::setLink(std::uint32_t src, std::int32_t dest,
                          Tick latency, Promise promise)
{
    NVDC_ASSERT(src < shardCount(), "setLink: bad source shard");
    NVDC_ASSERT(dest == kToHost ||
                    (dest >= 0 &&
                     static_cast<std::uint32_t>(dest) < shardCount() &&
                     static_cast<std::uint32_t>(dest) != src),
                "setLink: bad destination");
    NVDC_ASSERT(latency > 0, "link latency must be positive (it is "
                             "the cross-shard lookahead)");
    auto& ls = links_[src];
    if (defaultLinks_[src]) {
        // The first explicit link supersedes the default quantum link:
        // a fully-described shard only constrains the window through
        // the links it really has.
        ls.clear();
        defaultLinks_[src] = false;
    }
    for (Link& l : ls) {
        if (l.dest == dest) {
            l.latency = latency;
            l.promise = std::move(promise);
            return;
        }
    }
    ls.push_back(Link{dest, latency, std::move(promise)});
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
    pending_[shard].push_back(
        EventQueue::TimedCallback{when, std::move(fn), 0});
}

void
ShardCoordinator::postToHost(std::uint32_t shard, Tick when, Fn fn)
{
    NVDC_ASSERT(shard < shardCount(), "postToHost: bad shard index");
    NVDC_ASSERT(!inRound_ ||
                    when >= windowEnd_,
                "shard-to-host message inside the sync window: an "
                "output promise or link latency was broken");
    outbox_[shard].push_back(Msg{when, kToHost, std::move(fn)});
}

void
ShardCoordinator::postToPeer(std::uint32_t from, std::uint32_t to,
                             Tick when, Fn fn)
{
    NVDC_ASSERT(from < shardCount() && to < shardCount() && from != to,
                "postToPeer: bad shard pair");
    NVDC_ASSERT(!inRound_ ||
                    when >= windowEnd_,
                "peer-to-peer message inside the sync window: an "
                "output promise or link latency was broken");
    outbox_[from].push_back(
        Msg{when, static_cast<std::int32_t>(to), std::move(fn)});
}

void
ShardCoordinator::admit(EventQueue& q,
                        std::vector<EventQueue::TimedCallback>& box)
{
    if (box.empty())
        return;
    if (box.size() == 1) {
        // The common case: one message, no sort, no staged batch. It
        // takes the next sequence number just as a batch element would.
        q.schedule(box[0].when, std::move(box[0].fn));
        box.clear();
        return;
    }
    // One sort + one staged-batch admission instead of a heap push per
    // message. The stable sort keeps same-tick messages in post order,
    // so the sequence is exactly what per-message scheduling produced.
    std::stable_sort(box.begin(), box.end(),
                     [](const EventQueue::TimedCallback& a,
                        const EventQueue::TimedCallback& b) {
                         return a.when < b.when;
                     });
    q.scheduleBatch(box); // Consumes; hands back empty scratch.
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
        for (const Link& l : links_[s]) {
            Tick b = satAdd(p, l.latency);
            if (l.promise)
                b = std::max(b, l.promise());
            e = std::min(e, b);
        }
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

    const std::uint32_t n = shardCount();
    try {
        for (std::uint32_t s = 0; s < n; ++s) {
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

    // Route the outboxes in shard order. Host-bound messages merge
    // deterministically: concatenating in shard order and stable-
    // sorting by tick yields the canonical (tick, shard, post-order)
    // sequence. Peer-bound messages append to the destination's
    // pending box, delivered at the next round's top in the same
    // canonical order.
    for (std::uint32_t s = 0; s < n; ++s) {
        auto& box = outbox_[s];
        for (Msg& m : box) {
            auto& dest = m.dest == kToHost
                             ? merge_
                             : pending_[static_cast<std::uint32_t>(m.dest)];
            dest.push_back(
                EventQueue::TimedCallback{m.when, std::move(m.fn), 0});
        }
        box.clear();
    }
    admit(host_, merge_);

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
        // extends past any link's conservative output bound, so every
        // in-window stamp keeps its lookahead. When every link is
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
