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
      peek_(shards_.size(), kTickNever),
      owed_(shards_.size(), 0)
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
        // A shard that owes the host nothing never emits to it.
        if (bound && owed_[s] > 0)
            e = std::min(e, satAdd(p, quantum_));
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
            // its own window runs, and host posts wait for the host
            // window.
            if (peek_[s] < end)
                shards_[s]->runWindow(end);
            else
                shards_[s]->skipWindow(end);
        }
    } catch (...) {
        inRound_ = false;
        throw;
    }

    // The shards ran in order and each host-bound post took the next
    // host seq, so host messages dispatch in (tick, shard, post order).
    host_.runWindow(end);
    inRound_ = false;
}

void
ShardCoordinator::runUntil(Tick target)
{
    NVDC_ASSERT(!inRound_, "re-entrant run on a sharded system");
    NVDC_ASSERT(target >= host_.now(), "runUntil into the past");
    while (host_.now() < target) {
        Tick bound = kTickNever;
        const Tick next = scan(&bound);
        if (next >= target) {
            // Nothing runnable before the target: one idle jump.
            advanceAll(target);
            break;
        }
        // The window may start later than now (idle skip) but never
        // extends past any shard's conservative output bound, so every
        // in-window stamp keeps its lookahead. When no shard owes
        // the host a reply the round runs straight to the target —
        // the decoupled fast path.
        NVDC_ASSERT(bound > next, "window bound regressed below the "
                                  "earliest runnable event");
        round(std::min(bound, target));
    }
}

bool
ShardCoordinator::runOne()
{
    NVDC_ASSERT(!inRound_, "re-entrant run on a sharded system");
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
