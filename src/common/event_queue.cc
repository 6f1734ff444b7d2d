#include "common/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/shard.hh"

namespace nvdimmc
{

void
EventQueue::schedule(Event& ev, Tick when)
{
    if (when < now_) {
        panic("EventQueue: scheduling at tick ", when,
              " which is before now ", now_);
    }
    if (ev.sched_) {
        panic("EventQueue: '", ev.name(), "' is already scheduled for ",
              ev.when_, "; use reschedule()");
    }
    ev.when_ = when;
    ev.seq_ = nextSeq_++;
    ev.sched_ = true;
    ++livePending_;
    heapPush(HeapEntry{when, ev.seq_, &ev});
}

void
EventQueue::compactHeap()
{
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [](const HeapEntry& e) { return !live(e); }),
                heap_.end());
    // Floyd's bottom-up build: O(n), and any valid heap pops in the
    // same (tick, seq) order.
    if (heap_.size() > 1)
        for (std::size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;)
            siftDown(i, heap_[i]);
}

void
EventQueue::fireTop()
{
    HeapEntry e = heap_.front();
    popTop();
    NVDC_DASSERT(e.when >= now_, "event in the past");
    now_ = e.when;
    e.ev->sched_ = false;
    --livePending_;
    ++fired_;
    if (e.ev->oneShot_) {
        // Pooled one-shot: skip the virtual dispatch and recycle the
        // slot even if the callable throws (a panic propagating out
        // of a test).
        auto& ce = static_cast<CallbackEvent&>(*e.ev);
        struct Recycle
        {
            CallbackEvent& ce;
            ~Recycle() { ce.owner_.recycleCallback(ce); }
        } guard{ce};
        ce.call_(ce);
    } else {
        e.ev->process();
    }
}

bool
EventQueue::fireNextBound(Tick limit, bool strict)
{
    const HeapEntry* top = liveTop();
    if (!top)
        return false;
    if (strict ? top->when >= limit : top->when > limit)
        return false;
    fireTop();
    return true;
}

bool
EventQueue::runOne()
{
    if (coord_)
        return coord_->runOne();
    return fireNext();
}

void
EventQueue::runUntil(Tick when)
{
    if (coord_) {
        coord_->runUntil(when);
        return;
    }
    NVDC_ASSERT(when >= now_, "runUntil into the past");
    while (fireNextBound(when, /*strict=*/false)) {
    }
    now_ = when;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    if (coord_)
        return coord_->runAll(max_events);
    std::uint64_t n = 0;
    while (n < max_events && fireNext())
        ++n;
    return n;
}

void
EventQueue::runWindow(Tick end)
{
    NVDC_ASSERT(end >= now_, "runWindow into the past");
    while (fireNextBound(end, /*strict=*/true)) {
    }
    now_ = end;
}

void
EventQueue::skipWindow(Tick end)
{
    NVDC_DASSERT(end >= now_ && peekNextTick() >= end,
                 "skipWindow over a pending event");
    now_ = end;
}

Tick
EventQueue::peekNextTick()
{
    const HeapEntry* top = liveTop();
    return top ? top->when : kTickNever;
}

void
EventQueue::cancel(EventId id)
{
    CallbackEvent* ce = lookupCallback(id);
    if (!ce)
        return;
    deschedule(*ce);
    // Release the captured state now rather than when the stale heap
    // entry surfaces; the slot's generation bump retires the id.
    recycleCallback(*ce);
}

void
EventQueue::growCallbackPool()
{
    auto slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::make_unique<CallbackEvent>(*this, slot));
    pool_.back()->oneShot_ = true;
    freeSlots_.push_back(slot);
}

const EventQueue::CallbackEvent*
EventQueue::lookupCallback(EventId id) const
{
    EventId hi = id >> 32;
    if (hi == 0 || hi > pool_.size())
        return nullptr;
    const CallbackEvent* ce = pool_[hi - 1].get();
    if (ce->gen_ != static_cast<std::uint32_t>(id) || !ce->scheduled())
        return nullptr;
    return ce;
}

void
EventQueue::CallbackEvent::process()
{
    // Recycle even if the callable throws (a panic propagating out of
    // a test); the stale heap entry is skipped by the generation.
    struct Recycle
    {
        CallbackEvent& ce;
        ~Recycle() { ce.owner_.recycleCallback(ce); }
    } guard{*this};
    call_(*this);
}

} // namespace nvdimmc
