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

std::size_t
EventQueue::bestStage() const
{
    std::size_t best = stages_.size();
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        // Drained stages linger only while a staged callback deeper
        // in the stack is re-entering the dispatcher; skip them.
        if (stages_[i].cursor == stages_[i].items.size())
            continue;
        const TimedCallback& head = stages_[i].items[stages_[i].cursor];
        if (best == stages_.size())
            best = i;
        else {
            const TimedCallback& b =
                stages_[best].items[stages_[best].cursor];
            if (head.when < b.when ||
                (head.when == b.when && head.seq < b.seq))
                best = i;
        }
    }
    return best;
}

void
EventQueue::collectStages()
{
    for (std::size_t i = stages_.size(); i-- > 0;) {
        Stage& st = stages_[i];
        if (st.cursor != st.items.size())
            continue;
        st.items.clear();
        freeStageBufs_.push_back(std::move(st.items));
        stages_.erase(stages_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    stagedDone_ = false;
}

void
EventQueue::fireStaged(std::size_t si)
{
    Stage& st = stages_[si];
    TimedCallback& it = st.items[st.cursor++];
    NVDC_DASSERT(it.when >= now_, "event in the past");
    now_ = it.when;
    --livePending_;
    ++fired_;
    if (st.cursor == st.items.size())
        stagedDone_ = true;
    // Fire in place: the element buffer never moves (a re-entrant
    // scheduleBatch moves the Stage object, not its items' storage),
    // and recycling of drained stages is deferred until no staged
    // callable is on the stack — so skipping the detach-move (and the
    // per-message destructor that came with it) is safe even if the
    // callback re-enters the dispatcher. Do not touch `st` after the
    // call; stages_ may have grown.
    {
        struct Depth
        {
            std::uint32_t& d;
            ~Depth() { --d; }
        } depth{++stagedDepth_};
        if (it.fn)
            it.fn();
    }
    if (stagedDepth_ == 0 && stagedDone_)
        collectStages();
}

bool
EventQueue::fireNextBound(Tick limit, bool strict)
{
    Tick s_when = kTickNever;
    std::uint64_t s_seq = 0;
    std::size_t si = stages_.size();
    if (!stages_.empty()) {
        // One live batch in flight is the steady state (a shard
        // drains its mailbox train before the next window lands).
        if (stages_.size() == 1 &&
            stages_[0].cursor < stages_[0].items.size()) {
            si = 0;
        } else {
            si = bestStage();
        }
        if (si != stages_.size()) {
            const TimedCallback& head =
                stages_[si].items[stages_[si].cursor];
            s_when = head.when;
            s_seq = head.seq;
        }
    }
    const HeapEntry* top = liveTop();
    if (si != stages_.size() &&
        (!top || s_when < top->when ||
         (s_when == top->when && s_seq < top->seq))) {
        if (strict ? s_when >= limit : s_when > limit)
            return false;
        fireStaged(si);
        return true;
    }
    if (!top)
        return false;
    if (strict ? top->when >= limit : top->when > limit)
        return false;
    fireTop();
    return true;
}

void
EventQueue::scheduleBatch(std::vector<TimedCallback>& batch)
{
    if (batch.empty())
        return;
    Tick prev = 0;
    for (TimedCallback& it : batch) {
        if (it.when < now_) {
            panic("EventQueue: batch element at tick ", it.when,
                  " which is before now ", now_);
        }
        NVDC_ASSERT(it.when >= prev,
                    "scheduleBatch requires a tick-sorted batch");
        prev = it.when;
        it.seq = nextSeq_++;
    }
    livePending_ += batch.size();

    Stage st;
    if (!freeStageBufs_.empty()) {
        st.items = std::move(freeStageBufs_.back());
        freeStageBufs_.pop_back();
    }
    st.items.swap(batch); // Hand a recycled empty buffer back.
    stages_.push_back(std::move(st));
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
    Tick t = top ? top->when : kTickNever;
    for (const Stage& st : stages_)
        if (st.cursor < st.items.size())
            t = std::min(t, st.items[st.cursor].when);
    return t;
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
