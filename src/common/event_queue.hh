/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders events by (tick, sequence-number) so a
 * whole-system simulation is fully deterministic: two events at the
 * same tick fire in the order they were scheduled, regardless of how
 * they were created.
 *
 * The kernel is allocation-free on its hot paths, gem5-style:
 *
 *  - Intrusive events. Components embed an Event subclass (usually an
 *    EventFunctionWrapper member) and schedule/reschedule it in
 *    place. Nothing is allocated per occurrence; a periodic event
 *    (refresh tick, controller step, GC pass) reuses the same object
 *    forever. Cancellation is O(1): the in-object scheduled flag and
 *    generation sequence are cleared and the stale heap entry is
 *    lazily skipped when it surfaces.
 *
 *  - One-shot callbacks. schedule(when, lambda) stores the callable
 *    in a pooled, small-buffer-optimized event slot (no heap
 *    allocation for captures up to kCallbackInlineBytes; the pool
 *    itself is recycled, so steady state allocates nothing — an
 *    sboOverflows() counter tracks any capture that spills so a
 *    hot-path regression is visible). The returned EventId is usable
 *    with cancel()/isPending().
 *
 * Pending events live in one d-ary min-heap of {when, seq, Event*}
 * entries ordered by (tick, seq). The simulator keeps only a handful
 * of events live at a time (a mean of 2-11 on the measured workloads)
 * with delays spread from 0 to ~16 us of picoseconds, so a small heap
 * is the cheapest exact structure: push and pop are O(log n) over a
 * few cache lines, and the minimum is always the top (see DESIGN.md
 * §6e for the measured traffic that retired the timing wheel).
 *
 * Both kinds share one sequence counter and (tick, seq) is a strict
 * total order, so every dispatch order is exact and independent of
 * the heap's internal layout.
 *
 * Cancel and reschedule leave the old entry resident (its seq no
 * longer matches the event's) until it reaches the top and is popped,
 * or until dead entries outnumber live ones: once the heap holds more
 * than 2 x pending() entries (and at least kCompactMin) the next push
 * drops every dead entry in one pass and re-heapifies. Memory stays
 * O(pending) and each cancel costs O(1) amortized.
 *
 * Lifetime rule for intrusive events: the Event object must outlive
 * every tick it was ever scheduled for — even if descheduled, the
 * queue may still hold a (lazily discarded) reference until that tick
 * is reached. In practice events are members of sim components that
 * live for the whole run; the ASan CI job enforces the rule.
 *
 * Semantics of empty()/pending() under lazy deletion: cancelled or
 * descheduled entries never count, even while their stale heap
 * entries are still resident. Consequently runUntil() over a
 * fully-cancelled queue fires nothing and still advances now() to the
 * target tick.
 */

#ifndef NVDIMMC_COMMON_EVENT_QUEUE_HH
#define NVDIMMC_COMMON_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace nvdimmc
{

class EventQueue;
class ShardCoordinator;

/**
 * Intrusive event base class. Subclass (or use EventFunctionWrapper)
 * and embed in the owning component; EventQueue never owns it.
 */
class Event
{
  public:
    Event() = default;
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
    virtual ~Event() = default;

    /** Called when the event fires; it is descheduled beforehand, so
     *  process() may schedule() it again (the periodic idiom). */
    virtual void process() = 0;

    /** Debug label. */
    virtual const char* name() const { return "event"; }

    bool scheduled() const { return sched_; }

    /** Tick of the pending occurrence; only meaningful if scheduled(). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    /** Generation stamp: a heap entry is live iff its seq matches. */
    std::uint64_t seq_ = 0;
    bool sched_ = false;
    /** True for EventQueue's pooled one-shot slots: lets the
     *  dispatcher skip the virtual process() call on that hot path. */
    bool oneShot_ = false;
};

/**
 * An Event that runs a function object fixed at construction. The
 * gem5 EventFunctionWrapper idiom: one of these per recurring action,
 * owned by the component, rescheduled in place forever.
 */
class EventFunctionWrapper final : public Event
{
  public:
    explicit EventFunctionWrapper(std::function<void()> fn,
                                  const char* name = "wrapped-event")
        : fn_(std::move(fn)), name_(name)
    {
    }

    void process() override { fn_(); }
    const char* name() const override { return name_; }

  private:
    std::function<void()> fn_;
    const char* name_;
};

/**
 * Deterministic discrete-event scheduler keyed on picosecond ticks.
 * Scheduling in the past is a panic: simulated hardware cannot react
 * before its cause.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Captures up to this many bytes ride in the pooled slot without
     *  a heap allocation. */
    static constexpr std::size_t kCallbackInlineBytes = 96;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** @name Intrusive API */
    /** @{ */

    /** Schedule @p ev at absolute tick @p when (>= now()). @p ev must
     *  not already be scheduled (use reschedule() for that). */
    void schedule(Event& ev, Tick when);

    /** Schedule @p ev @p delay ticks from now. */
    void scheduleAfter(Event& ev, Tick delay)
    {
        schedule(ev, now_ + delay);
    }

    /** Move @p ev to @p when, whether or not it is scheduled. */
    void reschedule(Event& ev, Tick when)
    {
        deschedule(ev);
        schedule(ev, when);
    }

    /** O(1) cancel; a no-op if @p ev is not scheduled. */
    void deschedule(Event& ev)
    {
        if (!ev.sched_)
            return;
        ev.sched_ = false;
        --livePending_;
    }

    /** @} */

    /** @name One-shot callback API */
    /** @{ */

    /**
     * Schedule callable @p fn at absolute tick @p when (>= now()).
     * Small captures are stored inline in a pooled event slot.
     * @return an id usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F&& fn)
    {
        CallbackEvent& ce = allocCallback();
        emplaceCallable(ce, std::forward<F>(fn));
        schedule(ce, when);
        return ce.id();
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F&& fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /**
     * Cancel a pending one-shot. Cancelling an already-fired or
     * unknown id is a harmless no-op (ids are generation-stamped, so
     * the id space never aliases a later event).
     */
    void cancel(EventId id);

    /** @return true iff @p id is scheduled and not yet fired/cancelled. */
    bool isPending(EventId id) const { return lookupCallback(id) != nullptr; }

    /** @} */

    /** @return true iff no runnable events remain (cancelled entries
     *  still resident in the heap never count). */
    bool empty() const { return livePending_ == 0; }

    /** Number of pending (non-cancelled) events of either kind. */
    std::size_t pending() const { return livePending_; }

    /**
     * Fire the single earliest event.
     * @return false if the queue was empty.
     *
     * On a coordinated (sharded) host queue this runs one conservative
     * sync window across every shard instead, returning false once no
     * shard has work left.
     */
    bool runOne();

    /**
     * Run every event with tick <= @p when, then advance now() to
     * @p when even if the queue drained (or was fully cancelled)
     * earlier. On a coordinated host queue the whole sharded system
     * advances to @p when in conservative quantum windows.
     */
    void runUntil(Tick when);

    /** runUntil(now() + delta). */
    void runFor(Tick delta) { runUntil(now_ + delta); }

    /**
     * Run until the queue drains or @p max_events fired.
     * @return number of events fired.
     */
    std::uint64_t runAll(std::uint64_t max_events = ~std::uint64_t{0});

    /**
     * Fire every event with tick strictly before @p end, then advance
     * now() to @p end. The shard execution primitive: a window
     * [now, end) is exclusive of its right edge so an event scheduled
     * exactly at a quantum boundary fires in the next window, on
     * whichever shard owns it.
     */
    void runWindow(Tick end);

    /**
     * runWindow(@p end) for a queue the caller has already peeked
     * idle up to @p end (peekNextTick() >= end): advances now() with
     * no dispatch probe. The coordinator's shortcut for shards with
     * nothing to run in a round.
     */
    void skipWindow(Tick end);

    /** Earliest pending event tick, or kTickNever if none. */
    Tick peekNextTick();

    /**
     * Attach this queue to a shard coordinator: the public run
     * methods (runOne/runUntil/runFor/runAll) then drive the whole
     * coordinated system so existing workloads and benches work
     * unchanged on a sharded topology. The coordinator itself always
     * executes queues through runWindow(), which never delegates.
     */
    void setCoordinator(ShardCoordinator* coord) { coord_ = coord; }

    /** Total events fired since construction. */
    std::uint64_t eventsFired() const { return fired_; }

    /** One-shot callables whose captures exceeded
     *  kCallbackInlineBytes and fell back to a heap allocation. A
     *  nonzero steady-state rate here means a hot-path lambda grew
     *  past the SBO budget (bench_event_queue reports it). */
    std::uint64_t sboOverflows() const { return sboOverflows_; }

    /** Heap entries currently held, live or dead (a cost probe for
     *  the lazy-deletion bound, not a stat: dumps never include it). */
    std::size_t residentEntries() const { return heap_.size(); }

  private:
    /** Pooled slot for one-shot callbacks: SBO storage plus a
     *  generation counter that makes EventIds unambiguous. */
    class CallbackEvent final : public Event
    {
      public:
        CallbackEvent(EventQueue& owner, std::uint32_t slot)
            : owner_(owner), slot_(slot)
        {
        }

        ~CallbackEvent() override
        {
            if (destroy_)
                destroy_(*this);
        }

        void process() override;
        const char* name() const override { return "one-shot"; }

        EventId
        id() const
        {
            return (static_cast<EventId>(slot_) + 1) << 32 | gen_;
        }

        EventQueue& owner_;
        const std::uint32_t slot_;
        std::uint32_t gen_ = 1;
        void (*call_)(CallbackEvent&) = nullptr;
        void (*destroy_)(CallbackEvent&) = nullptr;
        void* heapFn_ = nullptr;
        alignas(std::max_align_t) unsigned char inline_[kCallbackInlineBytes];
    };

    /** @name Pending-event heap */
    /** @{ */

    /** Heap fan-out. Four 24-byte siblings sit in 96 contiguous
     *  bytes and the tree is half as deep as a binary heap's; 2-ary
     *  measured 1-3 % slower end to end (DESIGN.md §6e). */
    static constexpr std::size_t kArity = 4;
    /** Below this many resident entries dead ones are never
     *  compacted: popping them at the top is cheaper. */
    static constexpr std::size_t kCompactMin = 64;

    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        Event* ev;
    };

    /** The strict (tick, seq) order every dispatch follows. */
    static bool
    before(const HeapEntry& a, const HeapEntry& b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    /** A heap entry is live iff the event is still scheduled for it. */
    static bool
    live(const HeapEntry& e)
    {
        return e.ev->sched_ && e.ev->seq_ == e.seq;
    }

    /** Add an entry, first compacting if dead entries dominate. */
    void
    heapPush(HeapEntry e)
    {
        if (heap_.size() >= kCompactMin &&
            heap_.size() > 2 * livePending_)
            compactHeap();
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            std::size_t parent = (i - 1) / kArity;
            if (!before(e, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Sink @p e from the hole at @p i to its place (by value: @p e
     *  may be a copy of heap_[i] itself). */
    void
    siftDown(std::size_t i, HeapEntry e)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t first = kArity * i + 1;
            if (first >= n)
                break;
            std::size_t last = std::min(first + kArity, n);
            std::size_t best = first;
            for (std::size_t c = first + 1; c < last; ++c)
                if (before(heap_[c], heap_[best]))
                    best = c;
            if (!before(heap_[best], e))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    /** Remove the top entry. */
    void
    popTop()
    {
        HeapEntry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
    }

    /** The earliest live entry, or null; dead tops are popped. */
    const HeapEntry*
    liveTop()
    {
        while (!heap_.empty() && !live(heap_.front()))
            popTop();
        return heap_.empty() ? nullptr : &heap_.front();
    }

    /** Drop every dead entry in one pass and re-heapify. */
    void compactHeap();

    /** Fire the top entry (liveTop() must have returned it). */
    void fireTop();

    /**
     * Fire the earliest event if its tick is within @p limit —
     * inclusive when @p strict is false (runUntil), exclusive when
     * true (runWindow). @return whether one fired.
     */
    bool fireNextBound(Tick limit, bool strict);

    /** fireNextBound with no bound: fire the earliest event, if any. */
    bool fireNext() { return fireNextBound(kTickNever, false); }

    /** @} */

    /** Grab a free pooled slot (grows the pool only on first use of a
     *  new depth; steady state never allocates). */
    CallbackEvent&
    allocCallback()
    {
        if (freeSlots_.empty())
            growCallbackPool();
        std::uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        return *pool_[slot];
    }

    /** Cold path of allocCallback: add one slot to the pool. */
    void growCallbackPool();

    /** Destroy the stored callable and return the slot to the pool,
     *  bumping the generation so stale EventIds miss. */
    void
    recycleCallback(CallbackEvent& ce)
    {
        if (ce.destroy_)
            ce.destroy_(ce);
        ce.call_ = nullptr;
        ce.destroy_ = nullptr;
        ++ce.gen_;
        freeSlots_.push_back(ce.slot_);
    }

    /** Decode an EventId; null unless it names a still-pending slot. */
    const CallbackEvent* lookupCallback(EventId id) const;
    CallbackEvent*
    lookupCallback(EventId id)
    {
        return const_cast<CallbackEvent*>(
            std::as_const(*this).lookupCallback(id));
    }

    template <typename F>
    static void
    emplaceCallable(CallbackEvent& ce, F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn&>,
                      "EventQueue callbacks take no arguments");
        if constexpr (sizeof(Fn) <= kCallbackInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(ce.inline_)) Fn(std::forward<F>(fn));
            ce.call_ = [](CallbackEvent& e) {
                invokeCallable(*std::launder(
                    reinterpret_cast<Fn*>(e.inline_)));
            };
            ce.destroy_ = [](CallbackEvent& e) {
                std::launder(reinterpret_cast<Fn*>(e.inline_))->~Fn();
            };
        } else {
            ++ce.owner_.sboOverflows_;
            ce.heapFn_ = new Fn(std::forward<F>(fn));
            ce.call_ = [](CallbackEvent& e) {
                invokeCallable(*static_cast<Fn*>(e.heapFn_));
            };
            ce.destroy_ = [](CallbackEvent& e) {
                delete static_cast<Fn*>(e.heapFn_);
                e.heapFn_ = nullptr;
            };
        }
    }

    /** A null std::function is legal and means "just advance time". */
    template <typename Fn>
    static void
    invokeCallable(Fn& fn)
    {
        if constexpr (std::is_constructible_v<bool, Fn&>) {
            if (fn)
                fn();
        } else {
            fn();
        }
    }

    /** Pending entries, a kArity-ary min-heap under before(); holds
     *  dead entries of cancelled or rescheduled events until they
     *  surface at the top or compactHeap() drops them. */
    std::vector<HeapEntry> heap_;

    std::vector<std::unique_ptr<CallbackEvent>> pool_;
    std::vector<std::uint32_t> freeSlots_;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::size_t livePending_ = 0;
    std::uint64_t fired_ = 0;
    std::uint64_t sboOverflows_ = 0;
    ShardCoordinator* coord_ = nullptr;
};

} // namespace nvdimmc

#endif // NVDIMMC_COMMON_EVENT_QUEUE_HH
