/**
 * @file
 * Tests for the intrusive event kernel: same-tick FIFO interleaving
 * of intrusive and one-shot events, in-place cancel/reschedule,
 * periodic self-rescheduling, lazy-deletion bookkeeping and its
 * compaction bound, differential fuzzing against a reference
 * (tick, seq) order, and a regression check that the one-shot
 * (legacy-API shim) path and the intrusive path drive a simulation to
 * byte-identical stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"

namespace nvdimmc
{
namespace
{

/** Intrusive event that appends a tag to a shared trace. */
class TraceEvent : public Event
{
  public:
    TraceEvent(std::vector<int>& trace, int tag)
        : trace_(trace), tag_(tag)
    {
    }

    void process() override { trace_.push_back(tag_); }
    const char* name() const override { return "trace"; }

  private:
    std::vector<int>& trace_;
    int tag_;
};

TEST(EventKernel, IntrusiveAndCallbackShareFifoOrder)
{
    // Same-tick order is schedule order, regardless of event kind.
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent a(trace, 0);
    TraceEvent b(trace, 2);
    eq.schedule(a, 100);
    eq.schedule(100, [&] { trace.push_back(1); });
    eq.schedule(b, 100);
    eq.schedule(100, [&] { trace.push_back(3); });
    eq.runAll();
    EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventKernel, DescheduleThenRescheduleInPlace)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 7);

    eq.schedule(ev, 50);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 50u);

    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    eq.runUntil(60);
    EXPECT_TRUE(trace.empty());

    // The same object is reusable immediately, with no allocation.
    eq.schedule(ev, 80);
    eq.runAll();
    EXPECT_EQ(trace, std::vector<int>{7});
    EXPECT_EQ(eq.now(), 80u);
}

TEST(EventKernel, RescheduleMovesBothDirections)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 1);

    eq.schedule(ev, 100);
    eq.reschedule(ev, 40); // Earlier: the stale 100-tick entry dies.
    eq.runUntil(50);
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(eq.now(), 50u);

    eq.schedule(ev, 60);
    eq.reschedule(ev, 200); // Later: the stale 60-tick entry dies.
    eq.runUntil(150);
    EXPECT_EQ(trace.size(), 1u);
    eq.runAll();
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventKernel, DoubleScheduleIsAPanic)
{
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 1);
    eq.schedule(ev, 10);
    EXPECT_THROW(eq.schedule(ev, 20), PanicError);
}

/** Periodic event: reschedules itself in place n times. */
class PeriodicEvent : public Event
{
  public:
    PeriodicEvent(EventQueue& eq, Tick period, int times)
        : eq_(eq), period_(period), left_(times)
    {
    }

    void
    process() override
    {
        ticks.push_back(eq_.now());
        if (--left_ > 0)
            eq_.scheduleAfter(*this, period_);
    }

    std::vector<Tick> ticks;

  private:
    EventQueue& eq_;
    Tick period_;
    int left_;
};

TEST(EventKernel, PeriodicSelfReschedule)
{
    EventQueue eq;
    PeriodicEvent refresh(eq, 7800, 5);
    eq.schedule(refresh, 7800);
    eq.runAll();
    EXPECT_EQ(refresh.ticks,
              (std::vector<Tick>{7800, 15600, 23400, 31200, 39000}));
    EXPECT_FALSE(refresh.scheduled());
    EXPECT_TRUE(eq.empty());
}

TEST(EventKernel, LazyDeletionNeverCountsCancelled)
{
    // pending()/empty() track live events only, even while cancelled
    // heap records are still unpopped.
    EventQueue eq;
    std::vector<int> trace;
    TraceEvent ev(trace, 0);
    eq.schedule(ev, 10);
    EventId id = eq.schedule(20, [] {});
    EXPECT_EQ(eq.pending(), 2u);

    eq.deschedule(ev);
    EXPECT_EQ(eq.pending(), 1u);
    eq.cancel(id);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());

    // runUntil over a fully-cancelled queue fires nothing and still
    // lands now() on the target tick.
    eq.runUntil(100);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.eventsFired(), 0u);
    EXPECT_TRUE(trace.empty());
}

TEST(EventKernel, CancelledIdNeverAliasesALaterEvent)
{
    // The pooled slot behind a cancelled id is recycled, but the
    // generation stamp keeps the old id dead forever.
    EventQueue eq;
    bool late_fired = false;
    EventId a = eq.schedule(10, [&] { late_fired = true; });
    eq.cancel(a);
    int fires = 0;
    EventId b = eq.schedule(10, [&] { ++fires; });
    EXPECT_FALSE(eq.isPending(a));
    EXPECT_TRUE(eq.isPending(b));
    eq.cancel(a); // Still a no-op, even though the slot was reused.
    eq.runAll();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(late_fired);
    EXPECT_FALSE(eq.isPending(b));
}

TEST(EventKernel, LargeCapturesSpillSafely)
{
    // Captures beyond the inline budget take the heap fallback; the
    // payload must arrive intact.
    EventQueue eq;
    std::array<std::uint64_t, 32> big{};
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = i * 3;
    std::uint64_t sum = 0;
    eq.schedule(5, [big, &sum] {
        for (auto v : big)
            sum += v;
    });
    eq.runAll();
    EXPECT_EQ(sum, 3u * (31u * 32u / 2u));
}

/**
 * The regression that guards the kernel rebuild: a toy simulation
 * (bursty producer, jittered service times, mid-flight cancels) run
 * once through the one-shot legacy-API shim and once through
 * intrusive events must produce byte-identical stats.
 */
std::string
runToySim(bool intrusive)
{
    EventQueue eq;
    std::ostringstream os;
    std::uint64_t served = 0;
    Tick last_service = 0;

    struct Server : Event
    {
        EventQueue& eq;
        std::uint64_t& served;
        Tick& last_service;
        Tick period;
        int left;

        Server(EventQueue& q, std::uint64_t& s, Tick& ls, Tick p, int n)
            : eq(q), served(s), last_service(ls), period(p), left(n)
        {
        }

        void
        process() override
        {
            ++served;
            last_service = eq.now();
            if (--left > 0)
                eq.scheduleAfter(*this, period);
        }
    };

    Server server(eq, served, last_service, 130, 40);
    std::function<void()> serve_shim = [&] {
        ++served;
        last_service = eq.now();
        if (--server.left > 0)
            eq.scheduleAfter(130, serve_shim);
    };

    if (intrusive)
        eq.schedule(server, 130);
    else
        eq.schedule(130, serve_shim);

    // Same-tick contention with the server plus cancel churn.
    for (int i = 0; i < 40; ++i) {
        Tick at = 130 * static_cast<Tick>(1 + i % 7);
        eq.schedule(at, [&served] { ++served; });
        EventId dead = eq.schedule(at, [&served] { served += 1000; });
        eq.cancel(dead);
    }

    eq.runAll();
    os << eq.now() << ":" << eq.eventsFired() << ":" << served << ":"
       << last_service;
    return os.str();
}

TEST(EventKernel, ShimAndIntrusiveRunsAreByteIdentical)
{
    std::string shim = runToySim(false);
    std::string intrusive = runToySim(true);
    EXPECT_EQ(shim, intrusive);
    EXPECT_NE(shim.find(":"), std::string::npos);
}

/** The fuzz streams' deterministic generator. */
struct Lcg
{
    std::uint64_t state;

    std::uint64_t
    operator()()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 11;
    }
};

struct FuzzShape
{
    /** Delay of a new event relative to now(). */
    Tick (*delta)(Lcg&) = nullptr;
    /** Largest runUntil/runWindow horizon past now(). */
    Tick horizon = 300;
    /** Largest offset of a burst's first element, and of each
     *  following element past the previous one. */
    Tick burstStart = 200;
    Tick burstStep = 40;
    int ops = 1500;
    /** One-shots scheduled before the random stream starts. */
    int preload = 0;
    /** Turn one op in 16 into a cancel storm between a runWindow and
     *  a burst (forces dead-entry compaction). */
    bool cancelStorms = false;
};

/** What a fuzz run observed besides the order check itself. */
struct FuzzStats
{
    std::size_t maxPending = 0;
    /** Pushes after which the heap held fewer entries than before. */
    std::uint64_t compactions = 0;
};

/**
 * Differential fuzz harness: a random stream of schedule / cancel /
 * reschedule / burst / bounded-run operations executed on the
 * kernel must dispatch in exactly the order a reference (tick, seq)
 * ordered set produces. The reference mirrors the kernel's contract
 * directly — one shared sequence counter stamped in program order,
 * cancellation by removal, runUntil inclusive vs runWindow exclusive
 * bounds — so any kernel bug (heap ordering, a dead entry surfacing
 * as live, compaction dropping or reordering a live entry, bound
 * handling) shows up as an order divergence. A burst is a tick-sorted
 * train of back-to-back schedule() calls, the shape of a sharded
 * mailbox delivery.
 */
FuzzStats
runDifferentialFuzz(std::uint64_t seed, const FuzzShape& shape)
{
    using Key = std::tuple<Tick, std::uint64_t, int>; // when, seq, label
    FuzzStats stats;
    Lcg rnd{seed};

    EventQueue eq;
    std::vector<int> real_order, ref_order;
    std::set<Key> ref;
    Tick ref_now = 0;
    std::uint64_t ref_seq = 1;

    auto ref_run = [&](Tick until, bool strict) {
        while (!ref.empty()) {
            Tick when = std::get<0>(*ref.begin());
            if (strict ? when >= until : when > until)
                break;
            ref_order.push_back(std::get<2>(*ref.begin()));
            ref.erase(ref.begin());
        }
        ref_now = until;
    };

    // Cancelable one-shots: (id from the real queue, reference key).
    std::vector<std::pair<EventId, Key>> shots;
    // Intrusive events that get rescheduled in place.
    constexpr int kWrappers = 8;
    std::vector<std::unique_ptr<EventFunctionWrapper>> wrappers;
    // Reference key of each wrapper's latest occurrence; erasing it
    // after it fired (or before the first schedule) is a no-op.
    std::vector<Key> wrapper_key(kWrappers);
    for (int w = 0; w < kWrappers; ++w) {
        wrappers.push_back(std::make_unique<EventFunctionWrapper>(
            [&real_order, w] { real_order.push_back(10000 + w); },
            "fuzz-wrapper"));
    }

    int next_label = 0;
    auto schedule_shot = [&](Tick when) {
        int label = next_label++;
        std::size_t before = eq.residentEntries();
        EventId id = eq.schedule(
            when, [&real_order, label] { real_order.push_back(label); });
        if (eq.residentEntries() <= before)
            ++stats.compactions;
        Key key{when, ref_seq++, label};
        ref.insert(key);
        shots.push_back({id, key});
    };
    auto cancel_shot = [&](std::size_t i) {
        eq.cancel(shots[i].first);
        ref.erase(shots[i].second); // A no-op if it already fired.
    };
    auto schedule_burst = [&] {
        Tick at = ref_now + rnd() % shape.burstStart;
        std::size_t n = 1 + rnd() % 6;
        for (std::size_t i = 0; i < n; ++i) {
            at += rnd() % shape.burstStep;
            schedule_shot(at);
        }
    };

    for (int i = 0; i < shape.preload; ++i)
        schedule_shot(ref_now + shape.delta(rnd));

    for (int op = 0; op < shape.ops; ++op) {
        EXPECT_EQ(eq.now(), ref_now) << "seed " << seed;
        if (eq.now() != ref_now)
            break;
        stats.maxPending = std::max(stats.maxPending, eq.pending());
        EXPECT_EQ(eq.pending(), ref.size()) << "seed " << seed;
        unsigned kind = static_cast<unsigned>(rnd() % 16);
        if (shape.cancelStorms && kind == 15) {
            // Cancel storm: a window, then a burst of guards nearly
            // all cancelled (dead entries pile past 2 x pending and
            // the next pushes compact them), then a burst.
            Tick end = ref_now + rnd() % shape.horizon;
            eq.runWindow(end);
            ref_run(end, /*strict=*/true);
            std::size_t first = shots.size();
            for (int g = 0; g < 160; ++g)
                schedule_shot(ref_now + shape.delta(rnd));
            for (std::size_t i = first; i < shots.size(); ++i)
                if (rnd() % 16 != 0)
                    cancel_shot(i);
            for (int g = 0; g < 8; ++g)
                schedule_shot(ref_now + shape.delta(rnd));
            schedule_burst();
            EXPECT_LE(eq.residentEntries(), 2 * eq.pending() + 64)
                << "seed " << seed;
            continue;
        }
        switch (kind) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5: // One-shot schedule.
            schedule_shot(ref_now + shape.delta(rnd));
            break;
        case 6:
        case 7: // Cancel (possibly already fired: no-op).
            if (!shots.empty())
                cancel_shot(rnd() % shots.size());
            break;
        case 8:
        case 9: { // Intrusive reschedule (in place).
            auto w = static_cast<std::size_t>(rnd() % kWrappers);
            Tick when = ref_now + shape.delta(rnd);
            eq.reschedule(*wrappers[w], when);
            ref.erase(wrapper_key[w]);
            wrapper_key[w] = Key{when, ref_seq++,
                                 10000 + static_cast<int>(w)};
            ref.insert(wrapper_key[w]);
            break;
        }
        case 10: // Burst.
            schedule_burst();
            break;
        case 11: { // Peek must agree with the reference minimum.
            Tick want =
                ref.empty() ? kTickNever : std::get<0>(*ref.begin());
            EXPECT_EQ(eq.peekNextTick(), want) << "seed " << seed;
            break;
        }
        case 12:
        case 13: { // Inclusive bounded run.
            Tick until = ref_now + rnd() % shape.horizon;
            eq.runUntil(until);
            ref_run(until, /*strict=*/false);
            break;
        }
        default: { // Exclusive window (the shard primitive).
            Tick end = ref_now + rnd() % shape.horizon;
            eq.runWindow(end);
            ref_run(end, /*strict=*/true);
            break;
        }
        }
    }

    eq.runAll();
    ref_run(kTickNever, /*strict=*/false);

    EXPECT_EQ(real_order, ref_order) << "seed " << seed;
    EXPECT_TRUE(eq.empty()) << "seed " << seed;
    return stats;
}

/** The original mixed-scale delta stream: tiny, mid and huge gaps. */
Tick
mixedDelta(Lcg& rnd)
{
    switch (rnd() % 8) {
    case 0:
    case 1:
    case 2:
        return rnd() % 64;
    case 3:
    case 4:
        return rnd() % 4096;
    case 5:
        return rnd() % 262144;
    case 6:
        return rnd() % (Tick{1} << 30);
    default:
        return 0; // Same-tick pileup.
    }
}

/**
 * The simulator's measured delay mix (ticks are picoseconds): ~1/8
 * zero and ~1/8 on one of four shared short offsets (both pile events
 * onto the same tick), the rest spread roughly log-uniformly over
 * 1 ns-16 us.
 */
Tick
picosecondDelta(Lcg& rnd)
{
    switch (rnd() % 8) {
    case 0:
        return 0;
    case 1:
        return 1000 * (rnd() % 4);
    default: {
        Tick lo = Tick{1000} << (rnd() % 14);
        return lo + rnd() % lo;
    }
    }
}

TEST(EventKernel, DifferentialFuzzAgainstReferenceOrder)
{
    FuzzShape shape;
    shape.delta = mixedDelta;
    for (std::uint64_t seed :
         {std::uint64_t{1}, std::uint64_t{0xdeadbeef},
          std::uint64_t{0x5eed5eed5eed}}) {
        runDifferentialFuzz(seed, shape);
    }
}

/**
 * The same differential check at the simulator's real scale:
 * picosecond delays (1 ns-16 us plus same-tick pile-ups), a seed that
 * starts with more than 4096 events outstanding, and cancel storms
 * that force dead-entry compaction between a runWindow and a burst.
 */
TEST(EventKernel, DifferentialFuzzPicosecondScale)
{
    FuzzShape shape;
    shape.delta = picosecondDelta;
    shape.horizon = 4'000'000;
    shape.burstStart = 2'000'000;
    shape.burstStep = 400'000;
    shape.ops = 3000;
    shape.cancelStorms = true;
    std::uint64_t compactions = 0;
    for (std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{0xc0ffee}}) {
        compactions += runDifferentialFuzz(seed, shape).compactions;
    }
    EXPECT_GT(compactions, 0u);

    shape.preload = 5000;
    FuzzStats deep = runDifferentialFuzz(0xdeeb, shape);
    EXPECT_GE(deep.maxPending, 4096u);
}

/**
 * Lazy deletion stays bounded: a million schedule/cancel pairs over
 * ~10 live events never let the heap hold more than 2 x pending + 64
 * entries, and everything live still fires in order afterwards.
 */
TEST(EventKernel, CancelChurnKeepsResidentEntriesBounded)
{
    EventQueue eq;
    std::vector<int> trace;
    std::vector<std::unique_ptr<TraceEvent>> live;
    for (int i = 0; i < 10; ++i) {
        live.push_back(std::make_unique<TraceEvent>(trace, i));
        eq.schedule(*live.back(), 1'000'000 + static_cast<Tick>(i));
    }
    std::size_t worst = 0;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
        EventId id = eq.schedule(1000 + i % 5000, [] {});
        eq.cancel(id);
        std::size_t resident = eq.residentEntries();
        worst = std::max(worst, resident);
        ASSERT_LE(resident, 2 * eq.pending() + 64) << "pair " << i;
    }
    EXPECT_EQ(eq.pending(), 10u);
    EXPECT_LE(worst, 2 * std::size_t{10} + 64);
    eq.runAll();
    EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
    EXPECT_EQ(eq.eventsFired(), 10u);
}

} // namespace
} // namespace nvdimmc
