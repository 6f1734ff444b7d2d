/**
 * @file
 * Parallel-in-time kernel tests.
 *
 * Covers the sharded execution refactor:
 *  - EventQueue::runWindow / peekNextTick window primitives;
 *  - ShardCoordinator mechanics: deterministic channel->host merge
 *    order, idle jumps, and the conservative-quantum runtime checker;
 *  - the quantum properties the design promises: the auto-derived
 *    quantum never exceeds any cross-channel latency term, shrinking
 *    it never changes results, and growing it past the bound panics;
 *  - whole-system bit-exactness: a 4-channel fio run produces
 *    byte-identical stats (and trace files) for every --threads value;
 *  - the shard-audit regressions: the tracer's global capture buffer
 *    is safe and canonical under concurrent recording, Rng instances
 *    share no hidden state, SimMutex wake order is schedule-free.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/shard.hh"
#include "common/sim_mutex.hh"
#include "common/span.hh"
#include "common/trace.hh"
#include "core/system.hh"
#include "workload/fio.hh"

namespace nvdimmc
{
namespace
{

// ---------------------------------------------------------------------
// EventQueue window primitives.

TEST(RunWindow, FiresStrictlyBeforeEndAndAdvances)
{
    EventQueue eq;
    std::vector<int> fired;
    eq.schedule(Tick{10}, [&] { fired.push_back(10); });
    eq.schedule(Tick{99}, [&] { fired.push_back(99); });
    eq.schedule(Tick{100}, [&] { fired.push_back(100); });
    eq.schedule(Tick{150}, [&] { fired.push_back(150); });

    eq.runWindow(100);
    // The right edge is exclusive: the tick-100 event belongs to the
    // next window.
    EXPECT_EQ(fired, (std::vector<int>{10, 99}));
    EXPECT_EQ(eq.now(), Tick{100});

    eq.runWindow(101);
    EXPECT_EQ(fired, (std::vector<int>{10, 99, 100}));
    EXPECT_EQ(eq.now(), Tick{101});
}

TEST(RunWindow, AdvancesOverEmptyQueue)
{
    EventQueue eq;
    EXPECT_EQ(eq.peekNextTick(), kTickNever);
    eq.runWindow(5000);
    EXPECT_EQ(eq.now(), Tick{5000});
}

TEST(RunWindow, PeekSkipsCancelledEvents)
{
    EventQueue eq;
    EventId id = eq.schedule(Tick{10}, [] {});
    eq.schedule(Tick{20}, [] {});
    EXPECT_EQ(eq.peekNextTick(), Tick{10});
    eq.cancel(id);
    EXPECT_EQ(eq.peekNextTick(), Tick{20});
}

// ---------------------------------------------------------------------
// Staged-batch admission (the batched mailbox-delivery lane).

TEST(ScheduleBatch, EmptyBatchIsANoOpAndWindowStillAdvances)
{
    EventQueue eq;
    std::vector<EventQueue::TimedCallback> batch;
    eq.scheduleBatch(batch);
    EXPECT_EQ(eq.peekNextTick(), kTickNever);
    eq.runWindow(500); // Empty window: pure clock advance.
    EXPECT_EQ(eq.now(), Tick{500});
}

TEST(ScheduleBatch, RespectsTheExclusiveWindowEdge)
{
    EventQueue eq;
    std::vector<int> fired;
    std::vector<EventQueue::TimedCallback> batch;
    batch.push_back({Tick{99}, [&] { fired.push_back(99); }, 0});
    batch.push_back({Tick{100}, [&] { fired.push_back(100); }, 0});
    eq.scheduleBatch(batch);
    // A staged event exactly on the boundary belongs to the next
    // window, same as a heap event.
    eq.runWindow(100);
    EXPECT_EQ(fired, (std::vector<int>{99}));
    EXPECT_EQ(eq.now(), Tick{100});
    eq.runWindow(101);
    EXPECT_EQ(fired, (std::vector<int>{99, 100}));
}

TEST(ScheduleBatch, MergesWithHeapInScheduleOrderAtSameTick)
{
    EventQueue eq;
    std::vector<std::string> fired;
    eq.schedule(Tick{50}, [&] { fired.push_back("heap-first"); });
    std::vector<EventQueue::TimedCallback> batch;
    batch.push_back({Tick{40}, [&] { fired.push_back("batch40"); }, 0});
    batch.push_back({Tick{50}, [&] { fired.push_back("batch50"); }, 0});
    eq.scheduleBatch(batch);
    eq.schedule(Tick{50}, [&] { fired.push_back("heap-last"); });
    eq.schedule(Tick{30}, [&] { fired.push_back("heap30"); });
    eq.runAll();
    // Ticks ascend; within a tick, global schedule order (heap or
    // staged) wins — exactly what per-message scheduling produced.
    EXPECT_EQ(fired, (std::vector<std::string>{"heap30", "batch40",
                                               "heap-first", "batch50",
                                               "heap-last"}));
}

TEST(ScheduleBatch, KeepsPostOrderWithinATickAndAcrossBatches)
{
    EventQueue eq;
    std::vector<int> fired;
    std::vector<EventQueue::TimedCallback> a, b;
    a.push_back({Tick{10}, [&] { fired.push_back(1); }, 0});
    a.push_back({Tick{10}, [&] { fired.push_back(2); }, 0});
    b.push_back({Tick{10}, [&] { fired.push_back(3); }, 0});
    b.push_back({Tick{20}, [&] { fired.push_back(4); }, 0});
    eq.scheduleBatch(a);
    eq.scheduleBatch(b);
    eq.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

TEST(ScheduleBatch, ReentrantBatchFromAStagedCallbackIsSafe)
{
    EventQueue eq;
    std::vector<int> fired;
    std::vector<EventQueue::TimedCallback> outer;
    outer.push_back({Tick{10}, [&] {
        fired.push_back(1);
        // Re-enter scheduleBatch from inside a staged callback; the
        // queue must survive its stage vector mutating under it.
        std::vector<EventQueue::TimedCallback> inner;
        inner.push_back({Tick{15}, [&] { fired.push_back(2); }, 0});
        eq.scheduleBatch(inner);
    }, 0});
    outer.push_back({Tick{20}, [&] { fired.push_back(3); }, 0});
    eq.scheduleBatch(outer);
    eq.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(ScheduleBatch, RecyclesTheDeliveryBuffer)
{
    EventQueue eq;
    std::vector<EventQueue::TimedCallback> batch;
    batch.reserve(64);
    batch.push_back({Tick{10}, [] {}, 0});
    eq.scheduleBatch(batch);
    // The queue takes the storage and hands back an empty buffer the
    // caller can refill (possibly a recycled one from an earlier,
    // already-drained batch).
    EXPECT_TRUE(batch.empty());
    eq.runAll();
    batch.push_back({Tick{20}, [] {}, 0});
    eq.scheduleBatch(batch);
    eq.runAll();
    EXPECT_EQ(eq.now(), Tick{20});
}

TEST(ScheduleBatch, RejectsPastStampsAndUnsortedBatches)
{
    EventQueue eq;
    eq.schedule(Tick{100}, [] {});
    eq.runAll();
    ASSERT_EQ(eq.now(), Tick{100});
    std::vector<EventQueue::TimedCallback> past;
    past.push_back({Tick{50}, [] {}, 0});
    EXPECT_THROW(eq.scheduleBatch(past), PanicError);
    std::vector<EventQueue::TimedCallback> unsorted;
    unsorted.push_back({Tick{300}, [] {}, 0});
    unsorted.push_back({Tick{200}, [] {}, 0});
    EXPECT_THROW(eq.scheduleBatch(unsorted), PanicError);
}

// ---------------------------------------------------------------------
// ShardCoordinator mechanics.

/** Fixture pieces: a host queue and two shard queues under a
 *  coordinator with quantum 100. */
struct CoordRig
{
    EventQueue host;
    EventQueue s0, s1;
    ShardCoordinator coord;

    explicit CoordRig(unsigned executors)
        : coord(host, {&s0, &s1}, /*quantum=*/100, executors)
    {
        host.setCoordinator(&coord);
    }
};

/** Channel->host messages must interleave as (tick, shard index,
 *  post order) no matter which worker ran which shard. */
void
mergeOrderRun(unsigned executors, std::vector<std::string>& order)
{
    CoordRig rig(executors);
    // Both shards post host messages for the *same* host ticks; shard
    // 1 schedules its generating events earlier in wall-clock terms
    // (lower shard tick) to tempt a naive merge into reordering.
    rig.s1.schedule(Tick{5}, [&] {
        rig.coord.postToHost(1, 300, [&] { order.push_back("s1a"); });
        rig.coord.postToHost(1, 200, [&] { order.push_back("s1b"); });
    });
    rig.s0.schedule(Tick{50}, [&] {
        rig.coord.postToHost(0, 300, [&] { order.push_back("s0a"); });
        rig.coord.postToHost(0, 200, [&] { order.push_back("s0b"); });
    });
    rig.host.runUntil(1000);
    EXPECT_EQ(rig.host.now(), Tick{1000});
    EXPECT_EQ(rig.s0.now(), Tick{1000});
    EXPECT_EQ(rig.s1.now(), Tick{1000});
}

TEST(ShardCoordinator, MergeOrderIsTickThenShardThenPostOrder)
{
    std::vector<std::string> serial, parallel;
    mergeOrderRun(1, serial);
    mergeOrderRun(2, parallel);
    // Tick 200 first; within a tick shard 0 before shard 1; within a
    // shard, post order.
    EXPECT_EQ(serial, (std::vector<std::string>{"s0b", "s1b", "s0a",
                                                "s1a"}));
    EXPECT_EQ(parallel, serial);
}

TEST(ShardCoordinator, HostToShardDeliveryAndIdleJump)
{
    CoordRig rig(2);
    std::vector<Tick> fired;
    rig.coord.postToShard(0, Tick{1'000'000},
                          [&] { fired.push_back(rig.s0.now()); });
    // One idle jump covers the whole gap: no window churn while the
    // only event is far away.
    rig.host.runUntil(999'999);
    EXPECT_TRUE(fired.empty());
    std::uint64_t windows_before = rig.coord.windows();
    rig.host.runUntil(1'000'200);
    EXPECT_EQ(fired, (std::vector<Tick>{1'000'000}));
    EXPECT_LE(rig.coord.windows() - windows_before, 2u);
}

TEST(ShardCoordinator, RuntimeCheckerTripsInsideWindow)
{
    CoordRig rig(1);
    // A host event that posts a cross-shard message *inside* the
    // current sync window models a latency path shorter than the
    // quantum — exactly what the conservative checker must catch.
    rig.host.schedule(Tick{10}, [&] {
        rig.coord.postToShard(0, rig.host.now() + 1, [] {});
    });
    EXPECT_THROW(rig.host.runUntil(500), PanicError);
}

TEST(ShardCoordinator, ShardExceptionPropagatesAndStaysRunnable)
{
    CoordRig rig(2);
    rig.s0.schedule(Tick{10}, [] { panic("shard boom"); });
    EXPECT_THROW(rig.host.runUntil(500), PanicError);
    // The coordinator must be reusable after the throw (the error
    // slot and inRound flag are cleared).
    std::vector<int> fired;
    rig.coord.postToShard(1, rig.s1.now() + 200,
                          [&] { fired.push_back(1); });
    rig.host.runUntil(rig.host.now() + 1000);
    EXPECT_EQ(fired, (std::vector<int>{1}));
}

// ---------------------------------------------------------------------
// Adaptive lookahead (per-link promises).

TEST(Lookahead, QuietPromiseCollapsesWindowsToOne)
{
    CoordRig rig(1);
    // Shard 0 runs internal-only events spread far wider than the
    // quantum; its link honestly promises nothing is in flight.
    std::vector<Tick> fired;
    for (Tick t : {Tick{10}, Tick{300}, Tick{600}, Tick{900}})
        rig.s0.schedule(t, [&, t] { fired.push_back(t); });
    rig.coord.setLink(0, ShardCoordinator::kToHost, 100,
                      [] { return kTickNever; });
    rig.host.runUntil(1000);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 300, 600, 900}));
    // Without the promise this takes one window per event cluster;
    // with it the round runs straight to the target.
    EXPECT_EQ(rig.coord.windows(), 1u);
}

TEST(Lookahead, StaticQuantumNeedsAWindowPerCluster)
{
    // Control for the test above: same event pattern, no promise.
    CoordRig rig(1);
    std::vector<Tick> fired;
    for (Tick t : {Tick{10}, Tick{300}, Tick{600}, Tick{900}})
        rig.s0.schedule(t, [&, t] { fired.push_back(t); });
    rig.host.runUntil(1000);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 300, 600, 900}));
    EXPECT_EQ(rig.coord.windows(), 4u);
}

TEST(Lookahead, FinitePromiseRaisesTheBoundOnly)
{
    // A promise of "nothing before tick 450" widens early windows but
    // never shrinks the static peek+latency bound (max, not replace).
    CoordRig rig(1);
    std::vector<Tick> fired;
    for (Tick t : {Tick{10}, Tick{300}, Tick{600}, Tick{900}})
        rig.s0.schedule(t, [&, t] { fired.push_back(t); });
    rig.coord.setLink(0, ShardCoordinator::kToHost, 100,
                      [] { return Tick{450}; });
    rig.host.runUntil(1000);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 300, 600, 900}));
    // Window 1 ends at 450 (fires 10 and 300), then 600+100, then
    // 900+100 capped at the target: three windows, not four.
    EXPECT_EQ(rig.coord.windows(), 3u);
}

TEST(Lookahead, UnsoundPromiseTripsTheCheckerMidWindow)
{
    // The link claims it is quiet forever, but the shard emits a
    // message anyway. The extended window must not silently corrupt
    // time: the conservative runtime checker catches the stamp landing
    // inside the in-flight window.
    CoordRig rig(1);
    rig.coord.setLink(0, ShardCoordinator::kToHost, 100,
                      [] { return kTickNever; });
    rig.s0.schedule(Tick{10}, [&] {
        rig.coord.postToHost(0, rig.s0.now() + 100, [] {});
    });
    EXPECT_THROW(rig.host.runUntil(1000), PanicError);
}

// ---------------------------------------------------------------------
// Quantum properties.

TEST(QuantumBound, NeverExceedsAnyLatencyTerm)
{
    for (std::uint32_t channels : {1u, 2u, 4u, 8u}) {
        for (bool stagger : {false, true}) {
            for (Tick link : {10 * kNs, 200 * kNs, 5 * kUs}) {
                core::SystemConfig cfg = core::SystemConfig::scaledTest();
                cfg.channels = channels;
                cfg.staggerRefresh = stagger;
                cfg.hostLinkLatency = link;
                Tick q = core::NvdimmcSystem::quantumBound(cfg);
                EXPECT_GE(q, Tick{1});
                EXPECT_LE(q, cfg.hostLinkLatency);
                EXPECT_LE(q, cfg.driver.cpWriteCost);
                if (stagger && channels > 1) {
                    EXPECT_LE(q, cfg.refresh.tREFI / channels);
                }
            }
        }
    }
}

/** One short sharded fio run; returns the full text stats dump. */
std::string
shardedRun(std::uint32_t channels, std::uint32_t threads,
           Tick quantum_override = 0, const char* trace_path = nullptr,
           bool media_shards = true)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = channels;
    cfg.threads = threads;
    cfg.quantumOverride = quantum_override;
    cfg.mediaShards = media_shards;
    core::NvdimmcSystem sys(cfg);
    const std::uint32_t slots = sys.totalSlotCount();
    const std::uint32_t pages = slots - 64 * channels;
    sys.precondition(0, pages, true);

    if (trace_path)
        trace::start(trace_path);

    workload::FioConfig fio;
    fio.pattern = workload::FioConfig::Pattern::RandWrite;
    fio.blockSize = 4096;
    fio.threads = 2;
    fio.regionBytes = std::uint64_t{pages} * 4096;
    fio.rampTime = 50 * kUs;
    fio.runTime = 500 * kUs;
    fio.seed = 42;
    workload::AccessFn fn = [&sys](Addr off, std::uint32_t len,
                                   bool is_write,
                                   std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
    workload::FioJob job(sys.eq(), fn, fio);
    workload::FioResult res = job.run();

    if (trace_path) {
        EXPECT_TRUE(trace::stop());
    }

    EXPECT_TRUE(sys.hardwareClean());
    std::ostringstream os;
    os.precision(17);
    os << res.mbps << " " << res.kiops << " " << res.ops << "\n";
    sys.dumpStats(os);
    return os.str();
}

TEST(ParallelDeterminism, ByteIdenticalAcrossThreadCounts)
{
    std::string t1 = shardedRun(4, 1);
    std::string t2 = shardedRun(4, 2);
    std::string t4 = shardedRun(4, 4);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t4);
    EXPECT_NE(t1.find("cache.hits"), std::string::npos);
}

TEST(ParallelDeterminism, SingleChannelSharded)
{
    EXPECT_EQ(shardedRun(1, 1), shardedRun(1, 4));
}

TEST(ParallelDeterminism, MediaShardsWithThreadsBeyondChannels)
{
    // With the media split a 2-channel machine has 4 shards, so
    // thread counts above the channel count are meaningful executor
    // counts, not clamps. Results must stay byte-identical right
    // through that regime (and past the shard count).
    std::string t1 = shardedRun(2, 1);
    EXPECT_EQ(t1, shardedRun(2, 3));
    EXPECT_EQ(t1, shardedRun(2, 4));
    EXPECT_EQ(t1, shardedRun(2, 8));
}

TEST(ParallelDeterminism, MediaSplitOffIsStillDeterministic)
{
    // The classic shard-per-channel topology stays available behind
    // cfg.mediaShards and keeps its own determinism guarantee.
    EXPECT_EQ(shardedRun(2, 1, 0, nullptr, false),
              shardedRun(2, 4, 0, nullptr, false));
}

TEST(QuantumShrink, NeverChangesResults)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    Tick bound = core::NvdimmcSystem::quantumBound(cfg);
    ASSERT_GE(bound, Tick{7});
    std::string base = shardedRun(2, 2);
    EXPECT_EQ(base, shardedRun(2, 2, bound / 3));
    EXPECT_EQ(base, shardedRun(2, 2, bound / 7));
}

TEST(QuantumGrow, PastBoundPanicsAtConstruction)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    cfg.threads = 2;
    cfg.quantumOverride = 2 * core::NvdimmcSystem::quantumBound(cfg);
    EXPECT_THROW(core::NvdimmcSystem sys(cfg), PanicError);
}

// ---------------------------------------------------------------------
// Stats metadata.

TEST(StatsMeta, ShardedJsonCarriesMetaTextDoesNot)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    cfg.threads = 2;
    core::NvdimmcSystem sys(cfg);

    std::ostringstream json, text;
    sys.dumpStatsJson(json);
    sys.dumpStats(text);
    EXPECT_NE(json.str().find("\"_meta\":{\"threads\":"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"quantum_ticks\":"), std::string::npos);
    // Z-NAND media split: 2 channels -> 4 shards, and the media pair's
    // own quantum is reported alongside the DDR one.
    EXPECT_NE(json.str().find("\"shards\":4"), std::string::npos);
    EXPECT_NE(json.str().find("\"media_shards\":1"), std::string::npos);
    EXPECT_NE(json.str().find("\"media_quantum_ticks\":"),
              std::string::npos);
    EXPECT_EQ(text.str().find("_meta"), std::string::npos);
    EXPECT_EQ(text.str().find("threads"), std::string::npos);
}

TEST(StatsMeta, MediaSplitOffReportsChannelShards)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 2;
    cfg.threads = 2;
    cfg.mediaShards = false;
    core::NvdimmcSystem sys(cfg);
    std::ostringstream json;
    sys.dumpStatsJson(json);
    EXPECT_NE(json.str().find("\"shards\":2"), std::string::npos);
    EXPECT_NE(json.str().find("\"media_shards\":0"), std::string::npos);
    EXPECT_EQ(json.str().find("media_quantum_ticks"),
              std::string::npos);
}

TEST(StatsMeta, ClassicJsonHasNoMeta)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    core::NvdimmcSystem sys(cfg);
    std::ostringstream json;
    sys.dumpStatsJson(json);
    EXPECT_EQ(json.str().find("_meta"), std::string::npos);
}

// ---------------------------------------------------------------------
// Shard-audit regressions (hidden global state).

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(TraceShardAudit, ByteIdenticalTraceAcrossThreadCounts)
{
    std::string p1 = testing::TempDir() + "/shard_trace_t1.json";
    std::string p4 = testing::TempDir() + "/shard_trace_t4.json";
    shardedRun(4, 1, 0, p1.c_str());
    shardedRun(4, 4, 0, p4.c_str());
    std::string f1 = slurp(p1);
    std::string f4 = slurp(p4);
    ASSERT_FALSE(f1.empty());
    EXPECT_EQ(f1, f4);
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

/** shardedRun with the span layer on; returns the breakdown JSON. */
std::string
spanBreakdownRun(std::uint32_t channels, std::uint32_t threads)
{
    span::enable();
    span::reset();
    shardedRun(channels, threads);
    EXPECT_TRUE(span::audit().ok());
    std::ostringstream os;
    span::writeBreakdownJson(os);
    span::reset();
    span::disable();
    return os.str();
}

TEST(SpanShardAudit, BreakdownJsonByteIdenticalAcrossThreadCounts)
{
    // Spans open and close on the host shard, whose event order is
    // executor-count-invariant, so the exact-integer JSON export must
    // match byte for byte — the breakdown.jsonl determinism
    // guarantee.
    std::string t1 = spanBreakdownRun(4, 1);
    std::string t4 = spanBreakdownRun(4, 4);
    EXPECT_EQ(t1, t4);
    EXPECT_NE(t1.find("\"classes\":{"), std::string::npos);
    EXPECT_NE(t1.find("\"write\":{\"spans\":"), std::string::npos);
}

TEST(RngShardAudit, InstancesShareNoState)
{
    // Interleaved draws from two same-seed generators must equal an
    // isolated run of one: any hidden global state would skew them.
    Rng a(7, 3), b(7, 3), ref(7, 3);
    std::vector<std::uint32_t> interleaved_a, isolated;
    for (int i = 0; i < 64; ++i) {
        interleaved_a.push_back(a.next());
        (void)b.next();
    }
    for (int i = 0; i < 64; ++i)
        isolated.push_back(ref.next());
    EXPECT_EQ(interleaved_a, isolated);
}

TEST(SimMutexShardAudit, WakeOrderIsScheduleFree)
{
    // Two identical contention patterns must grant in the same order:
    // the deferred-grant event ordering is part of the deterministic
    // surface the sharded kernel relies on.
    auto run = [] {
        EventQueue eq;
        SimMutex m(eq);
        std::vector<int> order;
        for (int i = 0; i < 4; ++i) {
            eq.schedule(Tick{10}, [&eq, &m, &order, i] {
                m.acquire([&eq, &m, &order, i] {
                    order.push_back(i);
                    eq.scheduleAfter(5, [&m] { m.release(); });
                });
            });
        }
        eq.runAll();
        return order;
    };
    std::vector<int> first = run();
    EXPECT_EQ(first, run());
    EXPECT_EQ(first, (std::vector<int>{0, 1, 2, 3}));
}

} // namespace
} // namespace nvdimmc
