/**
 * @file
 * Simulator-kernel microbenchmark: raw event throughput of
 * common/event_queue, independent of any device model.
 *
 * Four patterns, matching how the simulator actually drives the
 * queue:
 *
 *  - chain: one outstanding one-shot event at a time, each firing
 *    schedules the next (a controller state machine stepping).
 *  - churn4k: 4096 one-shot events outstanding, each firing
 *    reschedules itself with a varying delay (many in-flight ops).
 *  - schedule_cancel: schedule + cancel pairs that never fire
 *    (timeout guards, superseded wakeups).
 *  - intrusive_periodic: 64 owner-embedded events rescheduling
 *    themselves in place (iMC wakeups, controller steps).
 *  - shape_*: scheduler-shape probes, each one region of the space a
 *    kernel data structure can win or lose in — dense near-future
 *    (512 events at < 64-tick deltas), sparse far-future (16 events at
 *    64K-16M-tick deltas), cancel-heavy (lazy deletion),
 *    reschedule-heavy (in-place re-aiming) — plus measured_mix, the
 *    one shape drawn from the simulator's own traffic (2-16 live
 *    events, picosecond delays from 0 to 16 us, one refresh timer).
 *    The synthetic shapes keep far more events outstanding at far
 *    shorter delays than any measured workload (EXPERIMENTS.md,
 *    "Kernel traffic"), so they bound a change's cost rather than
 *    predict its effect on a simulation.
 *
 * Every pattern reports events/sec via items_per_second. By default
 * the binary writes its results to BENCH_kernel.json in the working
 * directory (override with --benchmark_out=...). The JSON context
 * carries the host name and core count; pass the commit with
 * --benchmark_context=commit=SHA so a recorded baseline says which
 * code produced it.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "common/event_queue.hh"

namespace nvdimmc::bench
{
namespace
{

void
BM_OneShotChain(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::function<void()> step = [&] {
            if (++fired < kEvents)
                eq.scheduleAfter(100, step);
        };
        eq.scheduleAfter(100, step);
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

void
BM_OneShotChurn4k(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 4096;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents)
                    eq.scheduleAfter(100 + (fired * 7 + i) % 97,
                                     steps[i]);
            };
            eq.scheduleAfter(1 + i, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

void
BM_ScheduleCancel(benchmark::State& state)
{
    const std::uint64_t kPairs = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sunk = 0;
        for (std::uint64_t i = 0; i < kPairs; ++i) {
            EventId id =
                eq.schedule(eq.now() + 1000 + i, [&] { ++sunk; });
            eq.cancel(id);
        }
        eq.runAll();
        benchmark::DoNotOptimize(sunk);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kPairs) *
                            state.iterations());
}

class PeriodicEvent final : public Event
{
  public:
    PeriodicEvent(EventQueue& eq, std::uint64_t& fired,
                  std::uint64_t budget, Tick period)
        : eq_(eq), fired_(fired), budget_(budget), period_(period)
    {
    }

    void
    process() override
    {
        if (++fired_ < budget_)
            eq_.scheduleAfter(*this, period_);
    }

    const char* name() const override { return "bench-periodic"; }

  private:
    EventQueue& eq_;
    std::uint64_t& fired_;
    std::uint64_t budget_;
    Tick period_;
};

void
BM_IntrusivePeriodic(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    const std::size_t kActors = 64;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::deque<PeriodicEvent> actors; // Events pin their address.
        for (std::size_t i = 0; i < kActors; ++i) {
            actors.emplace_back(eq, fired, kEvents,
                                Tick{50 + 13 * (i % 7)});
            eq.schedule(actors.back(), 1 + i);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

// ---------------------------------------------------------------------
// Scheduler-shape microbenches: each isolates one region of the
// kernel's win/loss envelope so a future kernel change shows where it
// moved the needle.
// ---------------------------------------------------------------------

/**
 * Dense near-future: 512 events outstanding, every delay under 64
 * ticks — many events, tiny deltas, heavy same-window interleaving.
 */
void
BM_ShapeDenseNear(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 512;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents)
                    eq.scheduleAfter(1 + (fired * 3 + i) % 61,
                                     steps[i]);
            };
            eq.scheduleAfter(1 + i % 61, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * Sparse far-future: a handful of events with large deltas (64K–16M
 * ticks), so nearly every dispatch jumps the clock across a long
 * empty range.
 */
void
BM_ShapeSparseFar(benchmark::State& state)
{
    const std::uint64_t kOutstanding = 16;
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::vector<std::function<void()>> steps(kOutstanding);
        for (std::uint64_t i = 0; i < kOutstanding; ++i) {
            steps[i] = [&, i] {
                if (++fired < kEvents) {
                    Tick delta = Tick{65536}
                                 << ((fired * 5 + i) % 9);
                    eq.scheduleAfter(delta, steps[i]);
                }
            };
            eq.scheduleAfter(65536 + i * 4096, steps[i]);
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * Cancel-heavy: 7 of 8 scheduled events are cancelled before they
 * can fire (timeout guards). Generation-stamped lazy deletion is what
 * keeps the cancels O(1); the dead entries are skipped when they
 * surface or dropped when the kernel compacts.
 */
void
BM_ShapeCancelHeavy(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::uint64_t scheduled = 0;
        std::function<void()> step = [&] {
            ++fired;
            for (int g = 0; g < 7; ++g) {
                EventId guard = eq.scheduleAfter(
                    500 + g, [&fired] { fired += 1000; });
                eq.cancel(guard);
            }
            if ((scheduled += 8) < kEvents)
                eq.scheduleAfter(100, step);
        };
        eq.scheduleAfter(100, step);
        eq.runAll();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * Reschedule-heavy: 256 intrusive events each re-aimed (deschedule +
 * schedule, new sequence number) several times per fire — the iMC
 * wakeup pattern when commands keep arriving and push the next
 * service tick out.
 */
void
BM_ShapeRescheduleHeavy(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    const std::size_t kActors = 256;
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t fired = 0;
        std::deque<PeriodicEvent> actors;
        for (std::size_t i = 0; i < kActors; ++i) {
            actors.emplace_back(eq, fired, kEvents,
                                Tick{60 + 7 * (i % 11)});
            eq.schedule(actors.back(), 1 + i);
        }
        std::uint64_t moved = 0;
        while (fired < kEvents) {
            eq.runFor(40);
            // Re-aim a rotating subset mid-flight.
            for (std::size_t k = 0; k < 32; ++k) {
                auto& ev = actors[(moved + k * 8) % kActors];
                if (ev.scheduled())
                    eq.reschedule(ev, eq.now() + 30 +
                                          (moved + k) % 50);
            }
            ++moved;
        }
        eq.runAll();
        benchmark::DoNotOptimize(fired + moved);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) *
                            state.iterations());
}

/**
 * An intrusive actor for BM_ShapeMeasuredMix: on each fire it steps
 * again after a delay drawn from the measured mix, goes idle or wakes
 * an idle sibling (a random walk over 1-15 live actors; with the
 * refresh timer, 2-16 live events), and sometimes re-aims a sibling
 * in place, which leaves a dead entry behind.
 */
class MixActor final : public Event
{
  public:
    struct Shared
    {
        EventQueue& eq;
        std::vector<Tick> delays; // The measured delay mix, pre-drawn.
        std::deque<MixActor> actors;
        std::uint64_t rng = 0x9e3779b97f4a7c15ull;
        std::uint64_t fired = 0;
        std::uint64_t budget = 0;
        std::size_t live = 0;

        std::uint64_t
        next()
        {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return rng >> 33;
        }

        Tick delay() { return delays[next() % delays.size()]; }
    };

    explicit MixActor(Shared& sh) : sh_(sh) {}

    void
    process() override
    {
        if (++sh_.fired >= sh_.budget) {
            --sh_.live;
            return;
        }
        std::uint64_t r = sh_.next() % 100;
        if (r < 12) {
            // In-place reschedule of a sibling (the iMC wakeup being
            // pushed out): the old entry stays resident, dead.
            MixActor& sib = sh_.actors[sh_.next() % sh_.actors.size()];
            if (sib.scheduled())
                sh_.eq.reschedule(sib, sh_.eq.now() + sh_.delay());
        }
        if (r >= 90 && sh_.live > 1) {
            --sh_.live; // Go idle; a later fire wakes someone.
            return;
        }
        if (r < 10 && sh_.live < 15) {
            for (MixActor& a : sh_.actors) {
                if (!a.scheduled() && &a != this) {
                    sh_.eq.schedule(a, sh_.eq.now() + sh_.delay());
                    ++sh_.live;
                    break;
                }
            }
        }
        sh_.eq.schedule(*this, sh_.eq.now() + sh_.delay());
    }

    const char* name() const override { return "bench-mix"; }

  private:
    Shared& sh_;
};

/**
 * Measured mix: the event traffic the simulator itself produces on
 * the simbench workloads (EXPERIMENTS.md, "Kernel traffic"). 2-16
 * live events; delays ~12% zero and otherwise log-uniform over
 * 1 ns-16 us (ticks are picoseconds); ~12% of fires re-aim another
 * event in place; one 7.8 us periodic refresh timer underneath.
 */
void
BM_ShapeMeasuredMix(benchmark::State& state)
{
    const std::uint64_t kEvents = 1'000'000;
    const std::size_t kActors = 16;
    const Tick kRefreshPeriod = 7'800'000; // tREFI in ps.
    std::uint64_t total = 0;
    for (auto _ : state) {
        EventQueue eq;
        MixActor::Shared sh{eq, {}, {}};
        sh.budget = kEvents;
        // 4096 pre-drawn delays: 12% zero, the rest log-uniform
        // between 1 ns and 16 us.
        sh.delays.reserve(4096);
        for (std::size_t i = 0; i < 4096; ++i) {
            if (sh.next() % 100 < 12) {
                sh.delays.push_back(0);
                continue;
            }
            double u = static_cast<double>(sh.next() % 1'000'000) / 1e6;
            sh.delays.push_back(
                static_cast<Tick>(1000.0 * std::pow(16'000.0, u)));
        }
        for (std::size_t i = 0; i < kActors; ++i)
            sh.actors.emplace_back(sh);
        for (std::size_t i = 0; i < 8; ++i) {
            eq.schedule(sh.actors[i], 1 + sh.delay());
            ++sh.live;
        }
        std::uint64_t refreshes = 0;
        PeriodicEvent refresh(eq, refreshes, kEvents, kRefreshPeriod);
        eq.schedule(refresh, kRefreshPeriod);
        while (sh.fired < kEvents && eq.runOne()) {
        }
        eq.deschedule(refresh);
        for (MixActor& a : sh.actors)
            eq.deschedule(a);
        total += eq.eventsFired(); // Actor steps plus refreshes.
        benchmark::DoNotOptimize(sh.fired + refreshes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(total));
}

BENCHMARK(BM_OneShotChain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OneShotChurn4k)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScheduleCancel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IntrusivePeriodic)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeDenseNear)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeSparseFar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeCancelHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeRescheduleHeavy)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShapeMeasuredMix)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

int
main(int argc, char** argv)
{
    // Default to a JSON dump the docs/CI can pick up; an explicit
    // --benchmark_out on the command line wins.
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0)
            has_out = true;
    }
    std::vector<char*> args(argv, argv + argc);
    char out_arg[] = "--benchmark_out=BENCH_kernel.json";
    char fmt_arg[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_arg);
        args.push_back(fmt_arg);
    }
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
