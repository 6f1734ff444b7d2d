/**
 * @file
 * Paper Fig 9: 4 KB random performance vs thread count (iodepth =
 * thread count in the paper; our workers are closed-loop, one op in
 * flight each, so the thread count is the outstanding-op count).
 *
 * Expected shape: the baseline scales to ~8 threads and saturates
 * near the channel limit (paper: 2123 KIOPS / 8694 MB/s); NVDC-Cached
 * saturates lower (driver-lock bound; paper: ~1060 KIOPS reads at 8T,
 * 1127 KIOPS writes at 16T); NVDC-Uncached saturates by ~4 threads at
 * ~100 MB/s (CP queue depth 1).
 */

#include "bench_common.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

FioConfig
cfgFor(FioConfig::Pattern pattern, unsigned threads)
{
    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    cfg.threads = threads;
    cfg.rampTime = 2 * kMs;
    cfg.runTime = 25 * kMs;
    return cfg;
}

void
BM_Baseline_Threads(benchmark::State& state, FioConfig::Pattern pattern)
{
    auto threads = static_cast<unsigned>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        core::BaselineSystem sys(core::BaselineConfig::scaledBench());
        FioConfig cfg = cfgFor(pattern, threads);
        cfg.regionBytes = 2 * kGiB;
        res = runFio(sys.eq(), pmemAccess(sys), cfg);
    }
    // Paper peak: 2123 KIOPS / 8694 MB/s at 8 threads.
    report(state, res, threads == 8 ? 8694.0 : 0.0,
           threads == 8 ? 2123.0 : 0.0);
}

void
BM_NvdcCached_Threads(benchmark::State& state,
                      FioConfig::Pattern pattern)
{
    auto threads = static_cast<unsigned>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeCachedSystem();
        FioConfig cfg = cfgFor(pattern, threads);
        cfg.regionBytes = cachedRegionBytes(*sys);
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        recordObservability(
            "BM_NvdcCached_Threads/" + std::to_string(threads), *sys);
    }
    bool read = pattern == FioConfig::Pattern::RandRead;
    // Paper peaks: reads 1060 KIOPS / 4341 MB/s at 8T; writes 1127
    // KIOPS / 4615 MB/s at 16T.
    double pm = 0.0, pk = 0.0;
    if (read && threads == 8) {
        pm = 4341.0;
        pk = 1060.0;
    } else if (!read && threads == 16) {
        pm = 4615.0;
        pk = 1127.0;
    }
    report(state, res, pm, pk);
}

void
BM_NvdcUncached_Threads(benchmark::State& state,
                        FioConfig::Pattern pattern)
{
    auto threads = static_cast<unsigned>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeUncachedSystem();
        FioConfig cfg = cfgFor(pattern, threads);
        auto [base, bytes] = uncachedRegion(*sys);
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.rampTime = 5 * kMs;
        cfg.runTime = 120 * kMs;
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        recordObservability(
            "BM_NvdcUncached_Threads/" + std::to_string(threads), *sys);
    }
    // Paper: saturates at 4 threads, 24.3 KIOPS / 99.7 MB/s.
    report(state, res, threads == 4 ? 99.7 : 0.0,
           threads == 4 ? 24.3 : 0.0);
}

BENCHMARK_CAPTURE(BM_Baseline_Threads, rand_read,
                  FioConfig::Pattern::RandRead)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Baseline_Threads, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCached_Threads, rand_read,
                  FioConfig::Pattern::RandRead)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCached_Threads, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcUncached_Threads, rand_read,
                  FioConfig::Pattern::RandRead)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcUncached_Threads, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->RangeMultiplier(2)->Range(1, 16)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
