/**
 * @file
 * Paper Fig 10: 4 KB-cached random reads/writes with varying access
 * granularity (128 B ... 64 KB), one thread.
 *
 * Expected shape: at small sizes the NVDC-Cached device is
 * IOPS-limited and competitive with (paper: 1.15x faster than) the
 * baseline, because both are just loads through valid mappings; the
 * bandwidth jumps sharply between 1 KB and 4 KB (per-op software cost
 * amortizes over the driver's 4 KB mapping granularity); 64 KB reads
 * reach ~3 GB/s (paper: 3050 MB/s).
 */

#include "bench_common.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

void
BM_NvdcCached_Granularity(benchmark::State& state,
                          FioConfig::Pattern pattern)
{
    auto bs = static_cast<std::uint32_t>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeCachedSystem();
        FioConfig cfg;
        cfg.pattern = pattern;
        cfg.blockSize = bs;
        cfg.threads = 1;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
        cfg.regionBytes = cachedRegionBytes(*sys);
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        recordObservability(
            "BM_NvdcCached_Granularity/" + std::to_string(bs), *sys);
    }
    // Paper anchors: 2147 KIOPS at 128 B reads; 3050 MB/s at 64 KB.
    double pk = 0.0, pm = 0.0;
    if (pattern == FioConfig::Pattern::RandRead) {
        if (bs == 128)
            pk = 2147.0;
        if (bs == 65536)
            pm = 3050.0;
    }
    report(state, res, pm, pk);
}

void
BM_Baseline_Granularity(benchmark::State& state,
                        FioConfig::Pattern pattern)
{
    auto bs = static_cast<std::uint32_t>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        core::BaselineSystem sys(core::BaselineConfig::scaledBench());
        FioConfig cfg;
        cfg.pattern = pattern;
        cfg.blockSize = bs;
        cfg.threads = 1;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
        cfg.regionBytes = 2 * kGiB;
        res = runFio(sys.eq(), pmemAccess(sys), cfg);
    }
    // Paper anchor: ~1867 KIOPS at 128 B reads (the cached device is
    // 1.15x faster there).
    report(state, res, 0.0,
           (pattern == FioConfig::Pattern::RandRead && bs == 128)
               ? 1867.0
               : 0.0);
}

BENCHMARK_CAPTURE(BM_NvdcCached_Granularity, rand_read,
                  FioConfig::Pattern::RandRead)
    ->RangeMultiplier(4)->Range(128, 65536)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCached_Granularity, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->RangeMultiplier(4)->Range(128, 65536)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Baseline_Granularity, rand_read,
                  FioConfig::Pattern::RandRead)
    ->RangeMultiplier(4)->Range(128, 65536)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Baseline_Granularity, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->RangeMultiplier(4)->Range(128, 65536)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/** The paper's 8-thread small-access anchor: 10.9 MIOPS at 128 B. */
void
BM_NvdcCached_128B_8T(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeCachedSystem();
        FioConfig cfg;
        cfg.pattern = FioConfig::Pattern::RandRead;
        cfg.blockSize = 128;
        cfg.threads = 8;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 20 * kMs;
        cfg.regionBytes = cachedRegionBytes(*sys);
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        recordObservability("BM_NvdcCached_128B_8T", *sys);
    }
    report(state, res, 0.0, 10900.0);
}
BENCHMARK(BM_NvdcCached_128B_8T)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
