/**
 * @file
 * Paper Fig 8: 4 KB random read/write IOPS and bandwidth with one
 * thread and queue depth 1, for the baseline (/dev/pmem0), the
 * NVDC-Cached case (footprint inside the 16 GB DRAM cache) and the
 * NVDC-Uncached case (cache full, every access pays writeback +
 * cachefill).
 */

#include "bench_common.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

const char*
patternTag(FioConfig::Pattern pattern)
{
    return pattern == FioConfig::Pattern::RandRead ? "rand_read_4k"
                                                   : "rand_write_4k";
}

FioConfig
baseCfg(FioConfig::Pattern pattern)
{
    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    cfg.threads = 1;
    cfg.rampTime = 2 * kMs;
    cfg.runTime = 30 * kMs;
    return cfg;
}

void
BM_Baseline(benchmark::State& state, FioConfig::Pattern pattern,
            double paper_mbps, double paper_kiops)
{
    workload::FioResult res;
    for (auto _ : state) {
        core::BaselineConfig bl = core::BaselineConfig::scaledBench();
        bl.channels = benchChannels();
        core::BaselineSystem sys(bl);
        FioConfig cfg = baseCfg(pattern);
        cfg.regionBytes = 2 * kGiB;
        res = runFio(sys.eq(), pmemAccess(sys), cfg);
    }
    report(state, res, paper_mbps, paper_kiops);
}

void
BM_NvdcCached(benchmark::State& state, FioConfig::Pattern pattern,
              double paper_mbps, double paper_kiops)
{
    workload::FioResult res;
    for (auto _ : state) {
        BenchDevice dev = makeCachedDevice();
        FioConfig cfg = baseCfg(pattern);
        cfg.regionBytes = dev.cachedRegion().second;
        res = runFio(dev.eq(), dev.access(), cfg);
        if (!dev.hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability(std::string("BM_NvdcCached/") +
                                patternTag(pattern),
                            dev);
    }
    report(state, res, paper_mbps, paper_kiops);
}

void
BM_NvdcUncached(benchmark::State& state, FioConfig::Pattern pattern,
                double paper_mbps, double paper_kiops)
{
    workload::FioResult res;
    for (auto _ : state) {
        BenchDevice dev = makeUncachedDevice();
        FioConfig cfg = baseCfg(pattern);
        auto [base, bytes] = dev.missRegion();
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.rampTime = 5 * kMs;
        cfg.runTime = 150 * kMs;
        res = runFio(dev.eq(), dev.access(), cfg);
        if (!dev.hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability(std::string("BM_NvdcUncached/") +
                                patternTag(pattern),
                            dev);
    }
    report(state, res, paper_mbps, paper_kiops);
}

/**
 * Channel-scaling companion to Fig 8: many threads driving random 4 KB
 * accesses so the *aggregate* bandwidth is bound by per-channel
 * resources (driver lock, iMC queues), not by one thread's QD1
 * latency. Run with --channels=N to scale the topology; with the
 * per-channel driver locks, aggregate bandwidth scales near-linearly
 * until the CPU side saturates.
 */
void
BM_NvdcCachedAggregate(benchmark::State& state,
                       FioConfig::Pattern pattern)
{
    workload::FioResult res;
    for (auto _ : state) {
        BenchDevice dev = makeCachedDevice();
        FioConfig cfg = baseCfg(pattern);
        cfg.threads = 16;
        cfg.regionBytes = dev.cachedRegion().second;
        res = runFio(dev.eq(), dev.access(), cfg);
        if (!dev.hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability(std::string("BM_NvdcCachedAggregate/") +
                                patternTag(pattern),
                            dev);
    }
    report(state, res, 0.0, 0.0);
    state.counters["channels"] =
        static_cast<double>(benchChannels());
}

// Paper Fig 8 reported values: baseline 2606/2360 MB/s and 646/576
// KIOPS; cached 1835/1796 MB/s, 448/438 KIOPS; uncached 57.3/58.3
// MB/s, 13/14.2 KIOPS.
BENCHMARK_CAPTURE(BM_Baseline, rand_read_4k,
                  FioConfig::Pattern::RandRead, 2606.0, 646.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Baseline, rand_write_4k,
                  FioConfig::Pattern::RandWrite, 2360.0, 576.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCached, rand_read_4k,
                  FioConfig::Pattern::RandRead, 1835.0, 448.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCached, rand_write_4k,
                  FioConfig::Pattern::RandWrite, 1796.0, 438.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcUncached, rand_read_4k,
                  FioConfig::Pattern::RandRead, 57.3, 13.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcUncached, rand_write_4k,
                  FioConfig::Pattern::RandWrite, 58.3, 14.2)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCachedAggregate, rand_read_4k,
                  FioConfig::Pattern::RandRead)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NvdcCachedAggregate, rand_write_4k,
                  FioConfig::Pattern::RandWrite)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
