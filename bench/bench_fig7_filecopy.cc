/**
 * @file
 * Paper Fig 7: sequential-write bandwidth over time while copying a
 * large file from the SATA SSD into /dev/nvdc0.
 *
 * Expected shape: a plateau at the SSD's sequential read speed
 * (paper: 518 MB/s) while free DRAM-cache slots last, collapsing to
 * the writeback+cachefill rate (paper: 68 MB/s) once the cache is
 * full. Scaled run: 1.25 GiB file into a 512 MiB cache (the paper
 * copies 20 GB into 16 GB).
 */

#include "bench_common.hh"
#include "workload/filecopy.hh"
#include "workload/ssd.hh"

namespace nvdimmc::bench
{
namespace
{

void
BM_Fig7_FileCopy(benchmark::State& state)
{
    workload::FileCopyResult res;
    for (auto _ : state) {
        core::SystemConfig syscfg = core::SystemConfig::scaledBench();
        armSpanAuditor(syscfg);
        core::NvdimmcSystem sys(syscfg);
        workload::Ssd ssd(sys.eq(), workload::Ssd::Params{});

        workload::FileCopyConfig cfg;
        cfg.fileBytes = 1280 * kMiB;
        cfg.chunkBytes = 256 * 1024;
        cfg.sampleInterval = 50 * kMs;
        cfg.cacheBytes =
            std::uint64_t{sys.layout().slotCount()} * 4096;
        res = workload::runFileCopy(sys.eq(), ssd,
                                    nvdcAccess(sys), cfg);
        if (!sys.hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability("BM_Fig7_FileCopy", sys);
    }
    state.counters["cached_MBps"] = res.cachedPhaseMBps;
    state.counters["uncached_MBps"] = res.uncachedPhaseMBps;
    state.counters["paper_cached_MBps"] = 518.0;
    state.counters["paper_uncached_MBps"] = 68.0;
    state.counters["elapsed_sim_s"] = ticksToSec(res.elapsed);
}

BENCHMARK(BM_Fig7_FileCopy)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
