/**
 * @file
 * Paper Fig 13 (§VII-D2): impact of a faster refresh rate on the
 * host-side (Cached) DRAM performance. Doubling / quadrupling the
 * refresh rate gives the NVMC more windows but steals channel time
 * from the CPU.
 *
 * Paper: 4 KB cached random reads, 1 thread: 1835 MB/s at tREFI
 * (7.8 us) -> 1691 (-8%) at tREFI2 -> 1530 (-17%) at tREFI4; and
 * 3690 MB/s at 16 threads under tREFI4.
 */

#include "bench_common.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

double
paperFor(int trefi_ns, int threads)
{
    if (threads == 1) {
        switch (trefi_ns) {
          case 7800: return 1835.0;
          case 3900: return 1691.0;
          case 1950: return 1530.0;
        }
    }
    if (threads == 16 && trefi_ns == 1950)
        return 3690.0;
    return 0.0;
}

void
BM_Fig13_HostSide(benchmark::State& state)
{
    auto trefi_ns = static_cast<int>(state.range(0));
    auto threads = static_cast<unsigned>(state.range(1));
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeCachedSystem([&](core::SystemConfig& c) {
            c.refresh.tREFI = static_cast<Tick>(trefi_ns) * kNs;
            c.imc.refresh = c.refresh;
            c.nvmc.programmedRefresh = c.refresh;
        });
        FioConfig cfg;
        cfg.pattern = FioConfig::Pattern::RandRead;
        cfg.blockSize = 4096;
        cfg.threads = threads;
        cfg.regionBytes = cachedRegionBytes(*sys);
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        if (!sys->hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability("BM_Fig13_HostSide/" +
                                std::to_string(trefi_ns) + "/" +
                                std::to_string(threads),
                            *sys);
    }
    report(state, res, paperFor(trefi_ns, static_cast<int>(threads)),
           0.0);
}

BENCHMARK(BM_Fig13_HostSide)
    ->Args({7800, 1})->Args({3900, 1})->Args({1950, 1})
    ->Args({7800, 16})->Args({1950, 16})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
