/**
 * @file
 * Paper §VII-C ablations: the paper lists five changes an ASIC
 * implementation would make to fix the Uncached slowdown. Each is a
 * switch in this model, so the list becomes a measurable ablation of
 * 4 KB random uncached reads (1 thread):
 *
 *  (1) eliminate the CPU-controlled data paths  -> FirmwareConfig::asic()
 *  (2) multiple CP commands at a time           -> cpQueueDepth
 *  (3) 8 KB per refresh window                  -> bytesPerWindow
 *  (4) merged writeback+cachefill command       -> mergedWbCf
 *  (5) faster media                             -> STT-MRAM backend
 *  (+) dirty tracking (extension: read-mostly workloads skip the
 *      writeback entirely; the PoC assumes everything is dirty)
 */

#include "bench_common.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

workload::FioResult
runUncached(std::function<void(core::SystemConfig&)> tweak,
            unsigned threads = 1, const char* tag = nullptr)
{
    auto sys = makeUncachedSystem(std::move(tweak));
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::RandRead;
    cfg.blockSize = 4096;
    cfg.threads = threads;
    auto [base, bytes] = uncachedRegion(*sys);
    cfg.regionOffset = base;
    cfg.regionBytes = bytes;
    cfg.rampTime = 5 * kMs;
    cfg.runTime = 120 * kMs;
    workload::FioResult res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
    if (tag)
        recordObservability(tag, *sys);
    return res;
}

void
BM_Ablation_Poc(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state)
        res = runUncached({}, 1, "BM_Ablation_Poc");
    report(state, res, 57.3, 13.0);
}

void
BM_Ablation_AsicFirmware(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached([](core::SystemConfig& c) {
            c.nvmc.firmware = nvmc::FirmwareConfig::asic();
        });
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_CpQueueDepth(benchmark::State& state)
{
    auto depth = static_cast<std::uint32_t>(state.range(0));
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached(
            [&](core::SystemConfig& c) {
                c.driver.cpQueueDepth = depth;
                c.nvmc.firmware.cpQueueDepth = depth;
            },
            /*threads=*/4);
    }
    state.counters["depth"] = depth;
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_8KWindow(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached([](core::SystemConfig& c) {
            c.nvmc.bytesPerWindow = 8192;
        });
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_MergedCommand(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached([](core::SystemConfig& c) {
            c.driver.mergedWbCf = true;
        });
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_SttMramMedia(benchmark::State& state)
{
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached([](core::SystemConfig& c) {
            c.media = core::MediaKind::SttMram;
            c.mediaBytes = 4 * kGiB;
        });
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_DirtyTracking(benchmark::State& state)
{
    // Read-only uncached workload with clean preconditioning: dirty
    // tracking removes every writeback.
    workload::FioResult res;
    for (auto _ : state) {
        core::SystemConfig cfg = core::SystemConfig::scaledBench();
        cfg.driver.trackDirty = true;
        core::NvdimmcSystem sys(cfg);
        sys.precondition(0, sys.layout().slotCount(), false);
        FioConfig fio;
        fio.pattern = FioConfig::Pattern::RandRead;
        fio.blockSize = 4096;
        fio.threads = 1;
        auto [base, bytes] = uncachedRegion(sys);
        fio.regionOffset = base;
        fio.regionBytes = bytes;
        fio.rampTime = 5 * kMs;
        fio.runTime = 120 * kMs;
        res = runFio(sys.eq(), nvdcAccess(sys), fio);
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_Prefetch(benchmark::State& state)
{
    // Paper §VII-C's last pointer (ref [37]): prefetch-based NVM
    // accesses. Sequential uncached reads with the driver's
    // next-page prefetcher; needs CP queue depth > 1 to overlap.
    bool enabled = state.range(0) != 0;
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeUncachedSystem([&](core::SystemConfig& c) {
            c.driver.trackDirty = true;
            c.driver.prefetchEnabled = enabled;
            c.driver.prefetchDepth = 2;
            c.driver.cpQueueDepth = 4;
            c.nvmc.firmware.cpQueueDepth = 4;
        });
        FioConfig cfg;
        cfg.pattern = FioConfig::Pattern::SeqRead;
        cfg.blockSize = 4096;
        cfg.threads = 1;
        auto [base, bytes] = uncachedRegion(*sys);
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.rampTime = 5 * kMs;
        cfg.runTime = 120 * kMs;
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
    }
    state.counters["prefetch"] = enabled ? 1.0 : 0.0;
    report(state, res, 0.0, 0.0);
}

void
BM_Ablation_Everything(benchmark::State& state)
{
    // All five §VII-C optimizations at once.
    workload::FioResult res;
    for (auto _ : state) {
        res = runUncached(
            [](core::SystemConfig& c) {
                c.nvmc.firmware = nvmc::FirmwareConfig::asic();
                c.nvmc.firmware.cpQueueDepth = 4;
                c.driver.cpQueueDepth = 4;
                c.nvmc.bytesPerWindow = 8192;
                c.driver.mergedWbCf = true;
                c.media = core::MediaKind::SttMram;
                c.mediaBytes = 4 * kGiB;
            },
            /*threads=*/4);
    }
    report(state, res, 0.0, 0.0);
}

BENCHMARK(BM_Ablation_Poc)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_AsicFirmware)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_CpQueueDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_8KWindow)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_MergedCommand)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_SttMramMedia)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_DirtyTracking)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_Prefetch)->Arg(0)->Arg(1)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Ablation_Everything)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
