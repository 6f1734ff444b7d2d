/**
 * @file
 * NVDIMM-variant comparison (paper §VIII): the baseline emulated
 * NVDIMM (NVDIMM-N-like: all DRAM), NVDIMM-C cached/uncached, and
 * NVDIMM-F (block-only NAND, no DRAM cache) on 4 KB random reads and
 * writes. This is the quantitative version of the paper's
 * related-work positioning: NVDIMM-C gives DRAM-class hits that
 * NVDIMM-F cannot, while both collapse to NAND economics on misses.
 */

#include "bench_common.hh"
#include "driver/nvdimmf_driver.hh"
#include "ftl/ftl.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

void
BM_Variant_NvdimmF(benchmark::State& state, FioConfig::Pattern pattern)
{
    workload::FioResult res;
    for (auto _ : state) {
        // NVDIMM-F: its own channel (an iMC), NAND + FTL, no cache.
        EventQueue eq;
        dram::AddressMap map(512 * kMiB);
        core::SystemConfig scfg = core::SystemConfig::scaledBench();
        auto nand = std::make_unique<nvm::ZNand>(eq, scfg.znand);
        auto ftl = std::make_unique<ftl::Ftl>(eq, *nand, scfg.ftl);
        // A used device: reads hit real NAND pages.
        ftl->preconditionSequentialFill(2 * kGiB / 4096);

        dram::DramDevice ch_dev(map, dram::Ddr4Timing::ddr4_1600(),
                                false, false);
        bus::MemoryBus bus(eq, ch_dev, false);
        imc::ImcConfig icfg;
        icfg.refresh = dram::RefreshRegisters::standard();
        imc::Imc imc(eq, bus, icfg);

        driver::NvdimmFDriver drv(eq, *ftl, imc,
                                  driver::NvdimmFConfig{});

        FioConfig cfg;
        cfg.pattern = pattern;
        cfg.blockSize = 4096;
        cfg.threads = 1;
        cfg.regionBytes = 2 * kGiB;
        cfg.rampTime = 5 * kMs;
        cfg.runTime = 100 * kMs;
        workload::FioJob job(
            eq,
            [&drv](Addr off, std::uint32_t len, bool is_write,
                   std::function<void()> done) {
                if (is_write)
                    drv.write(off, len, nullptr, std::move(done));
                else
                    drv.read(off, len, nullptr, std::move(done));
            },
            cfg);
        res = job.run();
    }
    report(state, res, 0.0, 0.0);
}

void
BM_Variant_NvdimmC_Cached(benchmark::State& state,
                          FioConfig::Pattern pattern)
{
    workload::FioResult res;
    for (auto _ : state) {
        auto sys = makeCachedSystem();
        FioConfig cfg;
        cfg.pattern = pattern;
        cfg.blockSize = 4096;
        cfg.threads = 1;
        cfg.regionBytes = cachedRegionBytes(*sys);
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
        res = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        recordObservability("BM_Variant_NvdimmC_Cached", *sys);
    }
    report(state, res, 0.0, 0.0);
}

BENCHMARK_CAPTURE(BM_Variant_NvdimmF, rand_read,
                  FioConfig::Pattern::RandRead)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Variant_NvdimmF, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Variant_NvdimmC_Cached, rand_read,
                  FioConfig::Pattern::RandRead)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Variant_NvdimmC_Cached, rand_write,
                  FioConfig::Pattern::RandWrite)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
