/**
 * @file
 * Paper §VII-B5 mixed-load IMDB benchmark: N concurrent users running
 * validating transactions. The paper reports 500 concurrent users
 * completing with zero corruption; this bench sweeps the user count
 * and reports transaction throughput and the validation-failure count
 * (which must stay 0).
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "workload/mixedload.hh"

namespace nvdimmc::bench
{
namespace
{

void
BM_MixedLoad_Users(benchmark::State& state)
{
    auto users = static_cast<unsigned>(state.range(0));
    workload::MixedLoadResult res;
    for (auto _ : state) {
        // Validation requires real bytes end to end: detailed memcpy.
        BenchDevice sys;
        if (benchBackend() == backend::BackendKind::Pmem)
            sys.pmem = makePmemSystem([](core::BaselineConfig& c) {
                c.memcpy.bulkMode = false;
            });
        else
            sys.nvdc = std::make_unique<core::NvdimmcSystem>(
                benchSystemConfig([](core::SystemConfig& c) {
                    c.memcpy.bulkMode = false;
                }));

        workload::DataDevice dev;
        dev.capacityBytes = sys.nvdc
                                ? sys.nvdc->driver().capacityBytes()
                                : sys.pmem->driver().capacityBytes();
        dev.read = [&sys](Addr off, std::uint32_t len,
                          std::uint8_t* buf,
                          std::function<void()> done) {
            if (sys.nvdc)
                sys.nvdc->driver().read(off, len, buf,
                                        std::move(done));
            else
                sys.pmem->driver().read(off, len, buf,
                                        std::move(done));
        };
        dev.write = [&sys](Addr off, std::uint32_t len,
                           const std::uint8_t* data,
                           std::function<void()> done) {
            if (sys.nvdc)
                sys.nvdc->driver().write(off, len, data,
                                         std::move(done));
            else
                sys.pmem->driver().write(off, len, data,
                                         std::move(done));
        };

        workload::MixedLoadConfig mc;
        mc.users = users;
        mc.transactionsPerUser = 4;
        mc.recordBytes = 4096;
        mc.regionBytes = std::uint64_t{users} * 32 * 4096;
        res = workload::runMixedLoad(sys.eq(), dev, mc);
        if (!sys.hardwareClean())
            state.SkipWithError("bus conflict detected");
        recordObservability(
            "BM_MixedLoad_Users/" + std::to_string(users), sys);
    }
    state.counters["transactions"] =
        static_cast<double>(res.transactions);
    state.counters["validation_failures"] =
        static_cast<double>(res.validationFailures);
    state.counters["txn_per_sec"] =
        static_cast<double>(res.transactions) /
        ticksToSec(res.elapsed);
    state.counters["paper_failures"] = 0.0;
}

BENCHMARK(BM_MixedLoad_Users)
    ->Arg(50)->Arg(125)->Arg(250)->Arg(500)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
