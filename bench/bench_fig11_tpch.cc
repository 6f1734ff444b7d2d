/**
 * @file
 * Paper Fig 11: TPC-H query execution time on the NVDIMM-C device
 * normalized to the baseline (SAP HANA storage-level access replay).
 *
 * Expected shape: scan-bound queries (Q1, Q6) a few times slower than
 * the baseline (paper Q1: 3.3x); small-random/subquery-bound queries
 * one to two orders of magnitude slower (paper Q20: 78x), because the
 * LRC-managed cache misses constantly and each miss costs a
 * writeback+cachefill pair over the CP channel.
 *
 * Scaled: the database is ~6x the DRAM cache (paper: 100 GB DB vs
 * 16 GB cache).
 */

#include "bench_common.hh"
#include "workload/tpch.hh"

namespace nvdimmc::bench
{
namespace
{

void
BM_Fig11_TpchQuery(benchmark::State& state)
{
    int qidx = static_cast<int>(state.range(0)) - 1;
    const auto& spec = workload::tpchQuerySpecs()
        [static_cast<std::size_t>(qidx)];

    double normalized = 0.0;
    for (auto _ : state) {
        workload::TpchRunConfig run_cfg;
        run_cfg.dbBytes = 3 * kGiB;
        run_cfg.maxAccesses = 6000;
        run_cfg.parallelism = 4;

        core::BaselineSystem base(core::BaselineConfig::scaledBench());
        Tick t_base = workload::runTpchQuery(
            base.eq(), pmemAccess(base), spec, run_cfg);

        // Device under test (--backend): cache warm from "loading"
        // the DB (full of dirty pages), as HANA's steady state would
        // be. --backend=pmem reduces to the baseline vs itself
        // (normalized_slowdown = 1), the sanity anchor.
        BenchDevice dev = makeUncachedDevice();
        Tick t_nvdc = workload::runTpchQuery(
            dev.eq(), dev.access(), spec, run_cfg);

        normalized = static_cast<double>(t_nvdc) /
                     static_cast<double>(t_base);
        recordObservability(
            "BM_Fig11_TpchQuery/" + std::to_string(spec.id), dev);
    }
    state.counters["normalized_slowdown"] = normalized;
    if (spec.id == 1)
        state.counters["paper_slowdown"] = 3.3;
    if (spec.id == 20)
        state.counters["paper_slowdown"] = 78.0;
}

BENCHMARK(BM_Fig11_TpchQuery)->DenseRange(1, 22)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace nvdimmc::bench

NVDIMMC_BENCH_MAIN();
