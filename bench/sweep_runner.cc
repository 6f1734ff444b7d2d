/**
 * @file
 * Parallel sweep runner: runs the points of the config-sweep benches
 * (ablation, variants, cache_policy) as independent simulations
 * spread across a thread pool.
 *
 * Each point builds its own EventQueue and system, so simulations
 * share no mutable state and the results are byte-identical to a
 * serial run regardless of --jobs; `--verify` proves that by running
 * the sweep twice (serial, then parallel) and comparing the formatted
 * results.
 *
 * The "parallel" sweep exercises the other axis of parallelism — the
 * sharded parallel-in-time kernel *inside* one simulation — proving
 * executors=N byte-identical to executors=1 and recording the
 * threads x channels wall-clock scaling study (JSON `perf` blocks).
 *
 * The "latency" sweep proves the request-span latency breakdown is
 * deterministic: executors=1 and executors=N must export byte-identical
 * per-phase JSON, and the span auditor must pass on both runs.
 *
 * The "telemetry" sweep proves the time-series telemetry export is
 * deterministic: the same machine and workload at executors in
 * {1, 2, N} must export byte-identical telemetry JSONL (interval
 * ticks, exact-integer probe values, windowed SLO percentiles).
 *
 * The "backends" sweep runs the media-transport seam's contract:
 * per-backend (nvdimmc, cxl, pmem) byte-identity verify points across
 * executor counts, plus the fig8/fig11/mixedload head-to-head whose
 * JSON export is committed as BENCH_backends.json.
 *
 * The "users" sweep measures the simulator's own cost under the
 * multi-user load (detailed-memcpy mixedload, 50..4000 users): host
 * wall time per transaction must stay flat and parked-retry wakeups
 * per accepted line near 1; each point also exports the exact number
 * of kernel events it fired. Its export is committed as
 * BENCH_scaling.json; --max-users N drops the larger points.
 *
 * Every JSON export records the host name, the core count and the
 * commit given by --commit.
 *
 * Usage:
 *   sweep_runner [--sweep ablation|variants|cache_policy|channels
 *                        |parallel|latency|telemetry|faults|backends
 *                        |users|all]
 *                [--jobs N] [--json FILE] [--commit SHA]
 *                [--max-users N] [--verify] [--list]
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_systems.hh"
#include "driver/dram_cache.hh"
#include "driver/nvdimmf_driver.hh"
#include "fault/campaign.hh"
#include "ftl/ftl.hh"
#include "workload/mixedload.hh"
#include "workload/tpch.hh"

namespace nvdimmc::bench
{
namespace
{

using workload::FioConfig;

/**
 * One sweep point's outcome: named metrics plus host wall time.
 * `perf` carries host-machine measurements (wall clocks, speedups);
 * they land in the JSON export only, never in formatPoint, so the
 * --verify serial-vs-parallel comparison stays deterministic.
 */
struct PointResult
{
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, double>> perf;
    std::string error;
    double wallMs = 0.0;
};

struct SweepPoint
{
    std::string name;
    std::function<PointResult()> run;
};

struct Sweep
{
    std::string name;
    std::vector<SweepPoint> points;
    /** Points use process-global state (the span recorder); run them
     *  on one worker regardless of --jobs. */
    bool serialOnly = false;
};

PointResult
fioPoint(const workload::FioResult& res)
{
    PointResult out;
    out.metrics = {{"MBps", res.mbps},
                   {"KIOPS", res.kiops},
                   {"lat_us", ticksToUs(res.meanLatency)},
                   {"ops", static_cast<double>(res.ops)}};
    return out;
}

/**
 * Append the hierarchical observability stats the sweep reports
 * alongside throughput. Values are deterministic, so they take part
 * in the --verify serial-vs-parallel comparison.
 */
void
appendSystemStats(PointResult& out, const core::NvdimmcSystem& sys)
{
    static const char* const kReported[] = {
        "nvmc.window.utilization_pct",
        "nvmc.dma.bytes_moved",
        "imc.refresh.overhead_pct",
        "cache.hit_rate",
        "dram.refreshes",
    };
    StatRegistry reg;
    sys.registerStats(reg);
    for (const auto& [name, value] : reg.collect()) {
        for (const char* want : kReported) {
            if (name == want)
                out.metrics.emplace_back(name, value);
        }
        // Per-channel refresh overhead (ch<i>.imc.refresh.overhead_pct)
        // only exists on multi-channel topologies; report it so the
        // channels sweep shows the stagger across modules.
        if (name.rfind("ch", 0) == 0 &&
            name.find(".imc.refresh.overhead_pct") != std::string::npos)
            out.metrics.emplace_back(name, value);
    }
}

/** The uncached 4 KB random-read point bench_ablation sweeps. */
PointResult
runUncachedPoint(std::function<void(core::SystemConfig&)> tweak,
                 unsigned threads = 1)
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
    PointResult out = fioPoint(runFio(sys->eq(), nvdcAccess(*sys), cfg));
    appendSystemStats(out, *sys);
    return out;
}

Sweep
makeAblationSweep()
{
    Sweep sweep{"ablation", {}};
    auto& p = sweep.points;
    p.push_back({"poc", [] { return runUncachedPoint({}); }});
    p.push_back({"asic_firmware", [] {
        return runUncachedPoint([](core::SystemConfig& c) {
            c.nvmc.firmware = nvmc::FirmwareConfig::asic();
        });
    }});
    for (std::uint32_t depth : {1u, 2u, 4u, 8u}) {
        p.push_back({"cp_depth/" + std::to_string(depth), [depth] {
            return runUncachedPoint(
                [depth](core::SystemConfig& c) {
                    c.driver.cpQueueDepth = depth;
                    c.nvmc.firmware.cpQueueDepth = depth;
                },
                /*threads=*/4);
        }});
    }
    p.push_back({"window_8k", [] {
        return runUncachedPoint([](core::SystemConfig& c) {
            c.nvmc.bytesPerWindow = 8192;
        });
    }});
    p.push_back({"merged_command", [] {
        return runUncachedPoint([](core::SystemConfig& c) {
            c.driver.mergedWbCf = true;
        });
    }});
    p.push_back({"stt_mram", [] {
        return runUncachedPoint([](core::SystemConfig& c) {
            c.media = core::MediaKind::SttMram;
            c.mediaBytes = 4 * kGiB;
        });
    }});
    p.push_back({"dirty_tracking", [] {
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
        return fioPoint(runFio(sys.eq(), nvdcAccess(sys), fio));
    }});
    for (bool enabled : {false, true}) {
        p.push_back({std::string("prefetch/") +
                         (enabled ? "on" : "off"),
                     [enabled] {
            auto sys =
                makeUncachedSystem([&](core::SystemConfig& c) {
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
            return fioPoint(
                runFio(sys->eq(), nvdcAccess(*sys), cfg));
        }});
    }
    p.push_back({"everything", [] {
        return runUncachedPoint(
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
    }});
    return sweep;
}

PointResult
runNvdimmFPoint(FioConfig::Pattern pattern)
{
    EventQueue eq;
    dram::AddressMap map(512 * kMiB);
    core::SystemConfig scfg = core::SystemConfig::scaledBench();
    auto nand = std::make_unique<nvm::ZNand>(eq, scfg.znand);
    auto ftl = std::make_unique<ftl::Ftl>(eq, *nand, scfg.ftl);
    ftl->preconditionSequentialFill(2 * kGiB / 4096);

    dram::DramDevice ch_dev(map, dram::Ddr4Timing::ddr4_1600(), false,
                            false);
    bus::MemoryBus bus(eq, ch_dev, false);
    imc::ImcConfig icfg;
    icfg.refresh = dram::RefreshRegisters::standard();
    imc::Imc imc(eq, bus, icfg);

    driver::NvdimmFDriver drv(eq, *ftl, imc, driver::NvdimmFConfig{});

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
    return fioPoint(job.run());
}

PointResult
runNvdcCachedPoint(FioConfig::Pattern pattern)
{
    auto sys = makeCachedSystem();
    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    cfg.threads = 1;
    cfg.regionBytes = cachedRegionBytes(*sys);
    cfg.rampTime = 2 * kMs;
    cfg.runTime = 25 * kMs;
    return fioPoint(runFio(sys->eq(), nvdcAccess(*sys), cfg));
}

Sweep
makeVariantsSweep()
{
    Sweep sweep{"variants", {}};
    sweep.points.push_back({"nvdimmf/rand_read", [] {
        return runNvdimmFPoint(FioConfig::Pattern::RandRead);
    }});
    sweep.points.push_back({"nvdimmf/rand_write", [] {
        return runNvdimmFPoint(FioConfig::Pattern::RandWrite);
    }});
    sweep.points.push_back({"nvdc_cached/rand_read", [] {
        return runNvdcCachedPoint(FioConfig::Pattern::RandRead);
    }});
    sweep.points.push_back({"nvdc_cached/rand_write", [] {
        return runNvdcCachedPoint(FioConfig::Pattern::RandWrite);
    }});
    return sweep;
}

Sweep
makeCachePolicySweep()
{
    constexpr std::uint64_t kDbPages = 65536;
    Sweep sweep{"cache_policy", {}};
    for (const char* policy : {"lru", "lrc", "clock", "random"}) {
        for (std::uint32_t pct : {1u, 2u, 4u, 8u, 16u}) {
            std::string name =
                std::string(policy) + "/" + std::to_string(pct);
            sweep.points.push_back({name, [policy, pct] {
                auto slots =
                    static_cast<std::uint32_t>(kDbPages * pct / 100);
                driver::DramCache cache(
                    slots, driver::ReplacementPolicy::create(policy));
                const auto& specs = workload::tpchQuerySpecs();
                for (int qidx : {0, 4, 8, 16, 19, 20}) {
                    workload::replayTpchOnCache(
                        cache,
                        specs[static_cast<std::size_t>(qidx)],
                        kDbPages, 60000, 11);
                }
                PointResult res;
                res.metrics.emplace_back(
                    "hit_rate_pct", cache.stats().hitRate() * 100.0);
                return res;
            }});
        }
    }
    return sweep;
}

/**
 * One point of the channel-scaling sweep: an N-module topology under a
 * cached random 4 KB FIO load with enough threads that aggregate
 * bandwidth is bound by per-channel resources, not one thread's QD1
 * latency. The channel count travels through the config tweak (not the
 * benchChannels() global) so points are safe to run concurrently.
 */
PointResult
runChannelsPoint(std::uint32_t channels, FioConfig::Pattern pattern)
{
    auto sys = makeCachedSystem([channels](core::SystemConfig& c) {
        c.channels = channels;
    });
    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    cfg.threads = 8;
    cfg.regionBytes = cachedRegionBytes(*sys);
    cfg.rampTime = 2 * kMs;
    cfg.runTime = 25 * kMs;
    PointResult out = fioPoint(runFio(sys->eq(), nvdcAccess(*sys), cfg));
    appendSystemStats(out, *sys);
    return out;
}

Sweep
makeChannelsSweep()
{
    Sweep sweep{"channels", {}};
    for (std::uint32_t n : {1u, 2u, 4u}) {
        for (auto [pattern, tag] :
             {std::pair{FioConfig::Pattern::RandRead, "rand_read"},
              std::pair{FioConfig::Pattern::RandWrite, "rand_write"}}) {
            sweep.points.push_back(
                {std::to_string(n) + "ch/" + tag, [n, pattern] {
                     return runChannelsPoint(n, pattern);
                 }});
        }
    }
    return sweep;
}

/**
 * One measured run for the parallel-kernel sweep: a cached random
 * 4 KB FIO load on an N-channel system built with cfg.threads =
 * threads (0 = classic serial kernel, >= 1 = sharded kernel with that
 * many executors). The thread count travels through the config tweak
 * so points stay safe to run concurrently.
 */
struct ShardedRun
{
    workload::FioResult fio;
    std::string stats; ///< dumpStats text (deterministic).
    double wallMs = 0.0;
};

ShardedRun
runShardedFio(std::uint32_t channels, std::uint32_t threads,
              FioConfig::Pattern pattern, bool media_shards = true,
              bool uncached = false, Tick run_time = 0)
{
    auto t0 = std::chrono::steady_clock::now();
    auto tweak = [=](core::SystemConfig& c) {
        c.channels = channels;
        c.threads = threads;
        c.mediaShards = media_shards;
    };
    auto sys =
        uncached ? makeUncachedSystem(tweak) : makeCachedSystem(tweak);
    FioConfig cfg;
    cfg.pattern = pattern;
    cfg.blockSize = 4096;
    if (uncached) {
        // All-miss: every access pays a writeback + cachefill, so the
        // FTL + Z-NAND shards carry real load.
        auto [base, bytes] = uncachedRegion(*sys);
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.threads = 4;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 40 * kMs;
    } else {
        cfg.threads = 8;
        cfg.regionBytes = cachedRegionBytes(*sys);
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
    }
    if (run_time)
        cfg.runTime = run_time;
    ShardedRun run;
    run.fio = runFio(sys->eq(), nvdcAccess(*sys), cfg);
    std::ostringstream stats;
    sys->dumpStats(stats);
    run.stats = stats.str();
    run.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return run;
}

/**
 * Byte-exactness proof for the sharded kernel: the same machine and
 * workload run twice in-point — executors=1 (the reference
 * interleaving) and executors=N — and every FioResult field plus the
 * full dumpStats text must match exactly. A divergence sets the
 * point's error, which fails the run (rc=1). Both wall clocks land in
 * the JSON `perf` block; the metrics carry only deterministic values.
 */
PointResult
runParallelVerifyPoint(std::uint32_t channels, std::uint32_t threads,
                       FioConfig::Pattern pattern,
                       bool uncached = false, Tick run_time = 0)
{
    ShardedRun ser = runShardedFio(channels, 1, pattern,
                                   /*media_shards=*/true, uncached,
                                   run_time);
    ShardedRun par = runShardedFio(channels, threads, pattern,
                                   /*media_shards=*/true, uncached,
                                   run_time);
    const bool ok = ser.fio.mbps == par.fio.mbps &&
                    ser.fio.kiops == par.fio.kiops &&
                    ser.fio.ops == par.fio.ops &&
                    ser.fio.meanLatency == par.fio.meanLatency &&
                    ser.fio.p50 == par.fio.p50 &&
                    ser.fio.p99 == par.fio.p99 &&
                    ser.stats == par.stats;
    PointResult out = fioPoint(par.fio);
    out.metrics.emplace_back("channels",
                             static_cast<double>(channels));
    out.metrics.emplace_back("threads", static_cast<double>(threads));
    out.metrics.emplace_back("verify_ok", ok ? 1.0 : 0.0);
    out.perf = {{"wall_serial_ms", ser.wallMs},
                {"wall_parallel_ms", par.wallMs},
                {"speedup_x",
                 par.wallMs > 0 ? ser.wallMs / par.wallMs : 0.0}};
    if (!ok)
        out.error = "sharded executors=" + std::to_string(threads) +
                    " diverged from executors=1";
    return out;
}

/** One threads x channels scaling-matrix point. @p run_time shortens
 *  the simulated window for wide machines (0 = the default 25 ms). */
PointResult
runParallelMatrixPoint(std::uint32_t channels, std::uint32_t threads,
                       bool media_shards = true,
                       bool uncached = false, Tick run_time = 0)
{
    ShardedRun run =
        runShardedFio(channels, threads, FioConfig::Pattern::RandRead,
                      media_shards, uncached, run_time);
    PointResult out = fioPoint(run.fio);
    out.metrics.emplace_back("channels",
                             static_cast<double>(channels));
    out.metrics.emplace_back("threads", static_cast<double>(threads));
    out.metrics.emplace_back("media_shards", media_shards ? 1.0 : 0.0);
    out.perf = {{"wall_run_ms", run.wallMs}};
    return out;
}

/**
 * The parallel-in-time kernel sweep (EXPERIMENTS.md): verify/<N>ch*
 * points prove executors=N byte-identical to executors=1 on the same
 * sharded machine — including executor counts *above* the channel
 * count, which only the media-split shards can absorb, and an
 * uncached point that keeps the FTL + Z-NAND shards under real load;
 * matrix/<N>ch_t<T> points record the threads x channels wall-clock
 * scaling study folded into BENCH_parallel.json (t > N rows ride on
 * the media shards; the media/ pair isolates the split's own win at
 * a fixed channel count). threads=0 is the classic serial kernel
 * baseline (a different modeled machine — no host or media link — so
 * its throughput differs slightly by design); threads >= 1 is the
 * sharded kernel.
 */
Sweep
makeParallelSweep()
{
    Sweep sweep{"parallel", {}};
    auto& p = sweep.points;
    for (std::uint32_t n : {2u, 4u}) {
        p.push_back({"verify/" + std::to_string(n) + "ch", [n] {
            return runParallelVerifyPoint(
                n, n, FioConfig::Pattern::RandRead);
        }});
        // Executors beyond the channel count: only sound because the
        // media split doubled the shard vector.
        p.push_back({"verify/" + std::to_string(n) + "ch_t" +
                         std::to_string(2 * n),
                     [n] {
                         return runParallelVerifyPoint(
                             n, 2 * n, FioConfig::Pattern::RandRead);
                     }});
    }
    p.push_back({"verify/2ch_uncached_t4", [] {
        return runParallelVerifyPoint(
            2, 4, FioConfig::Pattern::RandRead, /*uncached=*/true);
    }});
    // Byte-identity at campaign width: a 16-channel machine with a
    // full-width executor vector must still replay the executors=1
    // interleaving exactly (short window, same reason as matrix/).
    p.push_back({"verify/16ch_t16", [] {
        return runParallelVerifyPoint(
            16, 16, FioConfig::Pattern::RandRead,
            /*uncached=*/false, /*run_time=*/4 * kMs);
    }});
    for (std::uint32_t n : {1u, 2u, 4u}) {
        std::vector<std::uint32_t> threads = {0u, 1u};
        if (n > 1)
            threads.push_back(n);
        threads.push_back(2 * n);
        for (std::uint32_t t : threads) {
            p.push_back({"matrix/" + std::to_string(n) + "ch_t" +
                             std::to_string(t),
                         [n, t] {
                             return runParallelMatrixPoint(n, t);
                         }});
        }
    }
    // Wide-machine scaling study (16–64 channels): the per-simulated-ms
    // event count grows with the channel count, so these points run a
    // shorter simulated window — they exist to measure executor
    // scaling on wide shard vectors, not to age the cache. Executor
    // counts sample the ladder up to the channel count.
    for (std::uint32_t n : {16u, 32u, 64u}) {
        for (std::uint32_t t : {1u, 4u, n / 2, n}) {
            p.push_back({"matrix/" + std::to_string(n) + "ch_t" +
                             std::to_string(t),
                         [n, t] {
                             return runParallelMatrixPoint(
                                 n, t, /*media_shards=*/true,
                                 /*uncached=*/false,
                                 /*run_time=*/4 * kMs);
                         }});
        }
    }
    // The media split's own contribution, all else fixed: an all-miss
    // load on 4 channels with executors pinned at the channel count
    // (media shards off) vs the full shard vector (on).
    p.push_back({"media/4ch_uncached_off_t4", [] {
        return runParallelMatrixPoint(4, 4, /*media_shards=*/false,
                                      /*uncached=*/true);
    }});
    p.push_back({"media/4ch_uncached_on_t8", [] {
        return runParallelMatrixPoint(4, 8, /*media_shards=*/true,
                                      /*uncached=*/true);
    }});
    return sweep;
}

/**
 * One latency-breakdown measurement: request spans on, a random 4 KB
 * FIO load on an N-channel machine with the given executor count, and
 * the per-op-class per-phase JSON plus the span audit as the result.
 */
struct BreakdownRun
{
    std::string json;
    bool auditOk = false;
    std::uint64_t spans = 0;
};

BreakdownRun
runBreakdownFio(std::uint32_t channels, std::uint32_t threads,
                bool uncached)
{
    span::enable();
    span::reset();
    auto tweak = [=](core::SystemConfig& c) {
        c.channels = channels;
        c.threads = threads;
    };
    std::unique_ptr<core::NvdimmcSystem> sys;
    FioConfig cfg;
    cfg.blockSize = 4096;
    cfg.pattern = FioConfig::Pattern::RandRead;
    if (uncached) {
        sys = makeUncachedSystem(tweak);
        auto [base, bytes] = uncachedRegion(*sys);
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.threads = 1;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 40 * kMs;
    } else {
        sys = makeCachedSystem(tweak);
        cfg.regionBytes = cachedRegionBytes(*sys);
        cfg.threads = 8;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
    }
    runFio(sys->eq(), nvdcAccess(*sys), cfg);

    BreakdownRun run;
    span::AuditResult audit = span::audit();
    run.auditOk = audit.ok();
    run.spans = audit.closed;
    std::ostringstream os;
    span::writeBreakdownJson(os);
    run.json = os.str();
    span::reset();
    span::disable();
    return run;
}

/**
 * Determinism proof for the breakdown export: the identical machine
 * and workload run with executors=1 and executors=N must produce
 * byte-identical latency-breakdown JSON (same spans, same phase
 * tick counts, same percentiles), and both runs must pass the span
 * auditor (every span closed, phases tile end-to-end, window waits
 * bounded).
 */
PointResult
runLatencyVerifyPoint(std::uint32_t channels, std::uint32_t threads,
                      bool uncached)
{
    BreakdownRun ser = runBreakdownFio(channels, 1, uncached);
    BreakdownRun par = runBreakdownFio(channels, threads, uncached);
    const bool identical = ser.json == par.json;
    PointResult out;
    out.metrics = {
        {"spans", static_cast<double>(par.spans)},
        {"audit_ok", ser.auditOk && par.auditOk ? 1.0 : 0.0},
        {"breakdown_identical", identical ? 1.0 : 0.0},
    };
    if (!identical)
        out.error = "breakdown JSON diverged between executors=1 and "
                    "executors=" +
                    std::to_string(threads);
    else if (!ser.auditOk || !par.auditOk)
        out.error = "span audit failed";
    return out;
}

Sweep
makeLatencySweep()
{
    Sweep sweep{"latency", {}, /*serialOnly=*/true};
    auto& p = sweep.points;
    p.push_back({"verify/1ch_cached", [] {
        return runLatencyVerifyPoint(1, 2, false);
    }});
    p.push_back({"verify/4ch_cached", [] {
        return runLatencyVerifyPoint(4, 4, false);
    }});
    p.push_back({"verify/1ch_uncached", [] {
        return runLatencyVerifyPoint(1, 2, true);
    }});
    return sweep;
}

/**
 * One telemetry measurement: the deterministic time-series layer on
 * (which implies span recording — the windowed SLO percentiles drain
 * the span layer), a workload, and the collector's full JSONL export
 * as the result. The export label is fixed per point, so runs that
 * differ only in executor count must produce byte-identical strings.
 */
struct TelemetryRun
{
    std::string jsonl;
    std::uint64_t intervals = 0;
    bool auditOk = false;
};

TelemetryRun
finishTelemetryRun(core::NvdimmcSystem& sys, const char* label)
{
    TelemetryRun run;
    run.auditOk = span::audit().ok();
    std::ostringstream os;
    sys.telemetryCollector()->writeJsonl(os, label);
    run.jsonl = os.str();
    run.intervals = sys.telemetryCollector()->records().size();
    return run;
}

TelemetryRun
runTelemetryFio(std::uint32_t channels, std::uint32_t threads,
                bool uncached, const char* label)
{
    telemetry::enable();
    span::enable();
    span::reset();
    auto tweak = [=](core::SystemConfig& c) {
        c.channels = channels;
        c.threads = threads;
    };
    std::unique_ptr<core::NvdimmcSystem> sys;
    FioConfig cfg;
    cfg.blockSize = 4096;
    cfg.pattern = FioConfig::Pattern::RandRead;
    if (uncached) {
        sys = makeUncachedSystem(tweak);
        auto [base, bytes] = uncachedRegion(*sys);
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        cfg.threads = 1;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 40 * kMs;
    } else {
        sys = makeCachedSystem(tweak);
        cfg.regionBytes = cachedRegionBytes(*sys);
        cfg.threads = 8;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 25 * kMs;
    }
    runFio(sys->eq(), nvdcAccess(*sys), cfg);
    TelemetryRun run = finishTelemetryRun(*sys, label);
    span::reset();
    span::disable();
    telemetry::disable();
    return run;
}

TelemetryRun
runTelemetryMixed(std::uint32_t threads, const char* label)
{
    telemetry::enable();
    span::enable();
    span::reset();
    // Validation requires real bytes end to end: detailed memcpy.
    auto sys = std::make_unique<core::NvdimmcSystem>(
        benchSystemConfig([threads](core::SystemConfig& c) {
            c.channels = 2;
            c.threads = threads;
            c.memcpy.bulkMode = false;
        }));
    workload::DataDevice dev;
    dev.capacityBytes = sys->driver().capacityBytes();
    dev.read = [&sys](Addr off, std::uint32_t len, std::uint8_t* buf,
                      std::function<void()> done) {
        sys->driver().read(off, len, buf, std::move(done));
    };
    dev.write = [&sys](Addr off, std::uint32_t len,
                       const std::uint8_t* data,
                       std::function<void()> done) {
        sys->driver().write(off, len, data, std::move(done));
    };
    workload::MixedLoadConfig mc;
    mc.users = 125;
    mc.transactionsPerUser = 4;
    mc.recordBytes = 4096;
    mc.regionBytes = std::uint64_t{mc.users} * 32 * 4096;
    workload::runMixedLoad(sys->eq(), dev, mc);
    TelemetryRun run = finishTelemetryRun(*sys, label);
    span::reset();
    span::disable();
    telemetry::disable();
    return run;
}

/**
 * Determinism proof for the telemetry export: the identical machine
 * and workload run at executors in {1, 2, N} must produce
 * byte-identical telemetry JSONL (same interval ticks, same
 * exact-integer probe values, same windowed percentiles), and every
 * run must pass the span auditor. The sample event rides the host
 * queue, so it observes device state at the barrier-safe window edge
 * regardless of executor count — this point is the enforcement.
 */
PointResult
telemetryVerdict(const TelemetryRun& t1, const TelemetryRun& t2,
                 const TelemetryRun& tn, std::uint32_t n)
{
    const bool identical = t1.jsonl == t2.jsonl && t1.jsonl == tn.jsonl;
    PointResult out;
    out.metrics = {
        {"intervals", static_cast<double>(t1.intervals)},
        {"audit_ok",
         t1.auditOk && t2.auditOk && tn.auditOk ? 1.0 : 0.0},
        {"threads_identical", identical ? 1.0 : 0.0},
    };
    if (!identical)
        out.error = "telemetry JSONL diverged across executors=1/2/" +
                    std::to_string(n);
    else if (!t1.auditOk || !t2.auditOk || !tn.auditOk)
        out.error = "span audit failed";
    else if (t1.intervals == 0)
        out.error = "telemetry recorded no intervals";
    return out;
}

PointResult
runTelemetryFioVerifyPoint(std::uint32_t channels, bool uncached,
                           const char* label)
{
    const std::uint32_t n = channels * 2; // full media-split vector
    TelemetryRun t1 = runTelemetryFio(channels, 1, uncached, label);
    TelemetryRun t2 = runTelemetryFio(channels, 2, uncached, label);
    TelemetryRun tn = runTelemetryFio(channels, n, uncached, label);
    return telemetryVerdict(t1, t2, tn, n);
}

PointResult
runTelemetryMixedVerifyPoint(const char* label)
{
    TelemetryRun t1 = runTelemetryMixed(1, label);
    TelemetryRun t2 = runTelemetryMixed(2, label);
    TelemetryRun t4 = runTelemetryMixed(4, label);
    return telemetryVerdict(t1, t2, t4, 4);
}

Sweep
makeTelemetrySweep()
{
    Sweep sweep{"telemetry", {}, /*serialOnly=*/true};
    auto& p = sweep.points;
    p.push_back({"verify/1ch_cached", [] {
        return runTelemetryFioVerifyPoint(1, false, "fig8/1ch_cached");
    }});
    p.push_back({"verify/4ch_cached", [] {
        return runTelemetryFioVerifyPoint(4, false, "fig8/4ch_cached");
    }});
    p.push_back({"verify/1ch_uncached", [] {
        return runTelemetryFioVerifyPoint(1, true,
                                          "fig8/1ch_uncached");
    }});
    p.push_back({"verify/mixedload", [] {
        return runTelemetryMixedVerifyPoint("mixedload/125users");
    }});
    return sweep;
}

/**
 * One power-fail sweep point: cut at @p frac of the uncut run, replay
 * recovery, and prove the whole campaign byte-identical across
 * executor counts. Integrity (corrupt=0 with ADR) and determinism
 * both land in the verified metrics.
 */
PointResult
runPowerFailPoint(double frac, bool adr)
{
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = 29;
    cfg.adrWorks = adr;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(cfg);
    cfg.haltAtTick = static_cast<Tick>(
        static_cast<double>(full.workloadElapsed) * frac);
    cfg.threads = 1;
    fault::PowerFailCampaignResult t1 = runPowerFailCampaign(cfg);
    cfg.threads = 2;
    fault::PowerFailCampaignResult t2 = runPowerFailCampaign(cfg);
    bool identical = t1.fingerprint == t2.fingerprint;

    PointResult out;
    out.metrics = {
        {"committed", static_cast<double>(t1.committedRecords)},
        {"corrupt", static_cast<double>(t1.corruptRecords)},
        {"pages_dumped", static_cast<double>(t1.pagesDumped)},
        {"wpq_lost", static_cast<double>(t1.wpqLost)},
        {"recovery_us", ticksToUs(t1.recoveryTicks)},
        {"threads_identical", identical ? 1.0 : 0.0},
    };
    if (!identical)
        out.error = "campaign diverged across --threads";
    else if (adr && t1.corruptRecords != 0)
        out.error = "committed records corrupted despite ADR";
    return out;
}

PointResult
mediaPoint(const fault::MediaFaultCampaignResult& res)
{
    PointResult out;
    out.metrics = {
        {"reads", static_cast<double>(res.reads)},
        {"read_errors", static_cast<double>(res.readErrorsInjected)},
        {"read_retries", static_cast<double>(res.readRetries)},
        {"retry_successes",
         static_cast<double>(res.readRetrySuccesses)},
        {"uncorrectable", static_cast<double>(res.uncorrectableReads)},
        {"grown_bad_blocks", static_cast<double>(res.grownBadBlocks)},
        {"gc_relocations", static_cast<double>(res.gcRelocations)},
        {"silent_corruptions",
         static_cast<double>(res.silentCorruptions)},
        {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
    };
    if (res.silentCorruptions != 0)
        out.error = "silent corruption (mismatch without an "
                    "uncorrectable-read report)";
    else if (!res.invariantsOk)
        out.error = "FTL invariants violated: " + res.invariantWhy;
    return out;
}

Sweep
makeFaultsSweep()
{
    Sweep sweep{"faults", {}};
    auto& p = sweep.points;
    p.push_back({"powerfail/early",
                 [] { return runPowerFailPoint(0.25, true); }});
    p.push_back({"powerfail/mid",
                 [] { return runPowerFailPoint(0.5, true); }});
    p.push_back({"powerfail/late",
                 [] { return runPowerFailPoint(0.8, true); }});
    p.push_back({"powerfail/noadr",
                 [] { return runPowerFailPoint(0.5, false); }});
    p.push_back({"media/ecc", [] {
        fault::MediaFaultCampaignConfig cfg;
        cfg.seed = 43;
        cfg.faults.readRberMean = 0.9;
        cfg.faults.wearRberSlope = 0.03;
        cfg.readRetries = 2;
        return mediaPoint(runMediaFaultCampaign(cfg));
    }});
    p.push_back({"media/program_fail", [] {
        fault::MediaFaultCampaignConfig cfg;
        cfg.seed = 47;
        cfg.faults.programFailProb = 0.01;
        cfg.ops = 2500;
        return mediaPoint(runMediaFaultCampaign(cfg));
    }});
    p.push_back({"ageing/small", [] {
        fault::AgeingCampaignConfig cfg;
        cfg.seed = 53;
        cfg.rounds = 24;
        cfg.writesPerRound = 96;
        cfg.faults.readRberMean = 0.2;
        cfg.faults.wearRberSlope = 0.02;
        cfg.faults.programFailProb = 0.002;
        fault::AgeingCampaignResult res = runAgeingCampaign(cfg);
        PointResult out;
        out.metrics = {
            {"writes", static_cast<double>(res.writes)},
            {"gc_erases", static_cast<double>(res.gcErases)},
            {"gc_relocations",
             static_cast<double>(res.gcRelocations)},
            {"wear_spread", static_cast<double>(res.wearSpread)},
            {"max_erase_count",
             static_cast<double>(res.maxEraseCount)},
            {"silent_corruptions",
             static_cast<double>(res.silentCorruptions)},
            {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
            {"checkpoint_deterministic",
             res.checkpointDeterministic ? 1.0 : 0.0},
        };
        if (!res.checkpointDeterministic)
            out.error = "checkpoint-restored replay diverged";
        else if (res.silentCorruptions != 0 || !res.invariantsOk)
            out.error = "ageing campaign integrity failure";
        return out;
    }});
    return sweep;
}

/**
 * Build one device under test for the backends sweep. The backend is
 * carried explicitly (not via the --backend global) so points stay
 * safe to run concurrently; the hybrid transports ride the shared
 * cached/uncached factories, the pmem baseline gets its own machine.
 */
BenchDevice
makeBackendDevice(backend::BackendKind kind, bool uncached)
{
    BenchDevice dev;
    if (kind == backend::BackendKind::Pmem) {
        dev.pmem = makePmemSystem();
        return dev;
    }
    auto tweak = [kind](core::SystemConfig& c) {
        if (kind == backend::BackendKind::CxlHybrid)
            c.applyCxlBackend();
    };
    dev.nvdc = uncached ? makeUncachedSystem(tweak)
                        : makeCachedSystem(tweak);
    return dev;
}

/**
 * One measured run for a backend byte-identity point: a cached random
 * 4 KB FIO load on a 2-channel machine fronted by @p kind, built with
 * the given executor count.
 */
ShardedRun
runBackendFio(backend::BackendKind kind, std::uint32_t channels,
              std::uint32_t threads)
{
    auto t0 = std::chrono::steady_clock::now();
    ShardedRun run;
    FioConfig cfg;
    cfg.pattern = FioConfig::Pattern::RandRead;
    cfg.blockSize = 4096;
    cfg.threads = 8;
    cfg.rampTime = 2 * kMs;
    cfg.runTime = 25 * kMs;
    std::ostringstream stats;
    if (kind == backend::BackendKind::Pmem) {
        auto sys = makePmemSystem([&](core::BaselineConfig& c) {
            c.channels = channels;
            c.threads = threads;
        });
        cfg.regionBytes = std::min<std::uint64_t>(
            sys->driver().capacityBytes(), 2 * kGiB);
        run.fio = runFio(sys->eq(), pmemAccess(*sys), cfg);
        sys->dumpStats(stats);
    } else {
        auto sys = makeCachedSystem([&](core::SystemConfig& c) {
            c.channels = channels;
            c.threads = threads;
            if (kind == backend::BackendKind::CxlHybrid)
                c.applyCxlBackend();
        });
        cfg.regionBytes = cachedRegionBytes(*sys);
        run.fio = runFio(sys->eq(), nvdcAccess(*sys), cfg);
        sys->dumpStats(stats);
    }
    run.stats = stats.str();
    run.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    return run;
}

/**
 * The per-backend byte-exactness proof: the same machine and workload
 * with executors=1 (reference) and executors=N must agree on every
 * FIO field and the full stats dump. Extends the sharded kernel's
 * verify contract to every transport behind the MediaBackend seam.
 */
PointResult
runBackendVerifyPoint(backend::BackendKind kind,
                      std::uint32_t channels, std::uint32_t threads)
{
    ShardedRun ser = runBackendFio(kind, channels, 1);
    ShardedRun par = runBackendFio(kind, channels, threads);
    const bool ok = ser.fio.mbps == par.fio.mbps &&
                    ser.fio.kiops == par.fio.kiops &&
                    ser.fio.ops == par.fio.ops &&
                    ser.fio.meanLatency == par.fio.meanLatency &&
                    ser.fio.p50 == par.fio.p50 &&
                    ser.fio.p99 == par.fio.p99 &&
                    ser.stats == par.stats;
    PointResult out = fioPoint(par.fio);
    out.metrics.emplace_back("channels",
                             static_cast<double>(channels));
    out.metrics.emplace_back("threads", static_cast<double>(threads));
    out.metrics.emplace_back("verify_ok", ok ? 1.0 : 0.0);
    out.perf = {{"wall_serial_ms", ser.wallMs},
                {"wall_parallel_ms", par.wallMs}};
    if (!ok)
        out.error = std::string(backend::toString(kind)) +
                    " backend executors=" + std::to_string(threads) +
                    " diverged from executors=1";
    return out;
}

/** Sum of a phase's sum_ps fields across every op class in a span
 *  breakdown JSON (the phase keys never collide with class names). */
std::uint64_t
phaseSumPs(const std::string& json, const char* phase)
{
    std::uint64_t total = 0;
    const std::string needle =
        std::string("\"") + phase + "\":{\"count\":";
    for (std::size_t pos = json.find(needle);
         pos != std::string::npos; pos = json.find(needle, pos + 1)) {
        std::size_t s = json.find("\"sum_ps\":", pos);
        if (s == std::string::npos)
            break;
        total += std::strtoull(json.c_str() + s + 9, nullptr, 10);
    }
    return total;
}

/**
 * One fig8-style head-to-head point: random 4 KB reads on the PoC
 * (1-channel) machine fronted by @p kind, with the span-layer
 * breakdown folded into the metrics so the JSON export shows *where*
 * each interface spends the latency — the NVDIMM-C transport
 * accumulates window_wait + CP-channel time, the CXL transport zero
 * window_wait with link/device-copy time in its place, the pmem
 * baseline neither (no transport at all).
 */
PointResult
runBackendFig8Point(backend::BackendKind kind, bool uncached)
{
    span::enable();
    span::reset();
    workload::FioResult fio;
    {
        BenchDevice dev = makeBackendDevice(kind, uncached);
        FioConfig cfg;
        cfg.pattern = FioConfig::Pattern::RandRead;
        cfg.blockSize = 4096;
        cfg.threads = uncached ? 4 : 8;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = uncached ? 40 * kMs : 25 * kMs;
        auto [base, bytes] =
            uncached ? dev.missRegion() : dev.cachedRegion();
        cfg.regionOffset = base;
        cfg.regionBytes = bytes;
        fio = runFio(dev.eq(), dev.access(), cfg);
    }
    span::AuditResult audit = span::audit();
    std::ostringstream os;
    span::writeBreakdownJson(os);
    std::string json = os.str();
    span::reset();
    span::disable();

    PointResult out = fioPoint(fio);
    auto us = [](std::uint64_t ps) {
        return static_cast<double>(ps) / 1e6;
    };
    out.metrics.emplace_back("audit_ok", audit.ok() ? 1.0 : 0.0);
    out.metrics.emplace_back("window_wait_us",
                             us(phaseSumPs(json, "window_wait")));
    out.metrics.emplace_back(
        "cp_channel_us", us(phaseSumPs(json, "cp_queue") +
                            phaseSumPs(json, "cp_write") +
                            phaseSumPs(json, "cp_ack")));
    out.metrics.emplace_back(
        "link_us", us(phaseSumPs(json, "link_wait") +
                      phaseSumPs(json, "link_req") +
                      phaseSumPs(json, "link_resp")));
    out.metrics.emplace_back("dev_copy_us",
                             us(phaseSumPs(json, "dev_copy")));
    if (!audit.ok())
        out.error = "span audit failed";
    return out;
}

/**
 * One fig11-style head-to-head point: TPC-H query @p qid storage
 * replay on the device under test, normalized to the pmem baseline
 * run in the same point (--backend=pmem therefore anchors at 1.0).
 */
PointResult
runBackendTpchPoint(backend::BackendKind kind, int qid)
{
    const auto& spec =
        workload::tpchQuerySpecs()[static_cast<std::size_t>(qid - 1)];
    workload::TpchRunConfig run_cfg;
    run_cfg.dbBytes = 3 * kGiB;
    run_cfg.maxAccesses = 6000;
    run_cfg.parallelism = 4;

    core::BaselineSystem base(core::BaselineConfig::scaledBench());
    Tick t_base = workload::runTpchQuery(
        base.eq(), pmemAccess(base), spec, run_cfg);

    BenchDevice dev = makeBackendDevice(kind, /*uncached=*/true);
    Tick t_dev = workload::runTpchQuery(dev.eq(), dev.access(), spec,
                                        run_cfg);

    PointResult out;
    out.metrics = {
        {"elapsed_us", ticksToUs(t_dev)},
        {"normalized_slowdown", static_cast<double>(t_dev) /
                                    static_cast<double>(t_base)},
    };
    return out;
}

/** One validating mixedload run and what it cost the host port. */
struct MixedloadRun
{
    workload::MixedLoadResult res;
    /** Parked-retry wakeups per line op the iMCs accepted. */
    double wakeupsPerLine = 0.0;
    /** Kernel cost of the run (the machine is serial: one queue). */
    std::uint64_t eventsFired = 0;
    std::uint64_t sboOverflows = 0;
    bool hardwareClean = true;
};

/**
 * @p users validating users with real bytes end to end (detailed
 * memcpy) on the @p kind backend; 4 transactions per user over 32
 * record slots per user.
 */
MixedloadRun
runMixedload(backend::BackendKind kind, unsigned users)
{
    BenchDevice sys;
    if (kind == backend::BackendKind::Pmem)
        sys.pmem = makePmemSystem([](core::BaselineConfig& c) {
            c.memcpy.bulkMode = false;
        });
    else
        sys.nvdc = std::make_unique<core::NvdimmcSystem>(
            benchSystemConfig([kind](core::SystemConfig& c) {
                c.memcpy.bulkMode = false;
                if (kind == backend::BackendKind::CxlHybrid)
                    c.applyCxlBackend();
            }));

    workload::DataDevice dev;
    dev.capacityBytes = sys.nvdc ? sys.nvdc->driver().capacityBytes()
                                 : sys.pmem->driver().capacityBytes();
    dev.read = [&sys](Addr off, std::uint32_t len, std::uint8_t* buf,
                      std::function<void()> done) {
        if (sys.nvdc)
            sys.nvdc->driver().read(off, len, buf, std::move(done));
        else
            sys.pmem->driver().read(off, len, buf, std::move(done));
    };
    dev.write = [&sys](Addr off, std::uint32_t len,
                       const std::uint8_t* data,
                       std::function<void()> done) {
        if (sys.nvdc)
            sys.nvdc->driver().write(off, len, data, std::move(done));
        else
            sys.pmem->driver().write(off, len, data, std::move(done));
    };

    workload::MixedLoadConfig mc;
    mc.users = users;
    mc.transactionsPerUser = 4;
    mc.recordBytes = 4096;
    mc.regionBytes = std::uint64_t{mc.users} * 32 * 4096;

    MixedloadRun run;
    run.res = workload::runMixedLoad(sys.eq(), dev, mc);
    const imc::HostPort& port =
        sys.nvdc ? sys.nvdc->hostPort() : sys.pmem->hostPort();
    std::uint64_t lines = 0;
    for (std::uint32_t ch = 0; ch < port.channels(); ++ch)
        lines += port.imc(ch).stats().readsAccepted.value() +
                 port.imc(ch).stats().writesAccepted.value();
    run.wakeupsPerLine = lines == 0
                             ? 0.0
                             : static_cast<double>(port.spaceWakeups()) /
                                   static_cast<double>(lines);
    run.eventsFired = sys.eq().eventsFired();
    run.sboOverflows = sys.eq().sboOverflows();
    run.hardwareClean = sys.hardwareClean();
    return run;
}

/** The validation verdict of @p run as a point error ("" = clean). */
std::string
mixedloadError(const MixedloadRun& run, backend::BackendKind kind)
{
    if (run.res.validationFailures != 0)
        return "mixedload validation failures on " +
               std::string(backend::toString(kind));
    if (!run.hardwareClean)
        return "bus conflict detected";
    return {};
}

/**
 * One mixedload head-to-head point: 125 validating users; failures
 * must stay 0 on every backend (the durable-on-ack contract is part
 * of the seam).
 */
PointResult
runBackendMixedloadPoint(backend::BackendKind kind)
{
    MixedloadRun run = runMixedload(kind, 125);
    PointResult out;
    out.metrics = {
        {"transactions", static_cast<double>(run.res.transactions)},
        {"validation_failures",
         static_cast<double>(run.res.validationFailures)},
        {"txn_per_sec", static_cast<double>(run.res.transactions) /
                            ticksToSec(run.res.elapsed)},
    };
    out.error = mixedloadError(run, kind);
    return out;
}

/**
 * The backends sweep (the MediaBackend seam's verify + head-to-head
 * contract): per backend, byte-identity points at --threads in
 * {1, N, 2N} on a 2-channel machine (each point runs executors=1 as
 * the in-point reference), then the fig8/fig11/mixedload comparison
 * whose JSON export is committed as BENCH_backends.json. serialOnly:
 * the fig8 points use the process-global span recorder.
 */
Sweep
makeBackendsSweep()
{
    Sweep sweep{"backends", {}, /*serialOnly=*/true};
    auto& p = sweep.points;
    for (auto kind : {backend::BackendKind::Nvdimmc,
                      backend::BackendKind::CxlHybrid,
                      backend::BackendKind::Pmem}) {
        const std::string tag = backend::toString(kind);
        // channels=2: N = 2 (one executor per channel) and 2N = 4
        // (only the media-split shard vector can absorb the extra
        // executors on the hybrid transports; the pmem machine clamps
        // to its channel count, which must stay byte-identical too).
        for (std::uint32_t t : {2u, 4u}) {
            p.push_back({tag + "/verify/2ch_t" + std::to_string(t),
                         [kind, t] {
                             return runBackendVerifyPoint(kind, 2, t);
                         }});
        }
        p.push_back({tag + "/fig8/cached", [kind] {
            return runBackendFig8Point(kind, false);
        }});
        p.push_back({tag + "/fig8/uncached", [kind] {
            return runBackendFig8Point(kind, true);
        }});
        for (int q : {1, 6, 20}) {
            p.push_back({tag + "/tpch/q" + std::to_string(q),
                         [kind, q] {
                             return runBackendTpchPoint(kind, q);
                         }});
        }
        p.push_back({tag + "/mixedload/125users", [kind] {
            return runBackendMixedloadPoint(kind);
        }});
    }
    return sweep;
}

/**
 * One point of the users sweep: the simulator's own cost of the
 * multi-user load. wakeups_per_line is deterministic (a parked retry
 * fires only when its queue has room, so it stays near 1 at any user
 * count), and so are events_fired and sbo_overflows (the kernel's
 * dispatch count and its callback-capture spills), so any kernel or
 * model change that fires one event more or less shows up exactly;
 * the point's wall_ms is the host-time scaling evidence.
 */
PointResult
runUsersPoint(backend::BackendKind kind, unsigned users)
{
    MixedloadRun run = runMixedload(kind, users);
    PointResult out;
    out.metrics = {
        {"transactions", static_cast<double>(run.res.transactions)},
        {"validation_failures",
         static_cast<double>(run.res.validationFailures)},
        {"wakeups_per_line", run.wakeupsPerLine},
        {"events_fired", static_cast<double>(run.eventsFired)},
        {"sbo_overflows", static_cast<double>(run.sboOverflows)},
    };
    out.error = mixedloadError(run, kind);
    return out;
}

/**
 * The users sweep (committed as BENCH_scaling.json): detailed-memcpy
 * mixedload on one channel at 50..4000 users, nvdimmc and pmem.
 * Points above @p max_users are left out (CI stops at 500).
 */
Sweep
makeUsersSweep(unsigned max_users)
{
    Sweep sweep{"users", {}};
    for (auto kind :
         {backend::BackendKind::Nvdimmc, backend::BackendKind::Pmem}) {
        for (unsigned users : {50u, 250u, 1000u, 4000u}) {
            if (users > max_users)
                continue;
            sweep.points.push_back(
                {std::string(backend::toString(kind)) + "/" +
                     std::to_string(users) + "users",
                 [kind, users] { return runUsersPoint(kind, users); }});
        }
    }
    return sweep;
}

/**
 * Run every point of @p sweep on @p jobs worker threads. Points are
 * claimed from an atomic counter and results land in a slot indexed
 * by point, so the output order (and content) never depends on
 * scheduling.
 */
std::vector<PointResult>
runSweep(const Sweep& sweep, unsigned jobs)
{
    if (sweep.serialOnly)
        jobs = 1;
    std::vector<PointResult> results(sweep.points.size());
    std::atomic<std::size_t> next{0};

    auto work = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= sweep.points.size())
                return;
            auto t0 = std::chrono::steady_clock::now();
            try {
                results[i] = sweep.points[i].run();
            } catch (const std::exception& e) {
                results[i].error = e.what();
            }
            results[i].wallMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
    };

    if (jobs <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(work);
        for (auto& th : pool)
            th.join();
    }
    return results;
}

/** Deterministic text form of one point (wall time excluded). */
std::string
formatPoint(const SweepPoint& point, const PointResult& res)
{
    std::ostringstream os;
    os.precision(17);
    os << point.name << ":";
    if (!res.error.empty()) {
        os << " ERROR " << res.error;
        return os.str();
    }
    for (const auto& [key, value] : res.metrics)
        os << " " << key << "=" << value;
    return os.str();
}

void
writeJson(std::ostream& os,
          const std::vector<std::pair<const Sweep*,
                                      std::vector<PointResult>>>& all,
          unsigned jobs, const std::string& commit)
{
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    os.precision(17);
    os << "{\n  \"schema_version\": " << telemetry::kSchemaVersion
       << ",\n  \"host\": \"" << host << "\",\n  \"commit\": \""
       << commit << "\",\n  \"jobs\": " << jobs
       << ",\n  \"host_cores\": " << std::thread::hardware_concurrency()
       << ",\n  \"sweeps\": [\n";
    for (std::size_t s = 0; s < all.size(); ++s) {
        const auto& [sweep, results] = all[s];
        os << "    {\"name\": \"" << sweep->name
           << "\", \"points\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            os << "      {\"name\": \"" << sweep->points[i].name
               << "\", \"wall_ms\": " << results[i].wallMs;
            if (!results[i].error.empty()) {
                os << ", \"error\": \"" << results[i].error << "\"";
            } else {
                for (const auto& [key, value] : results[i].metrics)
                    os << ", \"" << key << "\": " << value;
            }
            if (!results[i].perf.empty()) {
                os << ", \"perf\": {";
                for (std::size_t k = 0; k < results[i].perf.size();
                     ++k)
                    os << (k ? ", " : "") << "\""
                       << results[i].perf[k].first
                       << "\": " << results[i].perf[k].second;
                os << "}";
            }
            os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        os << "    ]}" << (s + 1 < all.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

int
sweepMain(int argc, char** argv)
{
    std::vector<std::string> wanted;
    unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
    std::string json_path;
    std::string commit = "unknown";
    unsigned max_users = ~0u;
    bool verify = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--sweep") {
            wanted.push_back(value());
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(std::stoul(value()));
            if (jobs == 0)
                jobs = 1;
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--verify") {
            verify = true;
        } else if (arg == "--max-users") {
            max_users = static_cast<unsigned>(std::stoul(value()));
        } else if (arg == "--commit") {
            commit = value();
        } else if (arg == "--list") {
            for (const Sweep& sweep :
                 {makeAblationSweep(), makeVariantsSweep(),
                  makeCachePolicySweep(), makeChannelsSweep(),
                  makeParallelSweep(), makeLatencySweep(),
                  makeTelemetrySweep(), makeFaultsSweep(),
                  makeBackendsSweep(), makeUsersSweep(max_users)}) {
                for (const auto& point : sweep.points)
                    std::cout << sweep.name << "/" << point.name
                              << "\n";
            }
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: sweep_runner"
                   " [--sweep ablation|variants|cache_policy|channels"
                   "|parallel|latency|telemetry|faults|backends|users"
                   "|all]\n"
                   "                    [--jobs N] [--json FILE]"
                   " [--commit SHA] [--max-users N]\n"
                   "                    [--verify] [--list]\n";
            return 0;
        } else {
            fatal("unknown argument ", arg);
        }
    }
    if (wanted.empty())
        wanted.push_back("all");

    std::vector<Sweep> sweeps;
    auto want = [&](const char* name) {
        for (const auto& w : wanted)
            if (w == "all" || w == name)
                return true;
        return false;
    };
    if (want("ablation"))
        sweeps.push_back(makeAblationSweep());
    if (want("variants"))
        sweeps.push_back(makeVariantsSweep());
    if (want("cache_policy"))
        sweeps.push_back(makeCachePolicySweep());
    if (want("channels"))
        sweeps.push_back(makeChannelsSweep());
    if (want("parallel"))
        sweeps.push_back(makeParallelSweep());
    if (want("latency"))
        sweeps.push_back(makeLatencySweep());
    if (want("telemetry"))
        sweeps.push_back(makeTelemetrySweep());
    if (want("faults"))
        sweeps.push_back(makeFaultsSweep());
    if (want("backends"))
        sweeps.push_back(makeBackendsSweep());
    if (want("users"))
        sweeps.push_back(makeUsersSweep(max_users));
    if (sweeps.empty())
        fatal("no sweep matches ", wanted.front());

    // Device models warn about injected hazards on some points;
    // keep worker output off the console.
    setLogLevel(LogLevel::Silent);

    int rc = 0;
    std::vector<std::pair<const Sweep*, std::vector<PointResult>>> all;
    for (const Sweep& sweep : sweeps) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<PointResult> results = runSweep(sweep, jobs);
        double wall = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

        if (verify) {
            std::vector<PointResult> serial = runSweep(sweep, 1);
            for (std::size_t i = 0; i < results.size(); ++i) {
                std::string par =
                    formatPoint(sweep.points[i], results[i]);
                std::string ser =
                    formatPoint(sweep.points[i], serial[i]);
                if (par != ser) {
                    std::cerr << "VERIFY MISMATCH in " << sweep.name
                              << ":\n  parallel: " << par
                              << "\n  serial:   " << ser << "\n";
                    rc = 1;
                }
            }
            if (rc == 0)
                std::cout << "verify " << sweep.name << ": parallel("
                          << jobs << ") == serial, "
                          << results.size() << " points\n";
        }

        std::cout << "== " << sweep.name << " (" << results.size()
                  << " points, jobs=" << jobs << ", "
                  << static_cast<std::uint64_t>(wall) << " ms) ==\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::cout << "  " << formatPoint(sweep.points[i],
                                             results[i])
                      << "\n";
            if (!results[i].error.empty())
                rc = 1;
        }
        all.emplace_back(&sweep, std::move(results));
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out)
            fatal("cannot write ", json_path);
        writeJson(out, all, jobs, commit);
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}

} // namespace
} // namespace nvdimmc::bench

int
main(int argc, char** argv)
{
    try {
        return nvdimmc::bench::sweepMain(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "sweep_runner: " << e.what() << "\n";
        return 1;
    }
}
