/**
 * @file
 * Host-side harness of the simulator benchmark (driven by run.py).
 *
 * Runs one workload repeatedly against the simulator as a library,
 * timing each repetition from outside through the public entry points
 * (system construction, precondition, the driver's read/write calls,
 * the workload runners, the stats dump, the kernel's event counters,
 * the span layer). Every repetition builds a fresh system from the
 * same seed, so every repetition of one process must simulate exactly
 * the same machine; the stats-dump hash proves it.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--corrupt-read K]
 *
 * Each process starts with one untimed warm-up repetition (first-touch
 * page faults, allocator growth), then:
 *
 * --trace 0: untraced repetitions until S host seconds have passed
 *            (at least three).
 * --trace 1: untraced repetitions for S/2 seconds (at least two), then
 *            one traced repetition (spans on, driver calls timed,
 *            stats dumped), then, on a sharded workload, one serial
 *            repetition for the serial/sharded comparison.
 * --corrupt-read K: flip a byte of the K-th read buffer the mixed
 *            load gets back (a forced validation failure, for the
 *            benchmark's own tests).
 *
 * Output: one JSON object per line on stdout — one per repetition,
 * then one for the process (peak RSS). run.py turns them into
 * metrics and checks them.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/span.hh"
#include "core/system.hh"
#include "workload/fio.hh"
#include "workload/mixedload.hh"
#include "workload/tpch.hh"

namespace nvdimmc::simbench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Paper figures the workloads are compared against. */
constexpr double kPaperFig8UncachedKiops = 13.0; // Fig 8, 1T QD1.
constexpr double kPaperFig11Q20Slowdown = 78.0;  // Fig 11, Q20.
constexpr double kPaperFig9CachedWriteKiops = 1127.0; // Fig 9, 16T.

/** Timed set-ups per repetition. */
constexpr int kSetupsPerRep = 3;

/** The span auditor's window-wait bound, as the paper benches arm it. */
constexpr std::uint64_t kWindowWaitBudgetRefi = 32;

enum class Workload
{
    MixedLoad,
    FioUncached,
    TpchQ20,
    FioCached4ch,
};

struct Options
{
    Workload workload = Workload::MixedLoad;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t corruptRead = 0; ///< 0 = off.
};

/**
 * Traced-repetition instrumentation around every device access: host
 * time spent inside the driver's submit call, and each access's
 * simulated latency (submit to completion). Observe-only: the wrapped
 * completion runs the original one unchanged.
 */
struct Probe
{
    EventQueue* eq = nullptr;
    std::uint64_t calls = 0;
    std::uint64_t submitNs = 0;
    std::vector<Tick> latencies;

    /** The driver always completes through a scheduled event, never
     *  inside the submit call, so submit times do not nest. */
    template <typename Submit>
    void access(Submit&& submit, std::function<void()> done)
    {
        const Tick start = eq->now();
        const auto t0 = Clock::now();
        submit([this, start, done = std::move(done)] {
            latencies.push_back(eq->now() - start);
            done();
        });
        submitNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++calls;
    }
};

/** What one repetition measured. */
struct Rep
{
    const char* kind = "untraced";
    std::vector<double> constructS;
    std::vector<double> preconditionS;
    double runS = 0;
    /** Host speed beside this repetition: the mean duration of the
     *  calibration loops run just before and just after it. */
    double calibS = 0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::uint64_t sboOverflows = 0;
    std::uint64_t validationFailures = 0;
    unsigned executors = 0;
    Tick quantum = 0;
    bool hardwareClean = true;
    std::uint64_t statsFnv = 0;
    double simOpsPerS = 0; ///< Simulated ops per simulated second.
    double headline = 0;   ///< The workload's paper-figure value.
    double paperErrPct = 0;
    // Traced repetition only.
    std::optional<Probe> probe;
    bool auditOk = true;
    std::string statsJson;
    std::string breakdownJson;
};

/**
 * A fixed reference workload, independent of the simulator sources: a
 * small discrete-event loop (binary-heap queue, std::function
 * dispatch, hashed and table state of a few MiB). The benchmark runs
 * it beside every repetition; run.py divides host times by its
 * duration so that the host's speed phases (co-tenants on a shared
 * machine slow everything by up to ~1.8x for seconds at a time)
 * cancel out of the reported metrics.
 */
double
calibrate()
{
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<>> pq;
    // Allocated once, so the loop times no page faults.
    static std::vector<std::uint64_t> table(1 << 20);
    static std::unordered_map<std::uint32_t, std::uint64_t> map;
    const std::function<void(std::uint32_t)> handler =
        [&](std::uint32_t k) {
            table[k & (table.size() - 1)] += k;
            map[k & 0xffff] ^= k;
        };
    for (int i = 0; i < 256; ++i)
        pq.push({rnd() % 1000, static_cast<std::uint32_t>(rnd())});
    std::uint64_t sum = 0;
    for (int i = 0; i < 600000; ++i) {
        const auto [t, k] = pq.top();
        pq.pop();
        handler(k);
        sum += table[(k * 2654435761u) & (table.size() - 1)];
        pq.push({t + 1 + rnd() % 1000, static_cast<std::uint32_t>(rnd())});
    }
    // Keep the loop's result observable so it cannot be elided.
    volatile std::uint64_t sink = sum;
    (void)sink;
    return secondsSince(t0);
}

std::uint64_t
fnv1a64(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
sharded(Workload w)
{
    return w == Workload::FioCached4ch;
}

core::SystemConfig
systemConfig(Workload w, bool serial)
{
    core::SystemConfig cfg = core::SystemConfig::scaledBench();
    if (w == Workload::FioCached4ch) {
        cfg.channels = 4;
        cfg.threads = serial ? 0 : 2;
    }
    // Validation needs real bytes end to end: detailed memcpy.
    if (w == Workload::MixedLoad)
        cfg.memcpy.bulkMode = false;
    return cfg;
}

/** Fill the cache before the first op, as the paper benches do. */
void
precondition(Workload w, core::NvdimmcSystem& sys)
{
    switch (w) {
    case Workload::MixedLoad:
        break;
    case Workload::FioUncached:
    case Workload::TpchQ20:
        // Cache full of dirty pages; every device page holds data.
        sys.precondition(0, sys.totalSlotCount(), true);
        sys.driver().markEverWritten(
            0, sys.driver().capacityBytes() / 4096);
        break;
    case Workload::FioCached4ch:
        // Leave 64 slots per channel free so hits never evict.
        sys.precondition(0,
                         sys.totalSlotCount() - 64 * sys.channelCount(),
                         true);
        break;
    }
}

/** Timing-only access function, optionally probed. */
workload::AccessFn
accessFn(core::NvdimmcSystem& sys, Probe* probe)
{
    if (!probe) {
        return [&sys](Addr off, std::uint32_t len, bool is_write,
                      std::function<void()> done) {
            if (is_write)
                sys.driver().write(off, len, nullptr, std::move(done));
            else
                sys.driver().read(off, len, nullptr, std::move(done));
        };
    }
    return [&sys, probe](Addr off, std::uint32_t len, bool is_write,
                         std::function<void()> done) {
        probe->access(
            [&](std::function<void()> d) {
                if (is_write)
                    sys.driver().write(off, len, nullptr, std::move(d));
                else
                    sys.driver().read(off, len, nullptr, std::move(d));
            },
            std::move(done));
    };
}

/** Simulated time of the Q20 replay on the pmem baseline machine. */
Tick
tpchBaselineTicks(const workload::TpchRunConfig& run_cfg)
{
    core::BaselineSystem base(core::BaselineConfig::scaledBench());
    return workload::runTpchQuery(
        base.eq(),
        [&base](Addr off, std::uint32_t len, bool is_write,
                std::function<void()> done) {
            if (is_write)
                base.driver().write(off, len, nullptr, std::move(done));
            else
                base.driver().read(off, len, nullptr, std::move(done));
        },
        workload::tpchQuerySpecs()[19], run_cfg);
}

workload::TpchRunConfig
tpchRunConfig(std::uint64_t seed)
{
    workload::TpchRunConfig run_cfg;
    run_cfg.dbBytes = 3 * kGiB;
    run_cfg.maxAccesses = 6000;
    run_cfg.parallelism = 4;
    run_cfg.seed = 7 + seed;
    return run_cfg;
}

workload::FioConfig
fioConfig(Workload w, core::NvdimmcSystem& sys, std::uint64_t seed)
{
    workload::FioConfig cfg;
    cfg.blockSize = 4096;
    cfg.seed = 1 + seed;
    if (w == Workload::FioUncached) {
        // Fig 8 NVDC-Uncached: QD1 reads over the miss region.
        cfg.pattern = workload::FioConfig::Pattern::RandRead;
        cfg.threads = 1;
        cfg.regionOffset = std::uint64_t{sys.totalSlotCount() +
                                         128 * sys.channelCount()} *
                           4096;
        cfg.regionBytes =
            sys.driver().capacityBytes() - cfg.regionOffset;
        cfg.rampTime = 5 * kMs;
        cfg.runTime = 150 * kMs;
    } else {
        // 16 jobs of random writes over the cached region.
        cfg.pattern = workload::FioConfig::Pattern::RandWrite;
        cfg.threads = 16;
        cfg.regionBytes = std::uint64_t{sys.totalSlotCount() -
                                        64 * sys.channelCount()} *
                          4096;
        cfg.rampTime = 2 * kMs;
        cfg.runTime = 30 * kMs;
    }
    return cfg;
}

/** The workload's timed phase; fills ops, validation and model
 *  fields of @p rep. */
void
runWorkload(const Options& opt, core::NvdimmcSystem& sys, Rep& rep,
            Tick tpch_base)
{
    Probe* probe = rep.probe ? &*rep.probe : nullptr;
    const auto& dstats = sys.driver().stats();
    switch (opt.workload) {
    case Workload::MixedLoad: {
        std::uint64_t reads = 0;
        workload::DataDevice dev;
        dev.capacityBytes = sys.driver().capacityBytes();
        dev.read = [&](Addr off, std::uint32_t len, std::uint8_t* buf,
                       std::function<void()> done) {
            if (opt.corruptRead && ++reads == opt.corruptRead)
                done = [buf, done = std::move(done)] {
                    buf[0] ^= 0xff;
                    done();
                };
            if (!probe) {
                sys.driver().read(off, len, buf, std::move(done));
                return;
            }
            probe->access(
                [&](std::function<void()> d) {
                    sys.driver().read(off, len, buf, std::move(d));
                },
                std::move(done));
        };
        dev.write = [&](Addr off, std::uint32_t len,
                        const std::uint8_t* data,
                        std::function<void()> done) {
            if (!probe) {
                sys.driver().write(off, len, data, std::move(done));
                return;
            }
            probe->access(
                [&](std::function<void()> d) {
                    sys.driver().write(off, len, data, std::move(d));
                },
                std::move(done));
        };
        workload::MixedLoadConfig mc;
        mc.users = 250;
        mc.transactionsPerUser = 4;
        mc.recordBytes = 4096;
        mc.regionBytes = std::uint64_t{mc.users} * 32 * 4096;
        mc.seed = 11 + opt.seed;
        const auto res = workload::runMixedLoad(sys.eq(), dev, mc);
        rep.ops = res.transactions;
        rep.validationFailures = res.validationFailures;
        if (res.transactions !=
            std::uint64_t{mc.users} * mc.transactionsPerUser)
            rep.validationFailures = rep.ops;
        rep.simOpsPerS = static_cast<double>(res.transactions) /
                         ticksToSec(res.elapsed);
        rep.headline = rep.simOpsPerS;
        // The paper's §VII-B5 result is zero corrupted transactions,
        // so the error is the corrupted share in percentage points.
        rep.paperErrPct = rep.ops ? 100.0 *
                                        static_cast<double>(
                                            rep.validationFailures) /
                                        static_cast<double>(rep.ops)
                                  : 100.0;
        return;
    }
    case Workload::FioUncached:
    case Workload::FioCached4ch: {
        workload::FioJob job(sys.eq(), accessFn(sys, probe),
                             fioConfig(opt.workload, sys, opt.seed));
        const auto res = job.run();
        rep.ops = dstats.readOps.value() + dstats.writeOps.value();
        rep.simOpsPerS = res.kiops * 1000.0;
        if (opt.workload == Workload::FioUncached) {
            rep.headline = res.kiops;
            rep.paperErrPct = 100.0 *
                              std::abs(rep.headline -
                                       kPaperFig8UncachedKiops) /
                              kPaperFig8UncachedKiops;
        } else {
            // Per-module rate against the paper's one-module
            // 16-thread cached-write peak.
            rep.headline = res.kiops / sys.channelCount();
            rep.paperErrPct = 100.0 *
                              std::abs(rep.headline -
                                       kPaperFig9CachedWriteKiops) /
                              kPaperFig9CachedWriteKiops;
        }
        return;
    }
    case Workload::TpchQ20: {
        const Tick t = workload::runTpchQuery(
            sys.eq(), accessFn(sys, probe),
            workload::tpchQuerySpecs()[19], tpchRunConfig(opt.seed));
        rep.ops = dstats.readOps.value() + dstats.writeOps.value();
        rep.simOpsPerS = static_cast<double>(rep.ops) / ticksToSec(t);
        rep.headline =
            static_cast<double>(t) / static_cast<double>(tpch_base);
        rep.paperErrPct = 100.0 *
                          std::abs(rep.headline -
                                   kPaperFig11Q20Slowdown) /
                          kPaperFig11Q20Slowdown;
        return;
    }
    }
}

std::uint64_t
eventsFired(core::NvdimmcSystem& sys)
{
    return sys.sharded() ? sys.coordinator()->totalEventsFired()
                         : sys.eq().eventsFired();
}

Rep
runRep(const Options& opt, const char* kind, Tick tpch_base)
{
    Rep rep;
    rep.kind = kind;
    const bool traced = std::strcmp(kind, "traced") == 0;
    const core::SystemConfig cfg =
        systemConfig(opt.workload, std::strcmp(kind, "serial") == 0);

    // Several timed set-ups per repetition (set-up is short and noisy);
    // the last system built is the one that runs.
    std::unique_ptr<core::NvdimmcSystem> sys;
    for (int i = 0; i < kSetupsPerRep; ++i) {
        sys.reset();
        const auto s0 = Clock::now();
        sys = std::make_unique<core::NvdimmcSystem>(cfg);
        rep.constructS.push_back(secondsSince(s0));
        const auto s1 = Clock::now();
        precondition(opt.workload, *sys);
        rep.preconditionS.push_back(secondsSince(s1));
    }

    if (traced) {
        span::setWindowWaitCap(cfg.refresh.tREFI * kWindowWaitBudgetRefi);
        span::reset();
        span::enable();
        rep.probe.emplace();
        rep.probe->eq = &sys->eq();
    }
    const std::uint64_t events0 = eventsFired(*sys);
    const auto t0 = Clock::now();
    runWorkload(opt, *sys, rep, tpch_base);
    rep.runS = secondsSince(t0);
    rep.events = eventsFired(*sys) - events0;

    if (traced) {
        span::disable();
        rep.auditOk = span::audit().ok();
        std::ostringstream bd;
        span::writeBreakdownJson(bd);
        rep.breakdownJson = bd.str();
        span::reset();
        std::ostringstream js;
        sys->dumpStatsJson(js);
        rep.statsJson = js.str();
    }
    rep.sboOverflows = sys->eq().sboOverflows();
    if (sys->sharded()) {
        rep.executors = sys->coordinator()->executors();
        rep.quantum = sys->coordinator()->quantum();
    }
    rep.hardwareClean = sys->hardwareClean();
    // The text dump is byte-identical across executor counts (thread
    // metadata lands in the JSON "_meta" only), so its hash witnesses
    // the simulated machine alone.
    std::ostringstream text;
    sys->dumpStats(text);
    rep.statsFnv = fnv1a64(text.str());
    return rep;
}

void
printRep(const Rep& r)
{
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(r.statsFnv));
    std::ostringstream os;
    os.precision(17);
    auto list = [&os](const std::vector<double>& v) {
        os << '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << ']';
    };
    os << "{\"kind\":\"" << r.kind << "\",\"construct_s\":";
    list(r.constructS);
    os << ",\"precondition_s\":";
    list(r.preconditionS);
    os       << ",\"run_s\":" << r.runS << ",\"calib_s\":" << r.calibS
       << ",\"ops\":" << r.ops
       << ",\"events\":" << r.events
       << ",\"sbo_overflows\":" << r.sboOverflows
       << ",\"validation_failures\":" << r.validationFailures
       << ",\"executors\":" << r.executors
       << ",\"quantum_ticks\":" << r.quantum
       << ",\"hardware_clean\":" << (r.hardwareClean ? "true" : "false")
       << ",\"stats_fnv\":\"" << hash << "\""
       << ",\"sim_ops_per_s\":" << r.simOpsPerS
       << ",\"headline\":" << r.headline
       << ",\"paper_err_pct\":" << r.paperErrPct;
    if (r.probe) {
        std::vector<Tick> lat = r.probe->latencies;
        std::sort(lat.begin(), lat.end());
        auto pct = [&lat](double p) {
            if (lat.empty())
                return 0.0;
            auto i = static_cast<std::size_t>(
                p / 100.0 * static_cast<double>(lat.size() - 1));
            return ticksToUs(lat[i]);
        };
        os << ",\"submit_calls\":" << r.probe->calls
           << ",\"submit_ns\":" << r.probe->submitNs
           << ",\"lat_p50_us\":" << pct(50)
           << ",\"lat_p99_us\":" << pct(99)
           << ",\"lat_samples\":" << lat.size()
           << ",\"audit_ok\":" << (r.auditOk ? "true" : "false")
           << ",\"stats\":" << r.statsJson
           << ",\"breakdown\":" << r.breakdownJson;
    }
    os << "}\n";
    std::cout << os.str() << std::flush;
}

[[noreturn]] void
usage(const char* msg)
{
    std::cerr << "simbench: " << msg
              << "\nusage: simbench --workload "
                 "mixedload|fio_uncached|tpch_q20|fio_cached_4ch "
                 "--seed N --seconds S --trace 0|1 [--corrupt-read K]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            have_workload = true;
            if (v == "mixedload")
                opt.workload = Workload::MixedLoad;
            else if (v == "fio_uncached")
                opt.workload = Workload::FioUncached;
            else if (v == "tpch_q20")
                opt.workload = Workload::TpchQ20;
            else if (v == "fio_cached_4ch")
                opt.workload = Workload::FioCached4ch;
            else
                usage(("unknown workload " + v).c_str());
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            opt.trace = std::strtoul(v.c_str(), &end, 10) != 0;
        } else if (a == "--corrupt-read") {
            opt.corruptRead = std::strtoull(v.c_str(), &end, 10);
        } else {
            usage(("unknown flag " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + a).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    if (opt.corruptRead && opt.workload != Workload::MixedLoad)
        usage("--corrupt-read applies to the mixedload workload only");
    return opt;
}

} // namespace
} // namespace nvdimmc::simbench

int
main(int argc, char** argv)
{
    using namespace nvdimmc::simbench;
    const Options opt = parseArgs(argc, argv);

    // The Q20 slowdown's denominator: the same replay on the pmem
    // baseline. It is a reference value, computed once and untimed.
    nvdimmc::Tick tpch_base = 0;
    if (opt.workload == Workload::TpchQ20)
        tpch_base = tpchBaselineTicks(tpchRunConfig(opt.seed));

    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const unsigned min_reps = opt.trace ? 2 : 3;
    double calib_prev = 0;
    auto measure = [&](const char* kind) {
        Rep rep = runRep(opt, kind, tpch_base);
        const double calib = calibrate();
        rep.calibS = calib_prev ? (calib_prev + calib) / 2 : calib;
        calib_prev = calib;
        printRep(rep);
    };
    measure("warmup");
    const auto t0 = Clock::now();
    for (unsigned n = 0; n < min_reps || secondsSince(t0) < budget; ++n)
        measure("untraced");
    if (opt.trace) {
        measure("traced");
        if (sharded(opt.workload))
            measure("serial");
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"kind\":\"process\",\"peak_rss_kb\":" << ru.ru_maxrss
              << ",\"build_type\":\"" << SIMBENCH_BUILD_TYPE << "\"}\n";
    return 0;
}
