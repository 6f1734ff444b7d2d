/**
 * @file
 * Shared scaffolding for the paper-reproduction benches.
 *
 * Every bench binary regenerates one table/figure from the paper's
 * evaluation (§VII) on the scaled bench configuration. Counters named
 * "paper_*" carry the paper's reported value for side-by-side
 * comparison; see EXPERIMENTS.md for the discussion. System-building
 * helpers live in bench_systems.hh (benchmark-harness-free, also used
 * by the sweep runner).
 *
 * Flags every bench binary accepts on top of the Google Benchmark
 * flags (stripped before benchmark::Initialize):
 *
 *      --obs=DIR        record the whole run into DIR (created if
 *                       missing): request spans, telemetry sampled
 *                       every 4 x tREFI of simulated time, the crash
 *                       flight recorder and the Chrome tracer (capped
 *                       at trace::kDefaultMaxEvents). Files:
 *                         meta.json        schema_version, host,
 *                                          host_cores, argv
 *                         stats.jsonl      full stat dump per benchmark
 *                         telemetry.jsonl  time series per benchmark
 *                         breakdown.jsonl  per-op-class per-phase
 *                                          latency per benchmark (also
 *                                          printed to stdout)
 *                         trace.json       trace_event JSON (Perfetto)
 *                         flight.json      last spans + intervals
 *                       telemetry.jsonl and breakdown.jsonl are
 *                       byte-identical for every --threads >= 1.
 *      --channels=N     build every system with N memory channels
 *                       (N complete NVDIMM-C modules, page-interleaved;
 *                       default 1 = the PoC machine).
 *      --backend=nvdimmc|cxl|pmem
 *                       media-transport backend every system is built
 *                       with: the paper's CP-over-DDR4 module
 *                       (default), the CXL.mem hybrid device (same
 *                       DRAM cache + Z-NAND behind a modeled link, no
 *                       refresh windows, 256 B interleave), or the
 *                       emulated-pmem baseline machine.
 *      --threads=N|auto run the sharded parallel-in-time kernel
 *                       (any N >= 1, or auto: the same execution on
 *                       the calling thread). Default: the classic
 *                       serial kernel.
 *
 * A malformed flag value exits 1 with a message.
 */

#ifndef NVDIMMC_BENCH_BENCH_COMMON_HH
#define NVDIMMC_BENCH_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bench_systems.hh"
#include "common/span.hh"
#include "common/telemetry.hh"
#include "common/trace.hh"

namespace nvdimmc::bench
{

/** Attach measured-vs-paper counters to a benchmark state. */
inline void
report(benchmark::State& state, const workload::FioResult& res,
       double paper_mbps, double paper_kiops)
{
    state.counters["MBps"] = res.mbps;
    state.counters["KIOPS"] = res.kiops;
    state.counters["lat_us"] = ticksToUs(res.meanLatency);
    if (paper_mbps > 0)
        state.counters["paper_MBps"] = paper_mbps;
    if (paper_kiops > 0)
        state.counters["paper_KIOPS"] = paper_kiops;
}

/** Upper bounds of --channels= and --threads=. */
inline constexpr std::uint32_t kMaxBenchChannels = 1024;
inline constexpr std::uint32_t kMaxBenchThreads = 1024;

/**
 * Parse the value of a numeric bench flag (@p flag names it in the
 * error). A malformed or out-of-range value exits 1 with a message
 * instead of silently falling back to the default.
 */
inline std::uint32_t
parseFlagCount(const char* flag, const char* text, std::uint32_t lo,
               std::uint32_t hi)
{
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || *end != '\0' || errno != 0 ||
        v < lo || v > hi) {
        std::cerr << "invalid " << flag << "'" << text
                  << "' (expected an integer in [" << lo << ", " << hi
                  << "])\n";
        std::exit(1);
    }
    return static_cast<std::uint32_t>(v);
}

/** The --obs output directory (empty = observability off). */
inline std::string&
observabilityDir()
{
    static std::string dir;
    return dir;
}

/** Write DIR/meta.json: schema version, host, core count and the
 *  command line that produced the directory. */
inline void
writeObservabilityMeta(const std::string& dir,
                       const std::vector<std::string>& args)
{
    char host[256] = "unknown";
    gethostname(host, sizeof(host) - 1);
    std::ofstream os(dir + "/meta.json");
    os << "{\"schema_version\":" << telemetry::kSchemaVersion
       << ",\"host\":\"" << host << "\",\"host_cores\":"
       << std::thread::hardware_concurrency() << ",\"argv\":[";
    for (std::size_t i = 0; i < args.size(); ++i) {
        os << (i ? ",\"" : "\"");
        for (char c : args[i]) {
            if (c == '"' || c == '\\')
                os << '\\';
            os << c;
        }
        os << '"';
    }
    os << "]}\n";
}

/**
 * Strip the bench flags (see the file comment) from argv; call before
 * benchmark::Initialize. Under --obs=DIR, create DIR, write its
 * meta.json, and turn on spans, telemetry, the flight recorder and
 * the tracer. These are process-wide; benches run systems serially.
 */
inline void
initObservability(int* argc, char** argv)
{
    std::string& dir = observabilityDir();
    const std::vector<std::string> args(argv, argv + *argc);
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const char* a = argv[i];
        if (std::strncmp(a, "--obs=", 6) == 0) {
            dir = a + 6;
            if (dir.empty()) {
                std::cerr << "--obs= needs a directory\n";
                std::exit(1);
            }
        } else if (std::strncmp(a, "--channels=", 11) == 0) {
            benchChannels() = parseFlagCount("--channels=", a + 11, 1,
                                             kMaxBenchChannels);
        } else if (std::strncmp(a, "--backend=", 10) == 0) {
            backend::BackendKind kind;
            if (!backend::parseBackendKind(a + 10, kind)) {
                std::cerr << "unknown --backend '" << (a + 10)
                          << "' (expected nvdimmc, cxl or pmem)\n";
                std::exit(1);
            }
            benchBackend() = kind;
        } else if (std::strcmp(a, "--threads=auto") == 0) {
            benchThreads() = 1;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            benchThreads() = parseFlagCount("--threads=", a + 10, 0,
                                            kMaxBenchThreads);
        } else {
            argv[out++] = argv[i];
        }
    }
    *argc = out;
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::cerr << "--obs: cannot create '" << dir
                  << "': " << ec.message() << "\n";
        std::exit(1);
    }
    // The JSONL files are appended per benchmark; start them empty so
    // the directory always holds exactly one run.
    for (const char* f : {"/stats.jsonl", "/telemetry.jsonl",
                          "/breakdown.jsonl"})
        std::ofstream(dir + f, std::ios::trunc);
    writeObservabilityMeta(dir, args);
    trace::start(dir + "/trace.json");
    // The windowed SLO percentiles drain the span layer, and the span
    // ring is the flight recorder's substrate.
    span::enable();
    telemetry::enable();
    telemetry::flightArm(dir + "/flight.json");
}

/** Backend a system was built with (the stats line's tag). */
inline backend::BackendKind
backendOf(const core::NvdimmcSystem& sys)
{
    return sys.config().backendKind;
}

inline backend::BackendKind
backendOf(const core::BaselineSystem&)
{
    return backend::BackendKind::Pmem;
}

inline backend::BackendKind
backendOf(const BenchDevice& dev)
{
    return dev.nvdc ? backendOf(*dev.nvdc) : backendOf(*dev.pmem);
}

/**
 * Record one finished benchmark into the --obs directory (no-op
 * without --obs); call while @p sys is still alive, right after the
 * workload. Appends the stats line (tagged with the backend and
 * `_meta.schema_version`, which check_bench_regression.py checks),
 * the telemetry series, and the latency-breakdown block (also
 * printed to stdout as a per-op-class per-phase table), then resets
 * the span recorder so the next benchmark starts clean. @p System is
 * core::NvdimmcSystem, core::BaselineSystem or BenchDevice.
 */
template <class System>
void
recordObservability(const std::string& name, System& sys)
{
    const std::string& dir = observabilityDir();
    if (dir.empty())
        return;
    std::ofstream stats(dir + "/stats.jsonl", std::ios::app);
    stats << "{\"bench\":\"" << name << "\",\"backend\":\""
          << backend::toString(backendOf(sys))
          << "\",\"_meta\":{\"schema_version\":"
          << telemetry::kSchemaVersion << "},\"stats\":";
    sys.dumpStatsJson(stats);
    stats << "}\n";
    if (const telemetry::Collector* c = sys.telemetryCollector()) {
        std::ofstream os(dir + "/telemetry.jsonl", std::ios::app);
        c->writeJsonl(os, name);
    }
    span::writeBreakdownTable(std::cout, name);
    std::ofstream os(dir + "/breakdown.jsonl", std::ios::app);
    os << "{\"bench\":\"" << name << "\",\"breakdown\":";
    span::writeBreakdownJson(os);
    os << "}\n";
    span::reset();
}

/** Write trace.json and flight.json (no-op without --obs). */
inline void
finishObservability()
{
    if (observabilityDir().empty())
        return;
    trace::stop();
    telemetry::flightDump("flag");
}

} // namespace nvdimmc::bench

/** BENCHMARK_MAIN() plus the bench flags (stripped from argv before
 *  Google Benchmark sees them; any other unknown flag exits 1). */
#define NVDIMMC_BENCH_MAIN()                                          \
    int main(int argc, char** argv)                                   \
    {                                                                 \
        nvdimmc::bench::initObservability(&argc, argv);               \
        benchmark::Initialize(&argc, argv);                           \
        if (benchmark::ReportUnrecognizedArguments(argc, argv))       \
            return 1;                                                 \
        benchmark::RunSpecifiedBenchmarks();                          \
        benchmark::Shutdown();                                        \
        nvdimmc::bench::finishObservability();                        \
        return 0;                                                     \
    }                                                                 \
    int main(int, char**)

#endif // NVDIMMC_BENCH_BENCH_COMMON_HH
