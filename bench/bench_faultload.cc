/**
 * @file
 * Fault-injection campaign matrix -> BENCH_faults.json.
 *
 * Not a google-benchmark microbenchmark: each row is a full
 * deterministic campaign (power-fail + recovery replay, media-fault
 * soak, compressed-time ageing) and the interesting output is the
 * integrity/recovery matrix, not wall time. Structure mirrors
 * sweep_runner's JSON emitter so CI can diff artifacts the same way.
 *
 *   bench_faultload [--json FILE] [--seeds N] [--quick]
 *
 * Every power-fail row runs the sharded machine (--threads 1); a live
 * validation failure before the cut or a corrupted committed record
 * after it (with ADR working) makes the process exit non-zero, so the
 * CI matrix job doubles as an integrity gate.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "fault/campaign.hh"

namespace nvdimmc::bench
{
namespace
{

struct Row
{
    std::string name;
    std::vector<std::pair<std::string, double>> metrics;
    std::string fingerprint;
    std::string error;
};

double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kUs);
}

Row
powerFailRow(std::uint64_t seed, double frac, bool adr)
{
    fault::PowerFailCampaignConfig cfg;
    cfg.seed = seed;
    cfg.adrWorks = adr;
    fault::PowerFailCampaignResult full = runPowerFailCampaign(cfg);
    cfg.haltAtTick = static_cast<Tick>(
        static_cast<double>(full.workloadElapsed) * frac);
    fault::PowerFailCampaignResult cut = runPowerFailCampaign(cfg);

    std::ostringstream name;
    name << "powerfail/seed" << seed << "/cut"
         << static_cast<int>(frac * 100) << (adr ? "/adr" : "/noadr");
    Row row;
    row.name = name.str();
    row.fingerprint = cut.fingerprint;
    row.metrics = {
        {"cut_tick_us", ticksToUs(cfg.haltAtTick)},
        {"transactions", static_cast<double>(cut.transactions)},
        {"committed", static_cast<double>(cut.committedRecords)},
        {"in_flight", static_cast<double>(cut.inFlightWrites)},
        {"corrupt", static_cast<double>(cut.corruptRecords)},
        {"wpq_flushed", static_cast<double>(cut.wpqFlushed)},
        {"wpq_lost", static_cast<double>(cut.wpqLost)},
        {"pages_dumped", static_cast<double>(cut.pagesDumped)},
        {"recovery_us", ticksToUs(cut.recoveryTicks)},
    };
    if (cut.liveValidationFailures != 0)
        row.error = "live validation failed before the cut";
    else if (adr && cut.corruptRecords != 0)
        row.error = "committed records corrupted despite ADR";
    return row;
}

Row
mediaRow(const std::string& name,
         const fault::MediaFaultCampaignConfig& cfg)
{
    fault::MediaFaultCampaignResult res = runMediaFaultCampaign(cfg);
    Row row;
    row.name = name;
    row.fingerprint = res.fingerprint;
    row.metrics = {
        {"reads", static_cast<double>(res.reads)},
        {"writes", static_cast<double>(res.writes)},
        {"read_errors", static_cast<double>(res.readErrorsInjected)},
        {"read_retries", static_cast<double>(res.readRetries)},
        {"retry_successes",
         static_cast<double>(res.readRetrySuccesses)},
        {"uncorrectable", static_cast<double>(res.uncorrectableReads)},
        {"program_fails",
         static_cast<double>(res.programFailsInjected)},
        {"grown_bad_blocks", static_cast<double>(res.grownBadBlocks)},
        {"gc_relocations", static_cast<double>(res.gcRelocations)},
        {"silent_corruptions",
         static_cast<double>(res.silentCorruptions)},
        {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
    };
    if (res.silentCorruptions != 0)
        row.error = "silent corruption";
    else if (!res.invariantsOk)
        row.error = "FTL invariants violated: " + res.invariantWhy;
    return row;
}

Row
ageingRow(std::uint64_t seed)
{
    fault::AgeingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.rounds = 32;
    cfg.writesPerRound = 96;
    cfg.faults.readRberMean = 0.2;
    cfg.faults.wearRberSlope = 0.02;
    cfg.faults.programFailProb = 0.002;
    fault::AgeingCampaignResult res = runAgeingCampaign(cfg);

    Row row;
    row.name = "ageing/seed" + std::to_string(seed);
    row.fingerprint = res.fingerprint;
    row.metrics = {
        {"writes", static_cast<double>(res.writes)},
        {"gc_erases", static_cast<double>(res.gcErases)},
        {"gc_relocations", static_cast<double>(res.gcRelocations)},
        {"grown_bad_blocks", static_cast<double>(res.grownBadBlocks)},
        {"max_erase_count", static_cast<double>(res.maxEraseCount)},
        {"wear_spread", static_cast<double>(res.wearSpread)},
        {"silent_corruptions",
         static_cast<double>(res.silentCorruptions)},
        {"invariants_ok", res.invariantsOk ? 1.0 : 0.0},
        {"checkpoint_deterministic",
         res.checkpointDeterministic ? 1.0 : 0.0},
        {"checkpoint_kb",
         static_cast<double>(res.checkpointBytes) / 1024.0},
    };
    if (!res.checkpointDeterministic)
        row.error = "checkpoint-restored replay diverged";
    else if (res.silentCorruptions != 0 || !res.invariantsOk)
        row.error = "ageing campaign integrity failure";
    return row;
}

void
writeJson(const std::vector<Row>& rows, const std::string& path)
{
    std::ofstream out(path);
    out.precision(17);
    out << "{\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"name\": \"" << r.name << "\", \"fingerprint\": \""
            << r.fingerprint << "\", \"error\": \"" << r.error
            << "\", \"metrics\": {";
        for (std::size_t m = 0; m < r.metrics.size(); ++m) {
            out << (m ? ", " : "") << "\"" << r.metrics[m].first
                << "\": " << r.metrics[m].second;
        }
        out << "}}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int
faultloadMain(int argc, char** argv)
{
    std::string json_path = "BENCH_faults.json";
    std::uint64_t seeds = 1;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--seeds" && i + 1 < argc) {
            seeds = std::stoull(argv[++i]);
        } else if (arg == "--quick") {
            quick = true;
        } else {
            std::cerr << "usage: bench_faultload [--json FILE]"
                         " [--seeds N] [--quick]\n";
            return arg == "--help" ? 0 : 2;
        }
    }

    setLogLevel(LogLevel::Silent);
    std::vector<Row> rows;

    for (std::uint64_t s = 0; s < seeds; ++s) {
        std::uint64_t seed = 29 + s * 17;
        for (double frac : quick ? std::vector<double>{0.5}
                                 : std::vector<double>{0.25, 0.5, 0.8})
            rows.push_back(powerFailRow(seed, frac, true));
        rows.push_back(powerFailRow(seed, 0.5, false));

        fault::MediaFaultCampaignConfig ecc;
        ecc.seed = seed + 1000;
        ecc.faults.readRberMean = 0.9;
        ecc.faults.wearRberSlope = 0.03;
        rows.push_back(
            mediaRow("media/ecc/seed" + std::to_string(seed), ecc));

        fault::MediaFaultCampaignConfig prog;
        prog.seed = seed + 2000;
        prog.faults.programFailProb = 0.01;
        prog.ops = 2500;
        rows.push_back(mediaRow(
            "media/program_fail/seed" + std::to_string(seed), prog));

        if (!quick)
            rows.push_back(ageingRow(seed));
    }

    bool failed = false;
    for (const Row& r : rows) {
        std::cout << r.name;
        for (const auto& [k, v] : r.metrics)
            std::cout << " " << k << "=" << v;
        std::cout << " fp=" << r.fingerprint;
        if (!r.error.empty()) {
            std::cout << "  ERROR: " << r.error;
            failed = true;
        }
        std::cout << "\n";
    }
    writeJson(rows, json_path);
    std::cout << (failed ? "FAILED" : "ok") << ": " << rows.size()
              << " campaign rows -> " << json_path << "\n";
    return failed ? 1 : 0;
}

} // namespace
} // namespace nvdimmc::bench

int
main(int argc, char** argv)
{
    try {
        return nvdimmc::bench::faultloadMain(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "bench_faultload: " << e.what() << "\n";
        return 1;
    }
}
