/**
 * @file
 * Fault campaigns: scripted adversarial scenarios over the stack.
 *
 * Three campaign kinds (ROADMAP item 5):
 *
 *  - Power-fail: run the mixed-load validator against a full
 *    NVDIMM-C system, cut power at an arbitrary tick, let ADR and the
 *    firmware's flush-on-fail dump run, then replay every committed
 *    record straight out of the NVM backend and count corruption.
 *  - Media-fault: drive a standalone FTL + Z-NAND pair with seeded
 *    read errors and program failures, checking that ECC outcomes,
 *    read-retry, bad-block retirement and GC relocation preserve an
 *    oracle of every acked write.
 *  - Ageing: compressed-time overwrite rounds that push wear
 *    leveling and GC through simulated months, with wear-coupled
 *    error rates, invariant sweeps every round, and a mid-campaign
 *    checkpoint/restore whose replay must reproduce the original run
 *    bit-for-bit.
 *
 * Every campaign returns a fingerprint string derived only from
 * simulation content (no host pointers, no wall clock), so two runs
 * with the same seed and `--threads` value (every value >= 1 is the
 * same execution) produce equal fingerprints; tests pin them.
 */

#ifndef NVDIMMC_FAULT_CAMPAIGN_HH
#define NVDIMMC_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "fault/fault.hh"

namespace nvdimmc::fault
{

/** Power-fail campaign knobs. */
struct PowerFailCampaignConfig
{
    std::uint64_t seed = 1;
    /** NVDIMM-C modules (device pages interleave across them). */
    std::uint32_t channels = 2;
    /** SystemConfig::threads (0 = classic serial kernel; every
     *  value >= 1 selects the same sharded machine). */
    std::uint32_t threads = 1;
    /** Cut power once simulated time reaches this tick (0 = let the
     *  workload finish first, then cut — everything is committed). */
    Tick haltAtTick = 0;
    bool adrWorks = true;
    bool raceWindow = false;
    unsigned users = 6;
    unsigned transactionsPerUser = 4;
    unsigned recordsPerTxn = 2;
    /** Record slots per user (region size = users * slots * 4 KB). */
    std::uint64_t regionSlotsPerUser = 24;
};

/** Power-fail campaign outcome. */
struct PowerFailCampaignResult
{
    bool halted = false;           ///< Power cut mid-run?
    Tick workloadElapsed = 0;      ///< Ticks the workload ran.
    std::uint64_t transactions = 0;
    std::uint64_t liveValidationFailures = 0; ///< Pre-cut failures.
    std::uint64_t committedRecords = 0;
    std::uint64_t inFlightWrites = 0;
    std::uint64_t corruptRecords = 0; ///< Post-recovery mismatches.
    std::uint64_t wpqFlushed = 0;
    std::uint64_t wpqLost = 0;
    std::uint64_t pagesDumped = 0;
    /** Modeled flush-on-fail duration: the super-caps must power the
     *  dumped pages' NAND transfers + programs. */
    Tick recoveryTicks = 0;
    std::string fingerprint;
};

PowerFailCampaignResult
runPowerFailCampaign(const PowerFailCampaignConfig& cfg);

/** Media-fault campaign knobs. */
struct MediaFaultCampaignConfig
{
    std::uint64_t seed = 1;
    MediaFaultConfig faults;
    std::uint32_t readRetries = 2;
    /** Correction capability of the rig's ECC. Deliberately weak
     *  (vs the production 72 bits / 4 KB) so modest injected RBER
     *  means actually cross into retry/uncorrectable territory. */
    std::uint32_t eccCorrectableBits = 2;
    unsigned ops = 1500;
    double writeFraction = 0.5;
    /** Logical pages the op stream touches. */
    std::uint64_t workingSetPages = 256;
};

/** Media-fault campaign outcome. */
struct MediaFaultCampaignResult
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readErrorsInjected = 0;
    std::uint64_t programFailsInjected = 0;
    std::uint64_t readRetries = 0;
    std::uint64_t readRetrySuccesses = 0;
    std::uint64_t uncorrectableReads = 0;
    std::uint64_t grownBadBlocks = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t oracleMismatches = 0;
    /** Mismatches the FTL did NOT flag as uncorrectable — real
     *  integrity bugs; must be zero. */
    std::uint64_t silentCorruptions = 0;
    bool invariantsOk = true;
    std::string invariantWhy;
    std::string fingerprint;
};

MediaFaultCampaignResult
runMediaFaultCampaign(const MediaFaultCampaignConfig& cfg);

/** Ageing campaign knobs. */
struct AgeingCampaignConfig
{
    std::uint64_t seed = 1;
    /** Overwrite rounds ("months" of compressed duty cycle). */
    unsigned rounds = 32;
    unsigned writesPerRound = 96;
    std::uint64_t workingSetPages = 192;
    MediaFaultConfig faults;
    std::uint32_t readRetries = 2;
    /** See MediaFaultCampaignConfig::eccCorrectableBits. */
    std::uint32_t eccCorrectableBits = 2;
    /** Snapshot at rounds/2, replay the second half from the restored
     *  image and compare content digests. */
    bool verifyCheckpoint = true;
};

/** Ageing campaign outcome. */
struct AgeingCampaignResult
{
    std::uint64_t writes = 0;
    std::uint64_t gcErases = 0;
    std::uint64_t gcRelocations = 0;
    std::uint64_t grownBadBlocks = 0;
    std::uint32_t wearSpread = 0;
    std::uint32_t maxEraseCount = 0;
    std::uint64_t oracleMismatches = 0;
    std::uint64_t silentCorruptions = 0;
    bool invariantsOk = true;
    std::string invariantWhy;
    /** Restored-image replay reproduced the original second half? */
    bool checkpointDeterministic = true;
    std::uint64_t checkpointBytes = 0;
    std::string fingerprint;
};

AgeingCampaignResult runAgeingCampaign(const AgeingCampaignConfig& cfg);

} // namespace nvdimmc::fault

#endif // NVDIMMC_FAULT_CAMPAIGN_HH
