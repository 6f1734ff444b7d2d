/**
 * @file
 * Fully associative DRAM cache bookkeeping (paper §IV-B): 4 KB slots,
 * any device page in any slot, pluggable replacement policy. This is
 * pure state — the timing (CP commands, windows, NAND) lives in the
 * NvdcDriver — so the hit-rate study (§VII-B5) can replay traces
 * through it directly.
 */

#ifndef NVDIMMC_DRIVER_DRAM_CACHE_HH
#define NVDIMMC_DRIVER_DRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "driver/replacement_policy.hh"

namespace nvdimmc::driver
{

/** Per-slot state. */
struct CacheSlot
{
    enum class State : std::uint8_t { Free, Stable, Busy };

    std::uint64_t devPage = 0; ///< Device (logical NAND) page cached.
    State state = State::Free;
    bool dirty = false;
};

/** Cache statistics. */
struct DramCacheStats
{
    Counter hits;
    Counter misses;
    Counter installs;
    Counter cleanEvictions;
    Counter dirtyEvictions;

    double
    hitRate() const
    {
        auto total = hits.value() + misses.value();
        return total ? static_cast<double>(hits.value()) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** The cache directory. */
class DramCache
{
  public:
    DramCache(std::uint32_t slot_count,
              std::unique_ptr<ReplacementPolicy> policy);

    std::uint32_t slotCount() const { return slotCount_; }
    std::uint32_t usedSlots() const
    {
        return slotCount_ - static_cast<std::uint32_t>(freeList_.size());
    }
    bool hasFree() const { return !freeList_.empty(); }
    /** Pre-size the page->slot directory for @p n bound pages. */
    void reserve(std::uint32_t n) { pageToSlot_.reserve(n); }

    /**
     * Look up @p dev_page; counts a hit/miss and (on hit) touches the
     * replacement policy.
     */
    std::optional<std::uint32_t> lookup(std::uint64_t dev_page);

    /** Look without counting or touching (driver re-checks). */
    std::optional<std::uint32_t> peek(std::uint64_t dev_page) const;

    /** Take a free slot and bind it to @p dev_page (state Busy until
     *  the fill completes). */
    std::uint32_t allocate(std::uint64_t dev_page);

    /** Choose an evictable (Stable) victim via the policy. */
    std::uint32_t pickVictim();

    /**
     * Choose an evictable *clean* victim, or nullopt if none exists.
     * Used by the prefetcher, which must never trigger writebacks.
     */
    std::optional<std::uint32_t> pickCleanVictim();

    /** Begin evicting @p slot: unmaps the page, marks Busy.
     *  @return the evicted slot's prior contents. */
    CacheSlot beginEvict(std::uint32_t slot);

    /** Finish an eviction: the slot becomes Free. */
    void finishEvict(std::uint32_t slot);

    /**
     * Rebind a slot mid-eviction to a new page (the evict/fill pair
     * reuses the same slot, as the paper's driver does). Slot stays
     * Busy until finishFill().
     */
    void rebind(std::uint32_t slot, std::uint64_t dev_page);

    /** Fill finished: slot becomes Stable (hit-able). */
    void finishFill(std::uint32_t slot);

    void markDirty(std::uint32_t slot);
    void markClean(std::uint32_t slot);

    /**
     * Pin a slot while an access is in flight: a pinned slot is never
     * chosen as a victim (the kernel analogue is that eviction's TLB
     * shootdown waits for accesses through existing mappings).
     */
    void pin(std::uint32_t slot) { ++pins_[slot]; }
    void unpin(std::uint32_t slot);
    bool pinned(std::uint32_t slot) const { return pins_[slot] != 0; }

    const CacheSlot& slot(std::uint32_t s) const { return slots_[s]; }
    const DramCacheStats& stats() const { return stats_; }
    const ReplacementPolicy& policy() const { return *policy_; }

    /** Register live counters + derived hit_rate / occupancy under
     *  @p prefix (e.g. "cache.hit_rate"). */
    void registerStats(StatRegistry& reg,
                       const std::string& prefix) const;

  private:
    std::uint32_t slotCount_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::vector<CacheSlot> slots_;
    std::vector<std::uint32_t> pins_;
    /** Number of Stable slots (== entries the policy knows about). */
    std::uint32_t stableCount_ = 0;
    std::vector<std::uint32_t> freeList_;
    FlatMap<std::uint32_t> pageToSlot_;
    DramCacheStats stats_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_DRAM_CACHE_HH
