/**
 * @file
 * MMU-side view of the DAX mapping (paper Fig 6): which device pages
 * currently have valid PTEs pointing at DRAM cache slots. An access to
 * a page with a valid PTE bypasses the driver entirely; an invalid
 * PTE takes the page-fault path into the nvdc fault handler.
 */

#ifndef NVDIMMC_DRIVER_PAGE_TABLE_HH
#define NVDIMMC_DRIVER_PAGE_TABLE_HH

#include <cstdint>
#include <optional>

#include "common/flat_map.hh"
#include "common/stats.hh"

namespace nvdimmc::driver
{

/** The DAX page table. */
class PageTable
{
  public:
    /** @return the mapped slot, or nullopt (-> page fault). */
    std::optional<std::uint32_t>
    translate(std::uint64_t dev_page) const
    {
        const std::uint32_t* slot = map_.find(dev_page);
        if (!slot)
            return std::nullopt;
        return *slot;
    }

    bool isMapped(std::uint64_t dev_page) const
    {
        return map_.contains(dev_page);
    }

    void
    map(std::uint64_t dev_page, std::uint32_t slot)
    {
        map_.insert_or_assign(dev_page, slot);
        maps_.inc();
    }

    /** Invalidate (TLB shootdown happens in the driver's timing). */
    void
    unmap(std::uint64_t dev_page)
    {
        map_.erase(dev_page);
        unmaps_.inc();
    }

    /** Pre-size for @p n mapped pages in total. */
    void reserve(std::size_t n) { map_.reserve(n); }

    std::size_t mappedCount() const { return map_.size(); }
    std::uint64_t totalMaps() const { return maps_.value(); }
    std::uint64_t totalUnmaps() const { return unmaps_.value(); }

  private:
    FlatMap<std::uint32_t> map_;
    Counter maps_;
    Counter unmaps_;
};

} // namespace nvdimmc::driver

#endif // NVDIMMC_DRIVER_PAGE_TABLE_HH
