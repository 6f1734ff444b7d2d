#include "cpu/cache_model.hh"

#include <cstring>
#include <memory>

#include "common/logging.hh"

namespace nvdimmc::cpu
{

CpuCacheModel::CpuCacheModel(EventQueue& eq, imc::Imc& imc,
                             const Params& p)
    : eq_(eq),
      ownedPort_(std::make_unique<imc::HostPort>(imc)),
      port_(*ownedPort_),
      params_(p)
{
}

CpuCacheModel::CpuCacheModel(EventQueue& eq, imc::HostPort& port,
                             const Params& p)
    : eq_(eq), port_(port), params_(p)
{
}

void
CpuCacheModel::maybeEvictOne()
{
    if (lines_.size() < params_.capacityLines)
        return;
    // Hash-order eviction approximates random replacement; dirty
    // victims write back at this arbitrary moment (the hazard the
    // driver discipline must survive).
    auto it = lines_.begin();
    stats_.capacityEvictions.inc();
    if (it->second.dirty)
        writeBack(it->first, it->second.data);
    lines_.erase(it);
}

void
CpuCacheModel::writeBack(Addr line_addr,
                         const std::array<std::uint8_t, 64>& data)
{
    if (port_.writeLine(line_addr, data.data(), nullptr))
        return;
    // WPQ full: the dirty bytes live in this retry until a write slot
    // frees; a retry that loses the slot again re-parks.
    port_.whenSpace(line_addr, imc::QueueKind::Write,
                    [this, line_addr, data] {
                        writeBack(line_addr, data);
                    });
}

void
CpuCacheModel::load(Addr addr, std::uint8_t* buf, Callback done)
{
    Addr line_addr = lineOf(addr);
    auto it = lines_.find(line_addr);
    if (it != lines_.end()) {
        stats_.loadHits.inc();
        if (buf)
            std::memcpy(buf, it->second.data.data(), 64);
        eq_.scheduleAfter(params_.hitLatency, std::move(done));
        return;
    }

    stats_.loadMisses.inc();
    fetch(line_addr, buf, std::make_shared<Callback>(std::move(done)));
}

void
CpuCacheModel::fetch(Addr line_addr, std::uint8_t* buf,
                     std::shared_ptr<Callback> cb)
{
    // Fill via a stable staging buffer: the line may be evicted while
    // the miss is outstanding, so the iMC must never write into the
    // map node directly. The callback lives in a shared_ptr because
    // it must survive a rejected readLine (the lambda handed to the
    // iMC is destroyed on the failure path) for the retry.
    auto staging = std::make_shared<std::array<std::uint8_t, 64>>();
    bool ok = port_.readLine(line_addr, staging->data(),
                             [this, line_addr, buf, staging, cb] {
        maybeEvictOne();
        auto& line = lines_[line_addr];
        // Don't clobber a line that was dirtied while the miss was
        // outstanding (store-after-load race).
        if (!line.dirty)
            line.data = *staging;
        if (buf)
            std::memcpy(buf, line.data.data(), 64);
        if (*cb)
            (*cb)();
    });
    if (!ok) {
        // Read queue full: retry the fetch (not the lookup, so the
        // miss counts once) when space frees.
        port_.whenSpace(line_addr, imc::QueueKind::Read,
                        [this, line_addr, buf, cb] {
                            fetch(line_addr, buf, cb);
                        });
    }
}

void
CpuCacheModel::store(Addr addr, const std::uint8_t* data, Callback done)
{
    Addr line_addr = lineOf(addr);
    stats_.stores.inc();
    auto it = lines_.find(line_addr);
    if (it == lines_.end()) {
        maybeEvictOne();
        it = lines_.emplace(line_addr, Line{}).first;
    }
    if (data)
        std::memcpy(it->second.data.data(), data, 64);
    it->second.dirty = true;
    eq_.scheduleAfter(params_.hitLatency, std::move(done));
}

bool
CpuCacheModel::storeNt(Addr addr, const std::uint8_t* data,
                       Callback done)
{
    Addr line_addr = lineOf(addr);
    auto it = lines_.find(line_addr);
    if (it != lines_.end() && data) {
        std::memcpy(it->second.data.data(), data, 64);
        it->second.dirty = false;
    }
    if (!port_.writeLine(line_addr, data, std::move(done)))
        return false;
    stats_.ntStores.inc();
    return true;
}

void
CpuCacheModel::clflush(Addr addr, Callback done)
{
    Addr line_addr = lineOf(addr);
    stats_.flushes.inc();
    auto it = lines_.find(line_addr);
    if (it == lines_.end()) {
        eq_.scheduleAfter(params_.flushCost, std::move(done));
        return;
    }
    bool dirty = it->second.dirty;
    auto data = it->second.data;
    lines_.erase(it);
    if (!dirty) {
        eq_.scheduleAfter(params_.flushCost, std::move(done));
        return;
    }
    stats_.flushWritebacks.inc();
    writeBack(line_addr, data);
    eq_.scheduleAfter(params_.flushCost, std::move(done));
}

void
CpuCacheModel::invalidate(Addr addr)
{
    stats_.invalidations.inc();
    lines_.erase(lineOf(addr));
}

bool
CpuCacheModel::contains(Addr addr) const
{
    return lines_.count(lineOf(addr)) != 0;
}

bool
CpuCacheModel::isDirty(Addr addr) const
{
    auto it = lines_.find(lineOf(addr));
    return it != lines_.end() && it->second.dirty;
}

void
CpuCacheModel::registerStats(StatRegistry& reg,
                             const std::string& prefix) const
{
    reg.addCounter(prefix + ".load_hits", stats_.loadHits);
    reg.addCounter(prefix + ".load_misses", stats_.loadMisses);
    reg.addCounter(prefix + ".stores", stats_.stores);
    reg.addCounter(prefix + ".nt_stores", stats_.ntStores);
    reg.addCounter(prefix + ".flushes", stats_.flushes);
    reg.addCounter(prefix + ".flush_writebacks",
                   stats_.flushWritebacks);
    reg.addCounter(prefix + ".invalidations", stats_.invalidations);
    reg.addCounter(prefix + ".capacity_evictions",
                   stats_.capacityEvictions);
    reg.add(prefix + ".resident_lines",
            [this] { return static_cast<double>(lines_.size()); });
}

} // namespace nvdimmc::cpu
