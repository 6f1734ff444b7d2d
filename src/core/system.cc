#include "core/system.hh"

#include <algorithm>
#include <array>
#include <string>

#include "backend/nvdimmc_backend.hh"
#include "common/logging.hh"

namespace nvdimmc::core
{

namespace
{

/**
 * Build the execution kernel both machines share. @p build constructs
 * the channel hardware on the per-channel queues it is given (channel
 * order) and returns the host port that routes to them.
 *
 * At threads = 0 every channel runs on @p host and there is no
 * coordinator (null). At threads >= 1 each channel gets its own shard
 * queue, created into @p queues; then a coordinator with sync quantum
 * @p quantum takes over @p host's run methods and the port switches to
 * sharded routing over the host link.
 */
template <typename Config, typename Build>
std::unique_ptr<ShardCoordinator>
buildKernel(EventQueue& host, const Config& cfg, Tick quantum,
            std::vector<std::unique_ptr<EventQueue>>& queues,
            Build&& build)
{
    if (cfg.threads == 0) {
        build(std::vector<EventQueue*>(cfg.channels, &host));
        return nullptr;
    }
    std::vector<EventQueue*> qs;
    for (std::uint32_t i = 0; i < cfg.channels; ++i) {
        queues.push_back(std::make_unique<EventQueue>());
        qs.push_back(queues.back().get());
    }
    imc::HostPort& port = build(qs);
    auto coord = std::make_unique<ShardCoordinator>(host, qs, quantum);
    host.setCoordinator(coord.get());
    port.enableSharding(*coord, host, qs, cfg.hostLinkLatency,
                        cfg.hostLinkDepth);
    return coord;
}

} // namespace

NvdimmcSystem::NvdimmcSystem(const SystemConfig& cfg) : cfg_(cfg)
{
    NVDC_ASSERT(cfg_.channels >= 1, "system needs at least one channel");
    NVDC_ASSERT(cfg_.backendKind != backend::BackendKind::Pmem,
                "the pmem baseline is BaselineSystem, not a "
                "NvdimmcSystem transport");
    const bool is_cxl =
        cfg_.backendKind == backend::BackendKind::CxlHybrid;
    if (!is_cxl && cfg_.channels > 1 &&
        cfg_.interleaveGranule != dram::ChannelInterleave::kPageGranule) {
        // An NVDIMM-C module's NVMC can only DMA into its own DRAM, so
        // a cache slot must live whole on one channel: the DAX region
        // always interleaves at page granularity. The CXL device's
        // copy engine has no such tie, so that backend keeps whatever
        // granule the config asked for.
        warn("NvdimmcSystem: interleave granule ",
             cfg_.interleaveGranule,
             " unsupported with NVDIMM-C modules; clamping to 4096");
        cfg_.interleaveGranule = dram::ChannelInterleave::kPageGranule;
    }
    if (is_cxl && cfg_.nvmcEnabled) {
        // The CXL device answers over the link; there is no CP page
        // for a module-side controller to poll.
        warn("NvdimmcSystem: CXL backend ignores nvmcEnabled");
        cfg_.nvmcEnabled = false;
    }

    if (!is_cxl &&
        cfg_.driver.cpQueueDepth != cfg_.nvmc.firmware.cpQueueDepth) {
        warn("NvdimmcSystem: driver CP depth (",
             cfg_.driver.cpQueueDepth, ") != firmware CP depth (",
             cfg_.nvmc.firmware.cpQueueDepth,
             ") — commands on the unpolled slots will never be acked");
    }
    std::uint32_t cp_depth = std::max(cfg_.driver.cpQueueDepth,
                                      cfg_.nvmc.firmware.cpQueueDepth);

    // At threads >= 1 every channel simulates on its own event queue
    // (shard); the host-side components stay on eq_. The quantum is
    // checked before any hardware is built.
    const Tick bound = quantumBound(cfg_);
    const Tick quantum =
        cfg_.quantumOverride ? cfg_.quantumOverride : bound;
    if (cfg_.threads > 0 && quantum > bound) {
        panic("sync quantum ", quantum,
              " exceeds the conservative cross-shard latency bound ",
              bound, " — a message could land in a shard's past");
    }
    coord_ = buildKernel(
        eq_, cfg_, quantum, shardQueues_,
        [&](const std::vector<EventQueue*>& qs) -> imc::HostPort& {
            channels_.reserve(cfg_.channels);
            for (std::uint32_t i = 0; i < cfg_.channels; ++i)
                channels_.push_back(std::make_unique<Channel>(
                    *qs[i], cfg_, i, cfg_.channels, cp_depth));
            std::vector<imc::Imc*> imcs;
            imcs.reserve(channels_.size());
            for (auto& ch : channels_)
                imcs.push_back(&ch->imc());
            hostPort_ = std::make_unique<imc::HostPort>(
                std::move(imcs),
                dram::ChannelInterleave(cfg_.channels,
                                        cfg_.interleaveGranule));
            return *hostPort_;
        });

    cpuCache_ = std::make_unique<cpu::CpuCacheModel>(eq_, *hostPort_,
                                                     cfg_.cpuCache);
    engine_ = std::make_unique<cpu::MemcpyEngine>(
        eq_, *hostPort_, cpuCache_.get(), cfg_.memcpy);

    std::vector<const nvmc::ReservedLayout*> layouts;
    std::uint64_t backend_pages = 0;
    layouts.reserve(channels_.size());
    for (auto& ch : channels_) {
        layouts.push_back(&ch->layout());
        backend_pages += ch->backend().pageCount();
    }

    // The media transport sits between the driver's fault path and the
    // per-channel devices; the system owns it so the config can swap
    // the CP-over-DDR4 protocol for the CXL.mem link.
    if (is_cxl) {
        backend::CxlBackendConfig cxl_cfg = cfg_.cxl;
        cxl_cfg.interleaveGranule = cfg_.interleaveGranule;
        auto cxl_transport = std::make_unique<backend::CxlHybridBackend>(
            eq_, *hostPort_, cxl_cfg);
        for (std::uint32_t i = 0; i < channels_.size(); ++i)
            cxl_transport->attachChannel(
                i, shardQueues_.empty() ? eq_ : *shardQueues_[i],
                channels_[i]->dram(), channels_[i]->backend(),
                channels_[i]->layout());
        transport_ = std::move(cxl_transport);
    } else {
        auto nvdc_transport = std::make_unique<backend::NvdimmcBackend>(
            eq_, *cpuCache_, layouts,
            backend::NvdimmcBackendConfig{cfg_.driver.cpWriteCost,
                                          cfg_.driver.ackPollInterval,
                                          cfg_.driver.cpQueueDepth});
        for (std::uint32_t i = 0; i < channels_.size(); ++i)
            if (channels_[i]->nvmc())
                nvdc_transport->attachNvmc(i, channels_[i]->nvmc());
        transport_ = std::move(nvdc_transport);
    }

    driver_ = std::make_unique<driver::NvdcDriver>(
        eq_, *cpuCache_, *engine_, std::move(layouts), backend_pages,
        cfg_.driver, transport_.get());

    if (telemetry::enabled()) {
        const Tick interval =
            cfg_.telemetryIntervalTicks
                ? cfg_.telemetryIntervalTicks
                : telemetry::defaultInterval(cfg_.refresh.tREFI);
        telemetry_ =
            std::make_unique<telemetry::Collector>(eq_, interval);
        registerTelemetry(*telemetry_);
        telemetry_->start();
    }
}

void
NvdimmcSystem::registerTelemetry(telemetry::Collector& t)
{
    // Sampled on the host queue in registration order, which depends
    // only on the config (the byte-identity contract, DESIGN §9).
    driver::NvdcDriver* drv = driver_.get();
    t.addGauge("nvdc.miss_queue_depth", [drv] {
        return static_cast<std::uint64_t>(drv->pendingFillCount());
    });
    t.addGauge("nvdc.writeback_backlog", [drv] {
        return static_cast<std::uint64_t>(drv->pendingWritebackCount());
    });
    t.addDelta("nvdc.page_faults", [drv] {
        return drv->stats().pageFaults.value();
    });
    t.addDelta("nvdc.cachefills", [drv] {
        return drv->stats().cachefills.value();
    });
    t.addDelta("nvdc.writebacks", [drv] {
        return drv->stats().writebacks.value();
    });
    t.addGauge("imc.read_queue_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& ch : channels_)
            d += ch->imc().readQueueDepth();
        return d;
    });
    t.addGauge("imc.wpq_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& ch : channels_)
            d += ch->imc().wpqDepth();
        return d;
    });
    t.addGauge("host_link.credits_in_use", [this] {
        return static_cast<std::uint64_t>(
            hostPort_->linkCreditsInUse());
    });
    t.addGauge("backend.queue_depth",
               [this] { return transport_->queueDepth(); });
    t.addDelta("dram.refreshes", [this] {
        std::uint64_t v = 0;
        for (const auto& ch : channels_)
            v += ch->dram().refreshCount();
        return v;
    });
    if (cfg_.nvmcEnabled && channels_[0]->nvmc()) {
        t.addDelta("nvmc.dma.bytes", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->dma().stats().bytesMoved.value();
            return v;
        });
        t.addDelta("nvmc.dma.busy_ticks", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->dma().stats().busyTicks.value();
            return v;
        });
        t.addDelta("nvmc.window_ticks", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->nvmc()->windowTicksGranted();
            return v;
        });
        t.addRatioPermille(
            "nvmc.window.utilization_permille",
            [this] {
                std::uint64_t v = 0;
                for (const auto& ch : channels_)
                    v += ch->nvmc()->dma().stats().busyTicks.value();
                return v;
            },
            [this] {
                std::uint64_t v = 0;
                for (const auto& ch : channels_)
                    v += ch->nvmc()->windowTicksGranted();
                return v;
            });
    }
    if (channels_[0]->ftl()) {
        t.addDelta("ftl.gc_relocations", [this] {
            std::uint64_t v = 0;
            for (const auto& ch : channels_)
                v += ch->ftl()->stats().gcRelocations.value();
            return v;
        });
    }
}

Tick
NvdimmcSystem::quantumBound(const SystemConfig& cfg)
{
    Tick bound = cfg.hostLinkLatency;
    if (cfg.backendKind == backend::BackendKind::CxlHybrid) {
        // Transport messages cross the link one request latency out
        // and return one response latency out; neither may land in a
        // shard's past.
        bound = std::min(bound, cfg.cxl.reqLatency);
        bound = std::min(bound, cfg.cxl.respLatency);
    } else {
        // The driver cannot observe a CP ack faster than the compose +
        // store cost of the command that provoked it.
        bound = std::min(bound, cfg.driver.cpWriteCost);
    }
    // Staggered refresh offsets neighbouring channels' tREFI clocks by
    // tREFI / N; windows must not blur that phase relationship.
    if (cfg.staggerRefresh && cfg.channels > 1)
        bound = std::min(bound,
                         cfg.refresh.tREFI /
                             std::max<std::uint32_t>(1, cfg.channels));
    return std::max<Tick>(bound, 1);
}

std::uint32_t
NvdimmcSystem::totalSlotCount() const
{
    std::uint32_t total = 0;
    for (const auto& ch : channels_)
        total += ch->layout().slotCount();
    return total;
}

void
NvdimmcSystem::precondition(std::uint64_t first_page,
                            std::uint32_t pages, bool dirty)
{
    auto& pt = driver_->pageTable();

    // Check capacity per channel slice before touching anything.
    std::vector<std::uint32_t> demand(channels_.size(), 0);
    for (std::uint32_t i = 0; i < pages; ++i)
        ++demand[driver_->channelOf(first_page + i)];
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        auto& cache = driver_->cache(c);
        NVDC_ASSERT(demand[c] <=
                        cache.slotCount() - cache.usedSlots(),
                    "preconditioning more pages than free slots");
    }

    // Size the directories for exactly the pages going in, so the
    // inserts below never rehash.
    pt.reserve(pt.mappedCount() + pages);
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        auto& cache = driver_->cache(c);
        cache.reserve(cache.usedSlots() + demand[c]);
    }

    // Metadata lines (4 slots each) touched, per channel.
    std::vector<std::vector<bool>> touched(channels_.size());
    for (std::uint32_t c = 0; c < channels_.size(); ++c)
        touched[c].assign((driver_->cache(c).slotCount() + 3) / 4,
                          false);

    for (std::uint32_t i = 0; i < pages; ++i) {
        std::uint64_t dev_page = first_page + i;
        std::uint32_t c = driver_->channelOf(dev_page);
        auto& cache = driver_->cache(c);
        std::uint32_t slot = cache.allocate(dev_page);
        cache.finishFill(slot);
        if (dirty)
            cache.markDirty(slot);
        pt.map(dev_page, slot);
        touched[c][slot / 4] = true;
    }

    // Keep the in-DRAM metadata consistent (the firmware's power-fail
    // dump reads it from the array): one write per touched line.
    for (std::uint32_t c = 0; c < channels_.size(); ++c) {
        const auto& cache = driver_->cache(c);
        Channel& chan = *channels_[c];
        for (std::uint32_t g = 0; g < touched[c].size(); ++g) {
            if (!touched[c][g])
                continue;
            std::uint32_t first = g * 4;
            std::array<std::uint8_t, 64> line{};
            for (std::uint32_t j = 0; j < 4; ++j) {
                std::uint32_t s = first + j;
                if (s >= cache.slotCount())
                    break;
                const auto& cs = cache.slot(s);
                nvmc::SlotMetadata m;
                // Module-local page, as the firmware's dump expects
                // (it writes into its own module's backend).
                m.nandPage = cs.devPage / channels_.size();
                m.valid = cs.state != driver::CacheSlot::State::Free;
                m.dirty = cs.dirty;
                nvmc::encodeSlotMetadata(m, line.data() + j * 16);
            }
            Addr addr = chan.layout().metadataAddr(first);
            chan.dram().writeBurst(chan.map().decompose(addr),
                                   line.data());
        }
    }
}

void
NvdimmcSystem::registerStats(StatRegistry& reg) const
{
    if (coord_) {
        // Export metadata only (JSON "_meta"): the text dump stays
        // byte-identical for every threads >= 1.
        reg.setMeta("threads", coord_->executors());
        reg.setMeta("shards",
                    static_cast<double>(coord_->shardCount()));
        reg.setMeta("executors", coord_->executors());
        reg.setMeta("quantum_ticks",
                    static_cast<double>(coord_->quantum()));
    }

    if (channels_.size() == 1) {
        // The legacy single-channel namespace, bit-for-bit.
        const Channel& ch = *channels_[0];
        ch.dram().registerStats(reg, "dram");
        ch.bus().registerStats(reg, "bus");
        ch.imc().registerStats(reg, "imc");
        cpuCache_->registerStats(reg, "cpu");
        driver_->registerStats(reg, "nvdc");

        // Flat aliases predating the hierarchical names; sweep scripts
        // and the snapshot tests key on these.
        const auto& cache_stats = driver_->cache().stats();
        reg.addCounter("cache.hits", cache_stats.hits);
        reg.addCounter("cache.misses", cache_stats.misses);
        reg.add("cache.hit_rate",
                [this] { return driver_->cache().stats().hitRate(); });

        if (ch.nvmc()) {
            ch.nvmc()->registerStats(reg, "nvmc");
            const auto& fw = ch.nvmc()->firmware().stats();
            reg.addCounter("fw.cp_polls", fw.cpPolls);
            reg.addCounter("fw.commands", fw.commandsAccepted);
            reg.addCounter("fw.acks", fw.acksWritten);
            reg.add("fw.op_latency_mean_us", [this] {
                return channels_[0]
                           ->nvmc()
                           ->firmware()
                           .stats()
                           .opLatency.mean() /
                       1e6;
            });
        }
        if (ch.ftl()) {
            ch.ftl()->registerStats(reg, "ftl");
            ch.znand()->registerStats(reg, "znand");
        }
        return;
    }

    // Multi-channel: per-channel hardware under ch<i>.*, aggregates
    // under the legacy un-prefixed names so sweep tooling keeps
    // working across channel counts.
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        std::string p = "ch" + std::to_string(i) + ".";
        ch.dram().registerStats(reg, p + "dram");
        ch.bus().registerStats(reg, p + "bus");
        ch.imc().registerStats(reg, p + "imc");
    }
    reg.add("dram.refreshes", [this] {
        double v = 0;
        for (const auto& ch : channels_)
            v += static_cast<double>(
                ch->dram().stats().refreshes.value());
        return v;
    });
    // Worst-case host stall: the acceptance metric for refresh
    // staggering is the *max* across channels, not the mean.
    reg.add("imc.refresh.overhead_pct", [this] {
        Tick now = eq_.now();
        if (now == 0)
            return 0.0;
        double worst = 0;
        for (const auto& ch : channels_) {
            double pct =
                100.0 *
                static_cast<double>(
                    ch->imc().stats().refreshBlockedTicks.value()) /
                static_cast<double>(now);
            if (pct > worst)
                worst = pct;
        }
        return worst;
    });

    cpuCache_->registerStats(reg, "cpu");
    driver_->registerStats(reg, "nvdc");

    reg.add("cache.hits", [this] {
        double v = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c)
            v += static_cast<double>(
                driver_->cache(c).stats().hits.value());
        return v;
    });
    reg.add("cache.misses", [this] {
        double v = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c)
            v += static_cast<double>(
                driver_->cache(c).stats().misses.value());
        return v;
    });
    reg.add("cache.hit_rate", [this] {
        double hits = 0, misses = 0;
        for (std::uint32_t c = 0; c < driver_->channelCount(); ++c) {
            hits += static_cast<double>(
                driver_->cache(c).stats().hits.value());
            misses += static_cast<double>(
                driver_->cache(c).stats().misses.value());
        }
        double total = hits + misses;
        return total == 0 ? 0.0 : hits / total;
    });

    bool any_nvmc = false;
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        if (!ch.nvmc())
            continue;
        any_nvmc = true;
        ch.nvmc()->registerStats(reg,
                                 "ch" + std::to_string(i) + ".nvmc");
    }
    if (any_nvmc) {
        reg.add("nvmc.dma.bytes_moved", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(
                        ch->nvmc()->dma().stats().bytesMoved.value());
            return v;
        });
        reg.add("nvmc.window.utilization_pct", [this] {
            double used = 0, open = 0;
            for (const auto& ch : channels_) {
                if (!ch->nvmc())
                    continue;
                used += static_cast<double>(
                    ch->nvmc()->dma().stats().busyTicks.value());
                open += static_cast<double>(
                    ch->nvmc()->windowTicksGranted());
            }
            return open == 0 ? 0.0 : 100.0 * used / open;
        });
        reg.add("fw.cp_polls", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(
                        ch->nvmc()->firmware().stats().cpPolls.value());
            return v;
        });
        reg.add("fw.commands", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(ch->nvmc()
                                                 ->firmware()
                                                 .stats()
                                                 .commandsAccepted
                                                 .value());
            return v;
        });
        reg.add("fw.acks", [this] {
            double v = 0;
            for (const auto& ch : channels_)
                if (ch->nvmc())
                    v += static_cast<double>(ch->nvmc()
                                                 ->firmware()
                                                 .stats()
                                                 .acksWritten.value());
            return v;
        });
        reg.add("fw.op_latency_mean_us", [this] {
            double sum = 0;
            std::uint64_t count = 0;
            for (const auto& ch : channels_) {
                if (!ch->nvmc())
                    continue;
                const auto& h = ch->nvmc()->firmware().stats().opLatency;
                sum += h.mean() * static_cast<double>(h.count());
                count += h.count();
            }
            return count == 0 ? 0.0
                              : sum / static_cast<double>(count) / 1e6;
        });
    }
    for (std::uint32_t i = 0; i < channels_.size(); ++i) {
        const Channel& ch = *channels_[i];
        if (!ch.ftl())
            continue;
        std::string p = "ch" + std::to_string(i) + ".";
        ch.ftl()->registerStats(reg, p + "ftl");
        ch.znand()->registerStats(reg, p + "znand");
    }
}

void
NvdimmcSystem::dumpStats(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dump(os);
}

void
NvdimmcSystem::dumpStatsJson(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dumpJson(os);
}

bool
NvdimmcSystem::hardwareClean() const
{
    for (const auto& ch : channels_) {
        if (ch->bus().conflictCount() != 0 ||
            ch->dram().stats().violations.value() != 0)
            return false;
    }
    return true;
}

BaselineSystem::BaselineSystem(const BaselineConfig& cfg) : cfg_(cfg)
{
    NVDC_ASSERT(cfg_.channels >= 1, "system needs at least one channel");
    NVDC_ASSERT(cfg_.interleaveGranule ==
                        dram::ChannelInterleave::kPageGranule ||
                    cfg_.interleaveGranule ==
                        dram::ChannelInterleave::kLineGranule,
                "baseline interleave granule must be 4096 or 256");
    // At threads >= 1 every channel's DRAM, bus and iMC simulate on
    // their own event queue (shard); the CPU-side components stay on
    // eq_. With no device transport the host link is the only
    // cross-shard path, so its latency is the quantum bound.
    coord_ = buildKernel(
        eq_, cfg_, std::max<Tick>(cfg_.hostLinkLatency, 1), shardQueues_,
        [&](const std::vector<EventQueue*>& qs) -> imc::HostPort& {
            for (std::uint32_t i = 0; i < cfg_.channels; ++i) {
                maps_.push_back(std::make_unique<dram::AddressMap>(
                    cfg.capacityBytes));
                drams_.push_back(std::make_unique<dram::DramDevice>(
                    *maps_.back(), cfg.dramTiming, cfg.storeData, false));
                buses_.push_back(std::make_unique<bus::MemoryBus>(
                    *qs[i], *drams_.back(), false));

                imc::ImcConfig imc_cfg = cfg.imc;
                imc_cfg.refresh = cfg.refresh;
                if (cfg_.channels > 1)
                    imc_cfg.name = "ch" + std::to_string(i) + ".imc";
                imcs_.push_back(std::make_unique<imc::Imc>(
                    *qs[i], *buses_.back(), imc_cfg));
            }
            std::vector<imc::Imc*> imcs;
            for (auto& i : imcs_)
                imcs.push_back(i.get());
            hostPort_ = std::make_unique<imc::HostPort>(
                std::move(imcs), dram::ChannelInterleave(
                                     cfg_.channels, cfg_.interleaveGranule));
            return *hostPort_;
        });

    cpuCache_ = std::make_unique<cpu::CpuCacheModel>(eq_, *hostPort_,
                                                     cfg.cpuCache);
    engine_ = std::make_unique<cpu::MemcpyEngine>(
        eq_, *hostPort_, cpuCache_.get(), cfg.memcpy);
    driver_ = std::make_unique<driver::PmemDriver>(
        eq_, *engine_, cfg.capacityBytes * cfg_.channels, cfg.pmem);

    if (telemetry::enabled()) {
        const Tick interval =
            cfg_.telemetryIntervalTicks
                ? cfg_.telemetryIntervalTicks
                : telemetry::defaultInterval(cfg_.refresh.tREFI);
        telemetry_ =
            std::make_unique<telemetry::Collector>(eq_, interval);
        registerTelemetry(*telemetry_);
        telemetry_->start();
    }
}

void
BaselineSystem::registerTelemetry(telemetry::Collector& t)
{
    t.addGauge("imc.read_queue_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& i : imcs_)
            d += i->readQueueDepth();
        return d;
    });
    t.addGauge("imc.wpq_depth", [this] {
        std::uint64_t d = 0;
        for (const auto& i : imcs_)
            d += i->wpqDepth();
        return d;
    });
    t.addGauge("host_link.credits_in_use", [this] {
        return static_cast<std::uint64_t>(
            hostPort_->linkCreditsInUse());
    });
    t.addDelta("dram.refreshes", [this] {
        std::uint64_t v = 0;
        for (const auto& d : drams_)
            v += d->refreshCount();
        return v;
    });
    t.addDelta("pmem.read_ops", [this] {
        return driver_->stats().readOps.value();
    });
    t.addDelta("pmem.write_ops", [this] {
        return driver_->stats().writeOps.value();
    });
}

void
BaselineSystem::registerStats(StatRegistry& reg) const
{
    if (coord_) {
        // Metadata only (JSON "_meta"): the text dump stays
        // byte-identical for every threads >= 1.
        reg.setMeta("threads", coord_->executors());
        reg.setMeta("shards",
                    static_cast<double>(coord_->shardCount()));
        reg.setMeta("executors", coord_->executors());
        reg.setMeta("quantum_ticks",
                    static_cast<double>(coord_->quantum()));
    }

    if (imcs_.size() == 1) {
        drams_[0]->registerStats(reg, "dram");
        buses_[0]->registerStats(reg, "bus");
        imcs_[0]->registerStats(reg, "imc");
    } else {
        for (std::uint32_t i = 0; i < imcs_.size(); ++i) {
            std::string p = "ch" + std::to_string(i) + ".";
            drams_[i]->registerStats(reg, p + "dram");
            buses_[i]->registerStats(reg, p + "bus");
            imcs_[i]->registerStats(reg, p + "imc");
        }
        reg.add("dram.refreshes", [this] {
            double v = 0;
            for (const auto& d : drams_)
                v += static_cast<double>(d->stats().refreshes.value());
            return v;
        });
    }

    cpuCache_->registerStats(reg, "cpu");
    const auto& st = driver_->stats();
    reg.addCounter("pmem.read_ops", st.readOps);
    reg.addCounter("pmem.write_ops", st.writeOps);
    reg.add("pmem.op_latency_mean_us",
            [this] { return driver_->stats().latency.mean() / 1e6; });
}

void
BaselineSystem::dumpStats(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dump(os);
}

void
BaselineSystem::dumpStatsJson(std::ostream& os) const
{
    StatRegistry reg;
    registerStats(reg);
    reg.dumpJson(os);
}

} // namespace nvdimmc::core
