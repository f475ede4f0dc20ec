#include "multi_soc.hh"

#include "core/validation.hh"
#include "sim/logging.hh"

namespace genie
{

/** One accelerator's private slice of the system. */
struct MultiSoc::Complex
{
    const Trace *trace = nullptr;
    const Dddg *dddg = nullptr;
    SocConfig design;

    std::unique_ptr<Scratchpad> spad;
    std::unique_ptr<FullEmptyBits> feBits;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<AladdinTlb> tlb;
    std::unique_ptr<Datapath> datapath;

    std::vector<Addr> arrayDramBase;
    std::vector<Addr> arrayVBase;
    std::vector<int> spadIds;
    std::vector<int> feIds;

    bool inputDone = false;
    bool finished = false;
    Tick finishTick = 0;
};

MultiSoc::MultiSoc(SocConfig platformCfg,
                   std::vector<AcceleratorSpec> specs_)
    : platform(std::move(platformCfg)), specs(std::move(specs_))
{
    if (specs.empty())
        fatal("MultiSoc needs at least one accelerator");
    validateSocConfig(platform);
    for (const auto &spec : specs)
        validateSocConfig(spec.design);

    eventq.setStatRegistry(&registry);
    if (platform.tracing.enabled) {
        eventTracer = std::make_unique<Tracer>(
            eventq, platform.tracing.categories);
        eventq.setTracer(eventTracer.get());
    }

    auto busClock = ClockDomain::fromMhz(platform.busMhz);
    auto accelClock = ClockDomain::fromMhz(platform.accelMhz);

    SystemBus::Params busParams;
    busParams.widthBits = platform.busWidthBits;
    systemBus = std::make_unique<SystemBus>("system.bus", eventq,
                                            busClock, busParams);
    dramCtrl = std::make_unique<DramCtrl>("system.dram", eventq,
                                          busClock, *systemBus,
                                          DramCtrl::Params{});
    systemBus->setTarget(dramCtrl.get());

    FlushEngine::Params fp;
    fp.flushPerLine = platform.flushPerLine;
    fp.invalidatePerLine = platform.invalidatePerLine;
    fp.lineBytes = platform.cpuLineBytes;
    flush = std::make_unique<FlushEngine>("cpu.flush", eventq, fp);

    DmaEngine::Params dp;
    dp.beatBytes = platform.cpuLineBytes;
    dma = std::make_unique<DmaEngine>("system.dma", eventq,
                                      accelClock, *systemBus, dp);

    for (std::size_t i = 0; i < specs.size(); ++i)
        buildComplex(i);
}

MultiSoc::~MultiSoc() = default;

void
MultiSoc::buildComplex(std::size_t index)
{
    const AcceleratorSpec &spec = specs[index];
    GENIE_ASSERT(spec.trace != nullptr && spec.dddg != nullptr,
                 "accelerator %zu has no trace", index);

    auto cx = std::make_unique<Complex>();
    cx->trace = spec.trace;
    cx->dddg = spec.dddg;
    cx->design = spec.design;

    auto accelClock = ClockDomain::fromMhz(platform.accelMhz);
    std::string prefix = format("accel%zu", index);

    // Address layout: each accelerator gets a disjoint 256 MB slice.
    Addr dramBase = 0x40000000 + static_cast<Addr>(index) * 0x10000000;
    Addr nextDram = dramBase;
    Addr nextV = 0;
    for (const auto &a : cx->trace->arrays) {
        cx->arrayDramBase.push_back(nextDram);
        cx->arrayVBase.push_back(nextV);
        Addr span = alignUp(a.sizeBytes, 4096);
        nextDram += span;
        nextV += span;
    }

    Datapath::Params dpp;
    dpp.lanes = cx->design.lanes;
    auto mode = cx->design.memType == MemInterface::ScratchpadDma
                    ? Datapath::MemMode::ScratchpadDma
                    : Datapath::MemMode::Cache;
    cx->datapath = std::make_unique<Datapath>(
        prefix + ".datapath", eventq, accelClock, *cx->trace,
        *cx->dddg, dpp, mode);

    if (cx->design.memType == MemInterface::ScratchpadDma) {
        cx->spad = std::make_unique<Scratchpad>(prefix + ".spad",
                                                eventq, accelClock);
        cx->feBits = std::make_unique<FullEmptyBits>(
            prefix + ".readyBits", platform.cpuLineBytes);
        registry.registerGroup(cx->feBits->stats());
        for (const auto &a : cx->trace->arrays) {
            Scratchpad::ArrayConfig sc;
            sc.name = a.name;
            sc.sizeBytes = a.sizeBytes;
            sc.wordBytes = a.wordBytes;
            sc.partitions = effectiveSpadPartitions(
                a.sizeBytes, a.wordBytes,
                cx->design.spadPartitions);
            cx->spadIds.push_back(cx->spad->addArray(sc));
            int feId = cx->feBits->addArray(a.sizeBytes);
            bool tracked =
                cx->design.dma.triggeredCompute && a.isInput;
            cx->feIds.push_back(tracked ? feId : -1);
            if (!tracked)
                cx->feBits->fill(feId, 0, a.sizeBytes);
        }
        cx->datapath->attachScratchpad(cx->spad.get(), cx->spadIds,
                                       cx->feBits.get(), cx->feIds);
    } else {
        Cache::Params cp;
        cp.sizeBytes = cx->design.cache.sizeBytes;
        cp.lineBytes = cx->design.cache.lineBytes;
        cp.assoc = cx->design.cache.assoc;
        cp.ports = cx->design.cache.ports;
        cp.mshrs = cx->design.cache.mshrs;
        cp.prefetchEnabled = cx->design.cache.prefetch;
        cx->cache = std::make_unique<Cache>(prefix + ".cache", eventq,
                                            accelClock, *systemBus,
                                            cp);
        AladdinTlb::Params tp;
        tp.entries = cx->design.tlbEntries;
        tp.missLatency = cx->design.tlbMissLatency;
        tp.physBase = 0x10000000 + static_cast<Addr>(index) *
                                       0x08000000;
        cx->tlb = std::make_unique<AladdinTlb>(prefix + ".tlb",
                                               eventq, accelClock,
                                               tp);
        cx->spadIds.assign(cx->trace->arrays.size(), -1);
        cx->datapath->attachCache(cx->cache.get(), cx->tlb.get(),
                                  cx->arrayVBase, nullptr,
                                  cx->spadIds);
    }

    complexes.push_back(std::move(cx));
}

void
MultiSoc::startComplex(std::size_t index)
{
    Complex &cx = *complexes[index];
    if (cx.design.memType == MemInterface::Cache) {
        cx.datapath->start(
            [this, index] { onComplexDatapathDone(index); });
        return;
    }

    // DMA flow: flush this accelerator's inputs (the shared CPU
    // serializes flushes across accelerators), then one transaction
    // per input array through the shared DMA engine.
    std::uint64_t inBytes = cx.trace->totalInputBytes();
    auto kickDma = [this, index] {
        Complex &c = *complexes[index];
        std::vector<DmaEngine::Segment> segs;
        for (std::size_t i = 0; i < c.trace->arrays.size(); ++i) {
            const auto &a = c.trace->arrays[i];
            if (!a.isInput)
                continue;
            segs.push_back({static_cast<int>(i), c.arrayDramBase[i],
                            0, a.sizeBytes});
        }
        dma->startTransaction(
            DmaEngine::Direction::MemToAccel, std::move(segs),
            [this, index](int arrayId, Addr off, unsigned len) {
                complexes[index]->feBits->fill(arrayId, off, len);
            },
            [this, index](bool ok) {
                if (!ok)
                    fatal("complex %zu input DMA failed permanently "
                          "(fault retry budget exhausted)",
                          index);
                onComplexInputDone(index);
            });
    };
    if (inBytes == 0) {
        eventq.schedule(
            eventq.curTick(), [this, index] { onComplexInputDone(index); },
            "soc.inputDone");
    } else {
        flush->startFlush(inBytes, inBytes, nullptr, kickDma);
    }
    if (cx.design.dma.triggeredCompute) {
        cx.datapath->start(
            [this, index] { onComplexDatapathDone(index); });
    }
}

void
MultiSoc::onComplexInputDone(std::size_t index)
{
    Complex &cx = *complexes[index];
    cx.inputDone = true;
    if (!cx.design.dma.triggeredCompute && !cx.datapath->running()) {
        cx.datapath->start(
            [this, index] { onComplexDatapathDone(index); });
    }
}

void
MultiSoc::onComplexDatapathDone(std::size_t index)
{
    Complex &cx = *complexes[index];
    if (cx.design.memType == MemInterface::ScratchpadDma &&
        cx.trace->totalOutputBytes() > 0) {
        std::vector<DmaEngine::Segment> segs;
        for (std::size_t i = 0; i < cx.trace->arrays.size(); ++i) {
            const auto &a = cx.trace->arrays[i];
            if (!a.isOutput)
                continue;
            segs.push_back({static_cast<int>(i),
                            cx.arrayDramBase[i], 0, a.sizeBytes});
        }
        dma->startTransaction(DmaEngine::Direction::AccelToMem,
                              std::move(segs), nullptr,
                              [this, index](bool ok) {
                                  if (!ok)
                                      fatal("complex %zu output DMA "
                                            "failed permanently",
                                            index);
                                  finishComplex(index);
                              });
        return;
    }
    finishComplex(index);
}

void
MultiSoc::finishComplex(std::size_t index)
{
    Complex &cx = *complexes[index];
    GENIE_ASSERT(!cx.finished, "accelerator %zu finished twice",
                 index);
    cx.finished = true;
    cx.finishTick = eventq.curTick();
    GENIE_ASSERT(remaining > 0, "finish with none remaining");
    --remaining;
}

MultiSocResults
MultiSoc::run()
{
    GENIE_ASSERT(!ran, "MultiSoc::run() is one-shot");
    ran = true;
    remaining = complexes.size();
    for (std::size_t i = 0; i < complexes.size(); ++i)
        startComplex(i);
    eventq.run();
    GENIE_ASSERT(remaining == 0,
                 "multi-accelerator flow did not finish");

    if (eventTracer && !platform.tracing.outPath.empty())
        eventTracer->writeChromeJsonFile(platform.tracing.outPath);

    MultiSocResults r;
    for (const auto &cx : complexes) {
        AcceleratorResult ar;
        ar.finishTick = cx->finishTick;
        ar.accelCycles = cx->datapath->executedCycles();
        r.accelerators.push_back(ar);
        r.totalTicks = std::max(r.totalTicks, cx->finishTick);
    }
    r.busUtilization =
        r.totalTicks > 0
            ? static_cast<double>(systemBus->busyTicks()) /
                  static_cast<double>(r.totalTicks)
            : 0.0;
    return r;
}

} // namespace genie
