/**
 * @file
 * Simulator-core microbenchmarks (google-benchmark): event-queue
 * throughput, interval-set algebra, cache access rate, DDDG
 * construction, and end-to-end simulation rate. These guard the
 * sweep throughput the DSE figures depend on.
 */

#include <benchmark/benchmark.h>

#include "accel/dddg.hh"
#include "core/soc.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "sim/interval_set.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < n; ++i)
            eq.schedule(i * 10, [&sink, i] { sink += i; }, "bench.event");
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void
BM_EventQueueSelfRescheduling(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        std::uint64_t count = 0;
        std::function<void()> tick = [&] {
            if (++count < 100000)
                eq.schedule(eq.curTick() + 10, tick, "bench.tick");
        };
        eq.schedule(10, tick, "bench.tick");
        eq.run();
        benchmark::DoNotOptimize(count);
    }
    state.SetItemsProcessed(100000 * state.iterations());
}
BENCHMARK(BM_EventQueueSelfRescheduling);

void
BM_IntervalSetAlgebra(benchmark::State &state)
{
    IntervalSet a, b;
    for (Tick i = 0; i < 10000; ++i) {
        a.add(i * 30, i * 30 + 20);
        b.add(i * 30 + 10, i * 30 + 25);
    }
    for (auto _ : state) {
        auto u = a.unionWith(b);
        auto x = a.intersectWith(b);
        auto d = a.subtract(b);
        benchmark::DoNotOptimize(u.measure() + x.measure() +
                                 d.measure());
    }
}
BENCHMARK(BM_IntervalSetAlgebra);

void
BM_CacheHitStream(benchmark::State &state)
{
    EventQueue eq;
    SystemBus::Params bp;
    SystemBus bus("bus", eq, ClockDomain(10000), bp);
    DramCtrl dram("dram", eq, ClockDomain(10000), bus, {});
    bus.setTarget(&dram);
    Cache::Params cp;
    cp.ports = 8;
    Cache cache("cache", eq, ClockDomain(10000), bus, cp);
    std::size_t done = 0;
    cache.setCallback([&](std::uint64_t, bool) { ++done; });
    // Warm one line.
    cache.access(0, 4, false, 0, 0);
    eq.run();

    std::uint64_t id = 1;
    for (auto _ : state) {
        cache.access(0, 4, false, id++, 0);
        eq.run();
    }
    benchmark::DoNotOptimize(done);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitStream);

void
BM_DddgConstruction(benchmark::State &state)
{
    auto out = makeWorkload("gemm-ncubed")->build();
    for (auto _ : state) {
        Dddg dddg(out.trace);
        benchmark::DoNotOptimize(dddg.numEdges());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(out.trace.ops.size()) *
        state.iterations());
}
BENCHMARK(BM_DddgConstruction);

void
BM_TraceGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        auto out = makeWorkload("stencil-stencil2d")->build();
        benchmark::DoNotOptimize(out.checksum);
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_FullSocSimulation_Dma(benchmark::State &state)
{
    auto out = makeWorkload("spmv-crs")->build();
    Dddg dddg(out.trace);
    SocConfig cfg;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.dma.triggeredCompute = true;
    for (auto _ : state) {
        SocResults r = runDesign(cfg, out.trace, dddg);
        benchmark::DoNotOptimize(r.totalTicks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(out.trace.ops.size()) *
        state.iterations());
}
BENCHMARK(BM_FullSocSimulation_Dma);

void
BM_FullSocSimulation_Cache(benchmark::State &state)
{
    auto out = makeWorkload("spmv-crs")->build();
    Dddg dddg(out.trace);
    SocConfig cfg;
    cfg.memType = MemInterface::Cache;
    cfg.lanes = 4;
    for (auto _ : state) {
        SocResults r = runDesign(cfg, out.trace, dddg);
        benchmark::DoNotOptimize(r.totalTicks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(out.trace.ops.size()) *
        state.iterations());
}
BENCHMARK(BM_FullSocSimulation_Cache);

} // namespace
} // namespace genie

BENCHMARK_MAIN();
