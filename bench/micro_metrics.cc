/**
 * @file
 * Metrics-subsystem microbenchmarks (google-benchmark): the cost of
 * stat increments, registry lookups, sampler snapshots, profiled
 * versus unprofiled event dispatch, and the exporters. These bound
 * the observability overhead a run pays when sampling or profiling
 * is enabled.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <sstream>
#include <vector>

#include "metrics/export.hh"
#include "sim/logging.hh"
#include "metrics/profiler.hh"
#include "metrics/sampler.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace genie
{
namespace
{

/** A registry with @p groups groups of @p statsPer scalars each. */
struct Fixture
{
    StatRegistry registry;
    std::vector<std::unique_ptr<StatGroup>> groups;
    std::vector<Stat *> stats;

    Fixture(std::size_t numGroups, std::size_t statsPer)
    {
        for (std::size_t g = 0; g < numGroups; ++g) {
            auto group = std::make_unique<StatGroup>(
                format("sys.comp%zu", g));
            for (std::size_t s = 0; s < statsPer; ++s) {
                stats.push_back(&group->add(format("stat%zu", s),
                                            "bench counter"));
            }
            registry.registerGroup(*group);
            groups.push_back(std::move(group));
        }
    }
};

void
BM_StatIncrement(benchmark::State &state)
{
    Fixture f(1, 1);
    Stat &s = *f.stats[0];
    for (auto _ : state) {
        ++s;
        benchmark::DoNotOptimize(s.value());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatIncrement);

void
BM_RegistryLookup(benchmark::State &state)
{
    Fixture f(16, 8);
    for (auto _ : state) {
        const Stat *s = f.registry.lookup("sys.comp7.stat3");
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookup);

void
BM_SamplerSnapshot(benchmark::State &state)
{
    const auto series = static_cast<std::size_t>(state.range(0));
    EventQueue eq;
    Fixture f(series, 1);
    MetricsSampler::Params p;
    p.period = 10;
    p.capacity = 1u << 20;
    MetricsSampler sampler(eq, f.registry, p);
    sampler.trackAllScalars();

    // Drive the sampler through its own event path: one sim event per
    // iteration keeps the queue non-empty so the sampler keeps
    // rescheduling itself.
    sampler.start();
    std::size_t fired = 0;
    for (auto _ : state) {
        eq.schedule(eq.curTick() + 10, [&fired] { ++fired; },
                    "bench.keepalive");
        eq.step();
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SamplerSnapshot)->Arg(8)->Arg(64);

void
BM_EventDispatchUnprofiled(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.curTick() + 1, [&sink] { ++sink; },
                    "bench.event");
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventDispatchUnprofiled);

void
BM_EventDispatchProfiled(benchmark::State &state)
{
    EventQueue eq;
    HostProfiler profiler;
    eq.setProfiler(&profiler);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.schedule(eq.curTick() + 1, [&sink] { ++sink; },
                    "bench.event");
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventDispatchProfiled);

void
BM_ExportStatsJson(benchmark::State &state)
{
    Fixture f(16, 8);
    for (auto _ : state) {
        std::ostringstream os;
        writeStatsJson(os, f.registry);
        benchmark::DoNotOptimize(os.str().size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExportStatsJson);

void
BM_ExportSamplesCsv(benchmark::State &state)
{
    EventQueue eq;
    Fixture f(8, 1);
    MetricsSampler::Params p;
    p.period = 1;
    p.capacity = 1024;
    MetricsSampler sampler(eq, f.registry, p);
    sampler.trackAllScalars();
    sampler.start();
    for (std::size_t i = 0; i < 1024; ++i)
        eq.schedule(eq.curTick() + 1, [] {}, "bench.keepalive");
    eq.run();

    for (auto _ : state) {
        std::ostringstream os;
        writeSamplesCsv(os, sampler);
        benchmark::DoNotOptimize(os.str().size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExportSamplesCsv);

} // namespace
} // namespace genie

BENCHMARK_MAIN();
