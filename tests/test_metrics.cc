/**
 * @file
 * Genie-Metrics tests: the StatRegistry (path uniqueness, dotted
 * lookup, deterministic visitation), Distribution bucket triples and
 * bin-estimated percentiles, the MetricsSampler (period correctness,
 * ring truncation, drain safety), the JSON/CSV exporters against
 * golden strings, the HostProfiler's attribution invariants, and the
 * headline observability guarantee: sampling and profiling never
 * change simulated results.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "metrics/export.hh"
#include "metrics/profiler.hh"
#include "metrics/sampler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

// ---------------------------------------------------------------------
// StatRegistry
// ---------------------------------------------------------------------

TEST(Registry, LookupResolvesDottedPaths)
{
    StatRegistry reg;
    StatGroup a("sys.a");
    Stat &x = a.add("x", "counter x");
    a.add("y", "counter y");
    StatGroup b("sys.b");
    b.add("x", "another x");
    reg.registerGroup(a);
    reg.registerGroup(b);

    EXPECT_EQ(reg.numGroups(), 2u);
    EXPECT_EQ(reg.findGroup("sys.a"), &a);
    EXPECT_EQ(reg.findGroup("sys.c"), nullptr);

    x += 7;
    EXPECT_EQ(reg.lookup("sys.a.x"), &x);
    EXPECT_DOUBLE_EQ(reg.get("sys.a.x"), 7.0);
    EXPECT_DOUBLE_EQ(reg.get("sys.b.x"), 0.0);

    // Unknown group, unknown stat, and an undotted path all miss.
    EXPECT_EQ(reg.lookup("sys.c.x"), nullptr);
    EXPECT_EQ(reg.lookup("sys.a.z"), nullptr);
    EXPECT_EQ(reg.lookup("nodots"), nullptr);
    EXPECT_DOUBLE_EQ(reg.get("sys.c.x"), 0.0);
}

TEST(Registry, LookupDistribution)
{
    StatRegistry reg;
    StatGroup g("sys.mem");
    Distribution &d =
        g.addDistribution("latency", "access latency", 0, 100, 10);
    reg.registerGroup(g);

    EXPECT_EQ(reg.lookupDistribution("sys.mem.latency"), &d);
    EXPECT_EQ(reg.lookupDistribution("sys.mem.nope"), nullptr);
    // A distribution path does not resolve as a scalar.
    EXPECT_EQ(reg.lookup("sys.mem.latency"), nullptr);
}

TEST(Registry, ScalarPathsFollowRegistrationOrder)
{
    StatRegistry reg;
    StatGroup b("b");
    b.add("two", "");
    StatGroup a("a");
    a.add("one", "");
    a.add("three", "");
    reg.registerGroup(b); // registration order, not alphabetical
    reg.registerGroup(a);

    const std::vector<std::string> expect = {"b.two", "a.one",
                                             "a.three"};
    EXPECT_EQ(reg.scalarPaths(), expect);
}

TEST(Registry, VisitWalksGroupsInOrder)
{
    struct Collector : StatVisitor
    {
        std::vector<std::string> log;
        void beginGroup(const StatGroup &g) override
        {
            log.push_back("begin " + g.prefix());
        }
        void endGroup(const StatGroup &g) override
        {
            log.push_back("end " + g.prefix());
        }
        void scalar(const StatGroup &, const Stat &s) override
        {
            log.push_back(s.name());
        }
        void distribution(const StatGroup &,
                          const Distribution &d) override
        {
            log.push_back(d.name());
        }
    };

    StatRegistry reg;
    StatGroup g("g");
    g.add("s", "");
    g.addDistribution("d", "", 0, 10, 2);
    reg.registerGroup(g);

    Collector c;
    reg.visit(c);
    const std::vector<std::string> expect = {"begin g", "g.s", "g.d",
                                             "end g"};
    EXPECT_EQ(c.log, expect);
}

TEST(RegistryDeathTest, DuplicateGroupPathPanics)
{
    StatRegistry reg;
    StatGroup g1("accel.cache");
    StatGroup g2("accel.cache");
    reg.registerGroup(g1);
    EXPECT_DEATH(reg.registerGroup(g2), "duplicate stat group path");
}

// ---------------------------------------------------------------------
// Distribution buckets and percentiles
// ---------------------------------------------------------------------

TEST(Distribution, BucketsReturnLoHiCountTriples)
{
    Distribution d("lat", "latency", 0, 100, 10);
    d.sample(5);
    d.sample(15);
    d.sample(15);
    d.sample(250); // overflow
    d.sample(-3);  // underflow

    auto buckets = d.buckets();
    ASSERT_EQ(buckets.size(), 10u);
    EXPECT_DOUBLE_EQ(buckets[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(buckets[0].hi, 10.0);
    EXPECT_EQ(buckets[0].count, 1u);
    EXPECT_DOUBLE_EQ(buckets[1].lo, 10.0);
    EXPECT_DOUBLE_EQ(buckets[1].hi, 20.0);
    EXPECT_EQ(buckets[1].count, 2u);
    for (std::size_t i = 2; i < 10; ++i)
        EXPECT_EQ(buckets[i].count, 0u);

    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.count(), 5u);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), 250.0);
}

TEST(Distribution, PercentileEstimatesFromBins)
{
    Distribution d("lat", "latency", 0, 1000, 100);
    for (int i = 0; i < 1000; ++i)
        d.sample(i);

    // Uniform mass: the bin-interpolated estimate tracks the true
    // quantile to within one bucket width (10).
    EXPECT_NEAR(d.p50(), 500.0, 10.0);
    EXPECT_NEAR(d.p95(), 950.0, 10.0);
    EXPECT_NEAR(d.p99(), 990.0, 10.0);

    // Estimates always land inside the observed range.
    EXPECT_GE(d.percentile(0.0), d.min());
    EXPECT_LE(d.percentile(1.0), d.max());
}

TEST(Distribution, PercentileOnEmptyIsZero)
{
    Distribution d("lat", "latency", 0, 10, 2);
    EXPECT_DOUBLE_EQ(d.p50(), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 0.0);
}

// ---------------------------------------------------------------------
// MetricsSampler
// ---------------------------------------------------------------------

/** One group with one scalar named "g.a", pre-registered. */
struct SamplerRig
{
    EventQueue eq;
    StatRegistry reg;
    StatGroup group{"g"};
    Stat &a;

    SamplerRig() : a(group.add("a", "counter"))
    {
        reg.registerGroup(group);
    }
};

TEST(Sampler, SnapshotsEveryPeriodWithCurrentValues)
{
    SamplerRig rig;
    MetricsSampler::Params p;
    p.period = 10;
    MetricsSampler sampler(rig.eq, rig.reg, p);
    sampler.track("g.a");
    sampler.start();

    // Increments at ticks 5, 15, 25 interleave with samples at
    // 10, 20, 30.
    for (Tick t : {Tick(5), Tick(15), Tick(25)})
        rig.eq.schedule(t, [&rig] { ++rig.a; }, "test.event");
    rig.eq.run();

    ASSERT_EQ(sampler.numSamples(), 3u);
    EXPECT_EQ(sampler.ticks(), (std::deque<Tick>{10, 20, 30}));
    EXPECT_EQ(sampler.values(0), (std::deque<double>{1, 2, 3}));
    EXPECT_EQ(sampler.samplesTaken(), 3u);
    EXPECT_EQ(sampler.droppedSamples(), 0u);

    // The sampler stopped rescheduling once it was alone, so the
    // queue drains exactly like an unsampled run.
    EXPECT_TRUE(rig.eq.empty());
    rig.eq.checkDrained();
}

TEST(Sampler, RingKeepsOnlyTheMostRecentSnapshots)
{
    SamplerRig rig;
    MetricsSampler::Params p;
    p.period = 1;
    p.capacity = 3;
    MetricsSampler sampler(rig.eq, rig.reg, p);
    sampler.trackAllScalars();
    ASSERT_EQ(sampler.numSeries(), 1u);
    sampler.start();

    // Keepalive events at every tick keep the sampler rescheduling
    // through tick 10.
    for (Tick t = 1; t <= 10; ++t)
        rig.eq.schedule(t, [&rig] { ++rig.a; }, "test.event");
    rig.eq.run();

    EXPECT_EQ(sampler.samplesTaken(), 10u);
    EXPECT_EQ(sampler.numSamples(), 3u);
    EXPECT_EQ(sampler.droppedSamples(), 7u);
    // Oldest-first, most recent retained.
    EXPECT_EQ(sampler.ticks(), (std::deque<Tick>{8, 9, 10}));
    EXPECT_TRUE(rig.eq.empty());
}

TEST(Sampler, UnknownPathIsFatal)
{
    SamplerRig rig;
    MetricsSampler::Params p;
    p.period = 10;
    MetricsSampler sampler(rig.eq, rig.reg, p);
    EXPECT_THROW(sampler.track("no.such.stat"), FatalError);
}

TEST(Sampler, ZeroPeriodOrCapacityIsFatal)
{
    SamplerRig rig;
    MetricsSampler::Params zeroPeriod;
    zeroPeriod.period = 0;
    EXPECT_THROW(MetricsSampler(rig.eq, rig.reg, zeroPeriod),
                 FatalError);

    MetricsSampler::Params zeroCap;
    zeroCap.period = 10;
    zeroCap.capacity = 0;
    EXPECT_THROW(MetricsSampler(rig.eq, rig.reg, zeroCap), FatalError);
}

TEST(SamplerDeathTest, TrackAfterStartAsserts)
{
    SamplerRig rig;
    MetricsSampler::Params p;
    p.period = 10;
    MetricsSampler sampler(rig.eq, rig.reg, p);
    sampler.start();
    EXPECT_DEATH(sampler.track("g.a"), "track\\(\\) after start");
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST(Export, FormatStatNumber)
{
    EXPECT_EQ(formatStatNumber(0.0), "0");
    EXPECT_EQ(formatStatNumber(42.0), "42");
    EXPECT_EQ(formatStatNumber(-7.0), "-7");
    EXPECT_EQ(formatStatNumber(2.5), "2.5");
    EXPECT_EQ(formatStatNumber(0.125), "0.125");
}

TEST(Export, StatsJsonGolden)
{
    StatRegistry reg;
    StatGroup g("g");
    g.add("a", "alpha") = 3;
    g.add("b", "beta") = 2.5;
    reg.registerGroup(g);

    std::ostringstream os;
    writeStatsJson(os, reg);
    EXPECT_EQ(os.str(),
              "{\"schema\": \"genie-stats-1\",\n"
              "  \"stats\": {\n"
              "    \"g.a\": {\"value\": 3, \"desc\": \"alpha\"},\n"
              "    \"g.b\": {\"value\": 2.5, \"desc\": \"beta\"}\n"
              "  },\n"
              "  \"distributions\": {\n"
              "\n"
              "  }\n"
              "}\n");
}

TEST(Export, StatsCsvGolden)
{
    StatRegistry reg;
    StatGroup g("g");
    g.add("a", "alpha") = 3;
    g.add("b", "beta") = 2.5;
    reg.registerGroup(g);

    std::ostringstream os;
    writeStatsCsv(os, reg);
    EXPECT_EQ(os.str(), "stat,value\ng.a,3\ng.b,2.5\n");
}

TEST(Export, StatsExportersCoverDistributions)
{
    StatRegistry reg;
    StatGroup g("g");
    Distribution &d = g.addDistribution("lat", "latency", 0, 10, 2);
    d.sample(1);
    d.sample(12); // overflow
    reg.registerGroup(g);

    std::ostringstream json;
    writeStatsJson(json, reg);
    EXPECT_NE(json.str().find("\"g.lat\""), std::string::npos);
    EXPECT_NE(json.str().find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.str().find("\"overflow\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"buckets\": [[0, 5, 1]]"),
              std::string::npos);

    std::ostringstream csv;
    writeStatsCsv(csv, reg);
    EXPECT_NE(csv.str().find("g.lat::count,2\n"), std::string::npos);
    EXPECT_NE(csv.str().find("g.lat::overflow,1\n"),
              std::string::npos);
}

/** A sampler with two snapshots of "g.a": (tick 10, 1), (tick 20, 2). */
struct SampledRig : SamplerRig
{
    MetricsSampler sampler;

    SampledRig()
        : sampler(eq, reg,
                  MetricsSampler::Params{/*period=*/10,
                                         /*capacity=*/16})
    {
        sampler.track("g.a");
        sampler.start();
        eq.schedule(5, [this] { ++a; }, "test.event");
        eq.schedule(15, [this] { ++a; }, "test.event");
        eq.run();
    }
};

TEST(Export, SamplesJsonGolden)
{
    SampledRig rig;
    std::ostringstream os;
    writeSamplesJson(os, rig.sampler);
    EXPECT_EQ(os.str(),
              "{\"schema\": \"genie-samples-1\",\n"
              "  \"period_ticks\": 10,\n"
              "  \"samples\": 2,\n"
              "  \"taken\": 2,\n"
              "  \"dropped\": 0,\n"
              "  \"ticks\": [10, 20],\n"
              "  \"series\": {\n"
              "    \"g.a\": [1, 2]\n"
              "  }\n"
              "}\n");
}

TEST(Export, SamplesCsvGolden)
{
    SampledRig rig;
    std::ostringstream os;
    writeSamplesCsv(os, rig.sampler);
    EXPECT_EQ(os.str(), "tick,g.a\n10,1\n20,2\n");
}

TEST(Export, FileVariantsWriteFiles)
{
    SampledRig rig;
    const std::string dir = ::testing::TempDir();
    const std::string statsPath = dir + "genie_test.stats.json";
    const std::string samplesPath = dir + "genie_test.samples.csv";

    writeStatsJsonFile(statsPath, rig.reg);
    writeSamplesCsvFile(samplesPath, rig.sampler);

    std::ifstream stats(statsPath);
    ASSERT_TRUE(stats.good());
    std::ostringstream ss;
    ss << stats.rdbuf();
    EXPECT_NE(ss.str().find("genie-stats-1"), std::string::npos);

    std::ifstream samples(samplesPath);
    ASSERT_TRUE(samples.good());
    std::string header;
    std::getline(samples, header);
    EXPECT_EQ(header, "tick,g.a");

    EXPECT_THROW(writeStatsJsonFile("/nonexistent-dir/x.json", rig.reg),
                 FatalError);
}

// ---------------------------------------------------------------------
// HostProfiler
// ---------------------------------------------------------------------

TEST(Profiler, AttributionSumsToTotals)
{
    EventQueue eq;
    HostProfiler profiler;
    eq.setProfiler(&profiler);

    // A little real work per event so wall time is measurable even on
    // a coarse clock.
    volatile double sink = 0.0;
    auto burn = [&sink] {
        for (int i = 0; i < 20000; ++i)
            sink = sink + 1.0;
    };
    for (Tick t = 1; t <= 3; ++t)
        eq.schedule(t, burn, "kind.a");
    for (Tick t = 4; t <= 5; ++t)
        eq.schedule(t, burn, "kind.b");
    eq.schedule(6, burn, nullptr); // untagged
    eq.run();

    EXPECT_EQ(profiler.totalEvents(), 6u);
    ASSERT_EQ(profiler.byKind().size(), 3u);
    EXPECT_EQ(profiler.byKind().at("kind.a").events, 3u);
    EXPECT_EQ(profiler.byKind().at("kind.b").events, 2u);
    EXPECT_EQ(profiler.byKind().at("(untagged)").events, 1u);

    std::uint64_t sumEvents = 0, sumNs = 0;
    for (const auto &[kind, kp] : profiler.byKind()) {
        sumEvents += kp.events;
        sumNs += kp.wallNs;
    }
    EXPECT_EQ(sumEvents, profiler.totalEvents());
    EXPECT_EQ(sumNs, profiler.totalWallNs());

    EXPECT_GT(profiler.totalWallNs(), 0u);
    EXPECT_GT(profiler.eventsPerSecond(), 0.0);
    EXPECT_DOUBLE_EQ(profiler.meps(),
                     profiler.eventsPerSecond() / 1e6);

    // sorted() is a permutation of byKind(), heaviest first.
    auto sorted = profiler.sorted();
    ASSERT_EQ(sorted.size(), 3u);
    for (std::size_t i = 1; i < sorted.size(); ++i)
        EXPECT_GE(sorted[i - 1].second.wallNs,
                  sorted[i].second.wallNs);

    std::ostringstream os;
    profiler.report(os);
    EXPECT_NE(os.str().find("kind.a"), std::string::npos);
    EXPECT_NE(os.str().find("(untagged)"), std::string::npos);

    profiler.reset();
    EXPECT_EQ(profiler.totalEvents(), 0u);
    EXPECT_EQ(profiler.totalWallNs(), 0u);
    EXPECT_TRUE(profiler.byKind().empty());
    EXPECT_DOUBLE_EQ(profiler.eventsPerSecond(), 0.0);
}

TEST(Profiler, LatencyBucketsCoverEveryValueWithBoundedWidth)
{
    using H = LatencyHistogram;
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 200; ++v)
        values.push_back(v);
    for (unsigned e = 1; e < 64; ++e) {
        std::uint64_t pow = std::uint64_t{1} << e;
        values.insert(values.end(), {pow - 1, pow, pow + 1});
    }
    values.push_back(std::numeric_limits<std::uint64_t>::max());
    for (std::uint64_t v : values) {
        unsigned b = H::bucketOf(v);
        ASSERT_LT(b, H::numBuckets) << v;
        std::uint64_t lo = H::lowerEdge(b);
        EXPECT_LE(lo, v);
        // No sample overflows: v is within one bucket width of its
        // lower edge, at most lo / subBuckets (and exact below that).
        EXPECT_LE(v - lo, lo / H::subBuckets) << v;
        if (b + 1 < H::numBuckets) {
            EXPECT_GT(H::lowerEdge(b + 1), v) << v;
        }
    }
    EXPECT_EQ(H::bucketOf(std::numeric_limits<std::uint64_t>::max()),
              H::numBuckets - 1);
}

/** count * (1 - p) * quantile(p) <= sum, checked exactly for every
 * p = k / 1000, and no quantile above the observed max. */
void
expectQuantilesRespectTotal(const LatencyHistogram &h,
                            const std::string &name)
{
    for (unsigned k = 0; k <= 1000; ++k) {
        std::uint64_t q = h.quantile(k / 1000.0);
        unsigned __int128 claimed =
            static_cast<unsigned __int128>(h.count()) * (1000 - k) * q;
        unsigned __int128 total =
            static_cast<unsigned __int128>(h.sum()) * 1000;
        EXPECT_TRUE(claimed <= total)
            << name << ": p=" << k / 1000.0 << " q=" << q
            << " count=" << h.count() << " sum=" << h.sum();
        EXPECT_LE(q, h.max()) << name;
        if (k > 0) {
            EXPECT_GE(q, h.quantile((k - 1) / 1000.0)) << name;
        }
    }
}

TEST(Profiler, LatencyQuantilesRespectTheirTotal)
{
    // The linear-bin Distribution spread this set's overflow mass up
    // to its 50 ms max and reported p95 = 5.9 ms, but the sum allows
    // at most 0.109 ms.
    LatencyHistogram outlier;
    for (int i = 0; i < 10000; ++i)
        outlier.sample(100);
    for (int i = 0; i < 600; ++i)
        outlier.sample(11000);
    outlier.sample(50000000);
    expectQuantilesRespectTotal(outlier, "outlier");
    EXPECT_LE(outlier.p95(), 11000u);
    EXPECT_GT(outlier.p95(), 11000u - 11000u / 8);
    EXPECT_LE(outlier.p50(), 100u);
    EXPECT_GT(outlier.p50(), 100u - 100u / 8);

    // Every sample exactly on a bucket edge: the bound is tight at
    // p = 0 and must still hold.
    LatencyHistogram edges;
    for (int i = 0; i < 1024; ++i)
        edges.sample(std::uint64_t{1} << 20);
    expectQuantilesRespectTotal(edges, "edges");
    EXPECT_EQ(edges.quantile(0.0), std::uint64_t{1} << 20);
    EXPECT_EQ(edges.quantile(1.0), std::uint64_t{1} << 20);

    // One enormous sample behind a million tiny ones.
    LatencyHistogram tail;
    for (int i = 0; i < 1000000; ++i)
        tail.sample(1);
    tail.sample(std::uint64_t{1} << 40);
    expectQuantilesRespectTotal(tail, "tail");
    EXPECT_EQ(tail.p95(), 1u);
    EXPECT_EQ(tail.quantile(1.0), std::uint64_t{1} << 40);

    // Values just below each power of two, the widest error inside
    // a bucket, plus zeros.
    LatencyHistogram ragged;
    for (unsigned e = 1; e <= 40; ++e) {
        for (int r = 0; r < 3; ++r)
            ragged.sample((std::uint64_t{1} << e) - 1);
        ragged.sample(0);
    }
    expectQuantilesRespectTotal(ragged, "ragged");

    // Log-uniform spread from a fixed-seed LCG.
    LatencyHistogram spread;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        unsigned e = static_cast<unsigned>((x >> 58) % 36);
        spread.sample((x >> 20) & ((std::uint64_t{1} << e) - 1));
    }
    expectQuantilesRespectTotal(spread, "spread");

    LatencyHistogram single;
    single.sample(777);
    expectQuantilesRespectTotal(single, "single");
    EXPECT_EQ(LatencyHistogram().quantile(0.5), 0u);
}

// ---------------------------------------------------------------------
// Soc integration: the registry replaces hand-plumbed stat access,
// and observability never changes simulated results.
// ---------------------------------------------------------------------

SocConfig
smallDmaConfig()
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    return cfg;
}

/** Everything observable about one run: the registry dump and the
 * headline results (numExecuted is deliberately excluded — the
 * sampler legitimately adds its own events to the queue). */
struct RunOutput
{
    std::string stats;
    SocResults results;
    std::uint64_t samplesTaken = 0;
};

RunOutput
runOnce(const SocConfig &cfg, bool profile = false)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    HostProfiler profiler;
    if (profile)
        soc.eventQueue().setProfiler(&profiler);

    RunOutput out;
    out.results = soc.run();
    std::ostringstream os;
    soc.statRegistry().dump(os);
    out.stats = os.str();
    if (soc.sampler())
        out.samplesTaken = soc.sampler()->samplesTaken();
    soc.eventQueue().checkDrained();
    return out;
}

TEST(SocMetrics, RegistryExposesEveryComponent)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(smallDmaConfig(), trace, dddg);
    (void)soc.run();

    const StatRegistry &reg = soc.statRegistry();
    EXPECT_GE(reg.numGroups(), 6u);
    EXPECT_NE(reg.findGroup("system.bus"), nullptr);
    EXPECT_NE(reg.findGroup("accel.datapath"), nullptr);

    // Dotted lookup reaches live post-run counters.
    ASSERT_NE(reg.lookup("system.bus.packets"), nullptr);
    EXPECT_GT(reg.get("system.bus.packets"), 0.0);

    // Path uniqueness at system scale: no two scalars share a path.
    auto paths = reg.scalarPaths();
    std::set<std::string> unique(paths.begin(), paths.end());
    EXPECT_EQ(unique.size(), paths.size());

    // The registry-driven report is exactly the registry dump: no
    // component is special-cased anymore.
    std::ostringstream viaReport, viaRegistry;
    dumpAllStats(viaReport, soc);
    reg.dump(viaRegistry);
    EXPECT_EQ(viaReport.str(), viaRegistry.str());
    EXPECT_NE(viaRegistry.str().find("system.bus.packets"),
              std::string::npos);
}

TEST(SocMetrics, SampledRunMatchesUnsampledRun)
{
    const RunOutput plain = runOnce(smallDmaConfig());
    ASSERT_FALSE(plain.stats.empty());
    EXPECT_EQ(plain.samplesTaken, 0u);

    SocConfig sampled = smallDmaConfig();
    sampled.metrics.samplePeriod = 100; // accelerator cycles
    const RunOutput withSampling = runOnce(sampled);

    // The sampler actually ran...
    EXPECT_GT(withSampling.samplesTaken, 0u);
    // ...and changed nothing the simulation can observe.
    EXPECT_EQ(withSampling.stats, plain.stats);
    EXPECT_EQ(withSampling.results.totalTicks,
              plain.results.totalTicks);
    EXPECT_EQ(withSampling.results.accelCycles,
              plain.results.accelCycles);
    EXPECT_EQ(withSampling.results.energyPj, plain.results.energyPj);
    EXPECT_EQ(withSampling.results.edp, plain.results.edp);
}

TEST(SocMetrics, ProfiledRunMatchesUnprofiledRun)
{
    const RunOutput plain = runOnce(smallDmaConfig());
    const RunOutput profiled =
        runOnce(smallDmaConfig(), /*profile=*/true);

    EXPECT_EQ(profiled.stats, plain.stats);
    EXPECT_EQ(profiled.results.totalTicks, plain.results.totalTicks);
    EXPECT_EQ(profiled.results.accelCycles,
              plain.results.accelCycles);
    EXPECT_EQ(profiled.results.energyPj, plain.results.energyPj);
}

TEST(SocMetrics, SocWritesConfiguredMetricsArtifacts)
{
    const std::string dir = ::testing::TempDir();
    SocConfig cfg = smallDmaConfig();
    cfg.metrics.samplePeriod = 100;
    cfg.metrics.statsJsonPath = dir + "soc.stats.json";
    cfg.metrics.samplesCsvPath = dir + "soc.samples.csv";

    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    (void)soc.run();

    std::ifstream stats(cfg.metrics.statsJsonPath);
    ASSERT_TRUE(stats.good());
    std::ostringstream ss;
    ss << stats.rdbuf();
    EXPECT_NE(ss.str().find("genie-stats-1"), std::string::npos);
    EXPECT_NE(ss.str().find("system.bus.packets"),
              std::string::npos);

    std::ifstream samples(cfg.metrics.samplesCsvPath);
    ASSERT_TRUE(samples.good());
    std::string header;
    std::getline(samples, header);
    EXPECT_EQ(header.rfind("tick,", 0), 0u);
}

} // namespace
} // namespace genie
