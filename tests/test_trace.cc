/**
 * @file
 * Genie-Trace subsystem tests.
 *
 * Three layers: the Tracer in isolation (span bookkeeping, category
 * masking, the query API, Chrome JSON shape), the Tracer under a full
 * SoC run (spans well-nested, span unions equal to the component-kept
 * busy IntervalSets, traced == untraced results, byte-identical JSON
 * across repeated runs), and the binned Distribution statistic that
 * rides the same PR (unit behavior plus its cache/bus wiring).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "sim/stats.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

// --- category names and CLI parsing ---------------------------------

TEST(TraceCategories, NamesAreStableAndRoundTrip)
{
    EXPECT_STREQ(traceCategoryName(TraceCategory::Flush), "flush");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Dma), "dma");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Bus), "bus");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Cache), "cache");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Dram), "dram");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Datapath),
                 "datapath");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Tlb), "tlb");
    EXPECT_STREQ(traceCategoryName(TraceCategory::Spad), "spad");

    // Every single-category mask renders and re-parses to itself.
    for (std::size_t i = 0; i < numTraceCategories; ++i) {
        auto c = static_cast<TraceCategory>(i);
        TraceCategoryMask m = traceCategoryBit(c);
        EXPECT_EQ(parseTraceCategories(traceCategoriesToString(m)), m);
    }
}

TEST(TraceCategories, ParseListAllAndErrors)
{
    EXPECT_EQ(parseTraceCategories("dma,flush"),
              traceCategoryBit(TraceCategory::Dma) |
                  traceCategoryBit(TraceCategory::Flush));
    EXPECT_EQ(parseTraceCategories("all"), allTraceCategories);
    EXPECT_EQ(parseTraceCategories(""), allTraceCategories);
    EXPECT_EQ(traceCategoriesToString(allTraceCategories), "all");
    EXPECT_THROW(parseTraceCategories("dma,bogus"), FatalError);
}

// --- Tracer in isolation --------------------------------------------

TEST(TracerUnit, SpansRecordIntervalsAndDurations)
{
    EventQueue eq;
    Tracer tracer(eq);

    TraceSpanId s = invalidTraceSpan;
    eq.schedule(100, [&] {
        s = tracer.begin(TraceCategory::Dma, "dma0", "load");
    }, "test.trace");
    eq.schedule(300, [&] { tracer.end(s); }, "test.trace");
    eq.schedule(500, [&] {
        tracer.instant(TraceCategory::Spad, "spad0", "conflict");
    }, "test.trace");
    eq.run();

    tracer.complete(TraceCategory::Dma, "dma0", "store", 400, 450);

    EXPECT_EQ(tracer.numEvents(), 3u);
    EXPECT_EQ(tracer.openSpans(), 0u);

    IntervalSet dma = tracer.spans(TraceCategory::Dma);
    ASSERT_EQ(dma.intervals().size(), 2u);
    EXPECT_EQ(dma.intervals()[0].begin, 100u);
    EXPECT_EQ(dma.intervals()[0].end, 300u);
    EXPECT_EQ(dma.measure(), 250u);

    // Per-name filtering and duration summaries.
    EXPECT_EQ(tracer.spans(TraceCategory::Dma, "store").measure(),
              50u);
    TraceDurations d = tracer.durations(TraceCategory::Dma);
    EXPECT_EQ(d.count, 2u);
    EXPECT_EQ(d.minTicks, 50u);
    EXPECT_EQ(d.maxTicks, 200u);
    EXPECT_EQ(d.totalTicks, 250u);
    EXPECT_DOUBLE_EQ(d.meanTicks(), 125.0);

    // Instants are counted but never contribute to span intervals.
    EXPECT_EQ(tracer.instantCount(TraceCategory::Spad, "conflict"),
              1u);
    EXPECT_EQ(tracer.spans(TraceCategory::Spad).measure(), 0u);
}

TEST(TracerUnit, OpenSpanAccountingAndNoopInvalidEnd)
{
    EventQueue eq;
    Tracer tracer(eq);

    TraceSpanId s =
        tracer.begin(TraceCategory::Tlb, "tlb0", "miss");
    EXPECT_EQ(tracer.openSpans(), 1u);

    // end(invalidTraceSpan) must be a silent no-op so emission sites
    // need no masked-category re-check.
    tracer.end(invalidTraceSpan);
    EXPECT_EQ(tracer.openSpans(), 1u);

    tracer.end(s);
    EXPECT_EQ(tracer.openSpans(), 0u);

    // Still-open spans are excluded from the interval queries.
    tracer.begin(TraceCategory::Tlb, "tlb0", "miss");
    EXPECT_EQ(tracer.openSpans(), 1u);
    EXPECT_EQ(tracer.spans(TraceCategory::Tlb).measure(), 0u);
}

TEST(TracerUnit, MaskFiltersCategoriesAtTheSource)
{
    EventQueue eq;
    Tracer tracer(eq, traceCategoryBit(TraceCategory::Dma));

    EXPECT_TRUE(tracer.wants(TraceCategory::Dma));
    EXPECT_FALSE(tracer.wants(TraceCategory::Flush));

    // Masked-off emission records nothing and returns the invalid id.
    EXPECT_EQ(tracer.begin(TraceCategory::Flush, "cpu", "flush"),
              invalidTraceSpan);
    tracer.complete(TraceCategory::Flush, "cpu", "flush", 0, 10);
    tracer.instant(TraceCategory::Flush, "cpu", "flush");
    EXPECT_EQ(tracer.numEvents(), 0u);

    tracer.complete(TraceCategory::Dma, "dma0", "load", 0, 10);
    EXPECT_EQ(tracer.numEvents(), 1u);

    // tracerFor folds the null-queue and mask checks into one guard.
    EXPECT_EQ(tracerFor(eq, TraceCategory::Dma), nullptr);
    eq.setTracer(&tracer);
    EXPECT_EQ(tracerFor(eq, TraceCategory::Dma), &tracer);
    EXPECT_EQ(tracerFor(eq, TraceCategory::Flush), nullptr);
    eq.setTracer(nullptr);
}

TEST(TracerUnit, ChromeJsonShape)
{
    EventQueue eq;
    Tracer tracer(eq);
    tracer.complete(TraceCategory::Bus, "bus \"0\"", "req", 0,
                    1500000);
    tracer.instant(TraceCategory::Spad, "spad0", "conflict");

    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // One thread_name metadata record per track, emitted first.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    // Track names pass through JSON escaping.
    EXPECT_NE(json.find("bus \\\"0\\\""), std::string::npos);
    // 1.5M ticks (ps) render as exact microseconds, not floats.
    EXPECT_NE(json.find("\"dur\":1.500000"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"tickUnit\":\"ps\""), std::string::npos);
}

// --- Tracer under a full SoC run ------------------------------------

struct TracedRun
{
    SocResults results;
    std::string record;
    std::string json;
    std::size_t numEvents = 0;
    std::size_t openSpans = 0;
    IntervalSet flushSpans, dmaSpans, datapathSpans;
    IntervalSet flushBusy, dmaBusy, computeBusy;
};

TracedRun
runTraced(const std::string &workload, SocConfig cfg)
{
    TracedRun out;
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    out.results = soc.run();

    std::ostringstream rec;
    printRecord(rec, cfg, out.results);
    out.record = rec.str();

    if (const Tracer *t = soc.tracer()) {
        std::ostringstream js;
        t->writeChromeJson(js);
        out.json = js.str();
        out.numEvents = t->numEvents();
        out.openSpans = t->openSpans();
        out.flushSpans = t->spans(TraceCategory::Flush);
        out.dmaSpans = t->spans(TraceCategory::Dma);
        out.datapathSpans = t->spans(TraceCategory::Datapath);
    }
    if (cfg.memType == MemInterface::ScratchpadDma) {
        out.flushBusy = soc.flushEngine().busyIntervals();
        out.dmaBusy = soc.dmaEngine().busyIntervals();
    }
    out.computeBusy = soc.datapath().computeBusy();
    return out;
}

SocConfig
tracedDmaConfig()
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.tracing.enabled = true;
    return cfg;
}

SocConfig
tracedCacheConfig()
{
    SocConfig cfg;
    cfg.memType = MemInterface::Cache;
    cfg.lanes = 2;
    cfg.tracing.enabled = true;
    return cfg;
}

TEST(TracerSystem, SpansAreWellNestedAfterEveryRun)
{
    // Every begin() must meet its end() by simulation exit, in both
    // memory interface modes (DMA txn/chunk/descriptor spans, cache
    // MSHR spans, TLB walk spans).
    TracedRun dma = runTraced("aes-aes", tracedDmaConfig());
    EXPECT_GT(dma.numEvents, 0u);
    EXPECT_EQ(dma.openSpans, 0u);

    TracedRun cache = runTraced("aes-aes", tracedCacheConfig());
    EXPECT_GT(cache.numEvents, 0u);
    EXPECT_EQ(cache.openSpans, 0u);
}

TEST(TracerSystem, SpanUnionsEqualComponentBusyIntervals)
{
    // The figure benches read their timeline strips from the Tracer;
    // that is only sound if the span unions reproduce the busy
    // IntervalSets the components have always tracked.
    TracedRun r = runTraced("stencil-stencil2d", tracedDmaConfig());
    EXPECT_EQ(r.flushSpans.intervals(), r.flushBusy.intervals());
    EXPECT_EQ(r.dmaSpans.intervals(), r.dmaBusy.intervals());
    EXPECT_EQ(r.datapathSpans.intervals(),
              r.computeBusy.intervals());
    EXPECT_GT(r.dmaSpans.measure(), 0u);
    EXPECT_GT(r.datapathSpans.measure(), 0u);
}

TEST(TracerSystem, TracingDoesNotPerturbResults)
{
    // Tracing is passive: a traced run and an untraced run of the
    // same design point must produce identical results and identical
    // component busy sets.
    SocConfig traced = tracedDmaConfig();
    SocConfig untraced = tracedDmaConfig();
    untraced.tracing.enabled = false;

    TracedRun a = runTraced("aes-aes", traced);
    TracedRun b = runTraced("aes-aes", untraced);

    EXPECT_EQ(b.numEvents, 0u); // no Tracer at all when disabled
    EXPECT_EQ(a.results.totalTicks, b.results.totalTicks);
    EXPECT_EQ(a.results.accelCycles, b.results.accelCycles);
    EXPECT_EQ(a.flushBusy.intervals(), b.flushBusy.intervals());
    EXPECT_EQ(a.dmaBusy.intervals(), b.dmaBusy.intervals());
    EXPECT_EQ(a.computeBusy.intervals(), b.computeBusy.intervals());
}

TEST(TracerSystem, JsonIsByteIdenticalAcrossRepeatedRuns)
{
    TracedRun a = runTraced("aes-aes", tracedDmaConfig());
    TracedRun b = runTraced("aes-aes", tracedDmaConfig());
    ASSERT_FALSE(a.json.empty());
    EXPECT_EQ(a.json, b.json);
    EXPECT_EQ(a.numEvents, b.numEvents);
}

TEST(TracerSystem, CategoryMaskRestrictsRecordedEvents)
{
    SocConfig all = tracedDmaConfig();
    SocConfig only = tracedDmaConfig();
    only.tracing.categories =
        traceCategoryBit(TraceCategory::Dma);

    TracedRun a = runTraced("aes-aes", all);
    TracedRun b = runTraced("aes-aes", only);

    EXPECT_GT(b.dmaSpans.measure(), 0u);
    EXPECT_EQ(b.flushSpans.measure(), 0u);
    EXPECT_EQ(b.datapathSpans.measure(), 0u);
    EXPECT_LT(b.numEvents, a.numEvents);
    // Masking is emission-side filtering, never result perturbation.
    EXPECT_EQ(a.results.totalTicks, b.results.totalTicks);
    EXPECT_EQ(a.dmaSpans.intervals(), b.dmaSpans.intervals());
}

TEST(TracerSystem, ConfigKeysThreadThroughParsing)
{
    SocConfig cfg = parseConfig(
        {"trace=1", "trace_categories=dma,flush"});
    EXPECT_TRUE(cfg.tracing.enabled);
    EXPECT_EQ(cfg.tracing.categories,
              traceCategoryBit(TraceCategory::Dma) |
                  traceCategoryBit(TraceCategory::Flush));

    // trace_out implies tracing even without trace=1.
    SocConfig out = parseConfig({"trace_out=/tmp/x.json"});
    EXPECT_TRUE(out.tracing.enabled);
    EXPECT_EQ(out.tracing.outPath, "/tmp/x.json");

    // The record echo round-trips the tracing knobs (categories are
    // rendered in canonical enum order, not input order).
    std::string echoed = configToOptions(cfg);
    EXPECT_NE(echoed.find("trace=1"), std::string::npos);
    EXPECT_NE(echoed.find("trace_categories=flush,dma"),
              std::string::npos);
}

// --- Distribution statistic -----------------------------------------

TEST(DistributionStat, BucketsBoundsAndMoments)
{
    Distribution d("lat", "latency", 0.0, 100.0, 10);
    EXPECT_DOUBLE_EQ(d.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(d.bucketHi(0), 10.0);
    EXPECT_DOUBLE_EQ(d.bucketLo(9), 90.0);

    d.sample(-5.0);  // underflow
    d.sample(0.0);   // bucket 0
    d.sample(9.99);  // bucket 0
    d.sample(95.0);  // bucket 9
    d.sample(100.0); // at hi => overflow (buckets are [lo, hi))
    d.sample(250.0); // overflow

    EXPECT_EQ(d.count(), 6u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.bucketCounts()[0], 2u);
    EXPECT_EQ(d.bucketCounts()[9], 1u);
    EXPECT_EQ(d.buckets()[0].count, 2u);
    EXPECT_DOUBLE_EQ(d.buckets()[0].lo, 0.0);
    EXPECT_DOUBLE_EQ(d.buckets()[0].hi, 10.0);
    EXPECT_EQ(d.buckets()[9].count, 1u);
    EXPECT_DOUBLE_EQ(d.min(), -5.0);
    EXPECT_DOUBLE_EQ(d.max(), 250.0);
    EXPECT_DOUBLE_EQ(d.mean(), (-5.0 + 0.0 + 9.99 + 95.0 + 100.0 +
                                250.0) /
                                   6.0);

    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.underflow(), 0u);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
}

TEST(DistributionStat, DumpSkipsEmptyBuckets)
{
    Distribution d("depth", "queue depth", 0.0, 4.0, 4);
    d.sample(1.5);
    d.sample(1.5);

    std::ostringstream os;
    d.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("depth::count"), std::string::npos);
    EXPECT_NE(out.find("depth::1-2"), std::string::npos);
    // Untouched buckets produce no line at all.
    EXPECT_EQ(out.find("depth::0-1"), std::string::npos);
    EXPECT_EQ(out.find("depth::3-4"), std::string::npos);
}

TEST(DistributionStat, WiredIntoCacheMissLatencyAndBusQueueDepth)
{
    SocConfig cfg;
    cfg.memType = MemInterface::Cache;
    cfg.lanes = 2;

    Trace trace = makeWorkload("aes-aes")->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    soc.run();

    std::ostringstream os;
    dumpAllStats(os, soc);
    const std::string stats = os.str();
    EXPECT_NE(stats.find("missLatency::count"), std::string::npos);
    EXPECT_NE(stats.find("queueDepth::count"), std::string::npos);
}

} // namespace
} // namespace genie
