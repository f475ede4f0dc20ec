/**
 * @file
 * Genie-Scope tests: the span-DAG/critical-path analysis library and
 * the cross-run tooling it feeds.
 *
 * Four layers:
 *  - the JSON reader in isolation (shape, lexeme preservation,
 *    position-annotated errors);
 *  - glob rules and tolerance-aware diffing (genie_diff semantics:
 *    removed fails, added warns, first matching rule wins);
 *  - flow well-formedness under a full traced SoC run (every flow
 *    link joins two closed spans, from < to, at most one causal
 *    predecessor per span — the DAG invariant criticalPath() rests
 *    on), plus the passivity guarantee: flows enabled changes no
 *    simulated result byte;
 *  - blame determinism: byte-identical reports across repeated runs
 *    and across runs executed on different host threads, the >= 95%
 *    coverage bar on the paper's Fig. 5 stencil design point, and
 *    three design points whose results and blame summary are pinned.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/report.hh"
#include "core/soc.hh"
#include "metrics/export.hh"
#include "scope/diff.hh"
#include "scope/json.hh"
#include "scope/report.hh"
#include "scope/span_dag.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

// --- JSON reader ----------------------------------------------------

TEST(ScopeJson, ParsesScalarsContainersAndEscapes)
{
    auto r = parseJson(R"({
        "s": "a\tbA\"q\"",
        "n": -12.5e2,
        "t": true,
        "z": null,
        "arr": [1, 2, 3],
        "obj": {"k": 0.25}
    })");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonValue &v = r.value;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.get("s")->string(), "a\tbA\"q\"");
    EXPECT_DOUBLE_EQ(v.get("n")->number(), -1250.0);
    EXPECT_EQ(v.get("n")->numberLexeme(), "-12.5e2");
    EXPECT_TRUE(v.get("t")->boolean());
    EXPECT_TRUE(v.get("z")->isNull());
    ASSERT_EQ(v.get("arr")->array().size(), 3u);
    EXPECT_DOUBLE_EQ(v.get("arr")->array()[2].number(), 3.0);
    EXPECT_DOUBLE_EQ(v.get("obj")->get("k")->number(), 0.25);
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(ScopeJson, MembersKeepFileOrderAndLastDuplicateWins)
{
    auto r = parseJson(R"({"b": 1, "a": 2, "b": 3})");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonMembers &m = r.value.members();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0].first, "b");
    EXPECT_EQ(m[1].first, "a");
    EXPECT_DOUBLE_EQ(r.value.get("b")->number(), 3.0);
}

TEST(ScopeJson, ErrorsCarryPositionAndRejectTrailingJunk)
{
    auto bad = parseJson("{\n  \"k\": nul\n}");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorLine, 2u);

    auto junk = parseJson("{} trailing");
    EXPECT_FALSE(junk.ok);

    auto badEscape = parseJson(R"({"k": "\q"})");
    EXPECT_FALSE(badEscape.ok);

    auto badNumber = parseJson(R"({"k": 1.})");
    EXPECT_FALSE(badNumber.ok);

    auto io = parseJsonFile("/nonexistent/genie-scope.json");
    EXPECT_FALSE(io.ok);
    EXPECT_FALSE(io.error.empty());
}

// --- glob rules and diffing -----------------------------------------

TEST(ScopeDiff, GlobMatchesAcrossDotsAndSingleChars)
{
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("*wall_ms*", "sweep.wall_ms"));
    EXPECT_TRUE(globMatch("benches[*].sim.total_us",
                          "benches[3].sim.total_us"));
    EXPECT_TRUE(globMatch("?.x", "a.x"));
    EXPECT_FALSE(globMatch("?.x", "ab.x"));
    EXPECT_FALSE(globMatch("*.host.*", "hostless"));
}

TEST(ScopeDiff, ParsesCliRuleSpecs)
{
    DiffRule rule;
    std::string err;
    ASSERT_TRUE(parseDiffRule("benches[*].meps=5%", rule, err));
    EXPECT_EQ(rule.glob, "benches[*].meps");
    EXPECT_FALSE(rule.ignore);
    EXPECT_DOUBLE_EQ(rule.tolerancePct, 5.0);

    ASSERT_TRUE(parseDiffRule("*wall_ms*=ignore", rule, err));
    EXPECT_TRUE(rule.ignore);

    EXPECT_FALSE(parseDiffRule("no-equals-sign", rule, err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(parseDiffRule("glob=not-a-number", rule, err));
}

JsonValue
parsed(const std::string &text)
{
    auto r = parseJson(text);
    EXPECT_TRUE(r.ok) << r.error;
    return r.value;
}

TEST(ScopeDiff, RemovedFailsAddedWarnsAndStrictPromotes)
{
    JsonValue a = parsed(R"({"kept": 1, "gone": 2})");
    JsonValue b = parsed(R"({"kept": 1, "fresh": 3})");

    DiffOptions opts;
    DiffResult r = diffJson(a, b, opts);
    EXPECT_FALSE(r.clean());
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].kind, DiffKind::Removed);
    EXPECT_EQ(r.failures[0].path, "gone");
    ASSERT_EQ(r.warnings.size(), 1u);
    EXPECT_EQ(r.warnings[0].kind, DiffKind::Added);
    EXPECT_EQ(r.warnings[0].path, "fresh");

    opts.strict = true;
    DiffResult strict = diffJson(a, b, opts);
    EXPECT_EQ(strict.failures.size(), 2u);
    EXPECT_TRUE(strict.warnings.empty());
}

TEST(ScopeDiff, ToleranceAndIgnoreRulesJudgeByFirstMatch)
{
    JsonValue a = parsed(
        R"({"sim": {"total_us": 100.0}, "host": {"wall_ms": 5.0}})");
    JsonValue b = parsed(
        R"({"sim": {"total_us": 101.0}, "host": {"wall_ms": 9.0}})");

    DiffOptions opts;
    opts.rules.push_back({"*wall_ms*", true, 0.0});
    opts.rules.push_back({"sim.*", false, 2.0});

    DiffResult r = diffJson(a, b, opts);
    EXPECT_TRUE(r.clean());
    ASSERT_EQ(r.tolerated.size(), 1u);
    EXPECT_EQ(r.tolerated[0].path, "sim.total_us");
    EXPECT_NEAR(r.tolerated[0].relDeltaPct, 100.0 / 101.0, 0.01);
    EXPECT_EQ(r.ignoredLeaves, 1u);
    EXPECT_EQ(r.comparedLeaves, 1u);

    // A tighter first rule wins over the permissive later one.
    opts.rules.insert(opts.rules.begin(), {"sim.total_us", false, 0.0});
    DiffResult exact = diffJson(a, b, opts);
    ASSERT_EQ(exact.failures.size(), 1u);
    EXPECT_EQ(exact.failures[0].kind, DiffKind::Changed);
}

TEST(ScopeDiff, TypeChangesFailAndDefaultRulesDropHostTime)
{
    JsonValue a = parsed(R"({"v": 1})");
    JsonValue b = parsed(R"({"v": "1"})");
    DiffResult r = diffJson(a, b, DiffOptions{});
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].kind, DiffKind::TypeChanged);

    DiffOptions opts;
    opts.rules = defaultGenieDiffRules();
    JsonValue base = parsed(R"({"wall_ms": 5.0, "meps": 2.0,
                                "events": 100})");
    JsonValue cand = parsed(R"({"wall_ms": 50.0, "meps": 7.0,
                                "events": 100})");
    DiffResult host = diffJson(base, cand, opts);
    EXPECT_TRUE(host.clean());
    EXPECT_EQ(host.ignoredLeaves, 2u);

    std::string report = renderDiffReport(host, "base", "cand");
    EXPECT_NE(report.find("PASS"), std::string::npos);
}

// --- flow well-formedness under a full SoC run ----------------------

SocConfig
fig5Config()
{
    SocConfig cfg;
    cfg.memType = MemInterface::ScratchpadDma;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.tracing.enabled = true;
    return cfg;
}

TEST(ScopeFlows, LinksJoinClosedSpansAndFormADag)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    Soc soc(fig5Config(), trace, dddg);
    soc.run();

    const Tracer *t = soc.tracer();
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->openSpans(), 0u);

    // Index recorded spans by id.
    std::vector<SpanView> views = t->spanViews();
    ASSERT_FALSE(views.empty());
    std::vector<TraceSpanId> incoming;
    TraceSpanId maxId = 0;
    for (const auto &v : views)
        maxId = std::max(maxId, v.id);
    incoming.assign(static_cast<std::size_t>(maxId) + 1, 0);

    const auto &flows = t->flowLinks();
    ASSERT_FALSE(flows.empty());
    for (const auto &f : flows) {
        // Both ends name recorded spans and the edge points forward
        // in record order — the DAG-by-construction invariant.
        EXPECT_GT(f.from, 0u);
        EXPECT_LT(f.from, f.to);
        EXPECT_LE(f.to, maxId);
        // At most one causal predecessor per span.
        EXPECT_EQ(incoming[static_cast<std::size_t>(f.to)], 0u);
        incoming[static_cast<std::size_t>(f.to)] = f.from;
    }

    // The emitted Chrome JSON (spans + ph:"s"/"f" flow events) is a
    // document our own reader accepts.
    std::ostringstream js;
    t->writeChromeJson(js);
    auto chrome = parseJson(js.str());
    ASSERT_TRUE(chrome.ok) << chrome.error;
    ASSERT_NE(chrome.value.get("traceEvents"), nullptr);
    EXPECT_GE(chrome.value.get("traceEvents")->array().size(),
              views.size());
}

TEST(ScopeFlows, TracingWithFlowsIsPassive)
{
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);

    SocConfig traced = fig5Config();
    SocConfig untraced = fig5Config();
    untraced.tracing.enabled = false;

    Soc a(traced, trace, dddg);
    Soc b(untraced, trace, dddg);
    SocResults ra = a.run();
    SocResults rb = b.run();

    // Render both results under the same config echo (the record
    // line deliberately echoes trace=1, which is a config fact, not
    // a result) — every simulated-result byte must match.
    std::ostringstream osA, osB;
    printRecord(osA, untraced, ra);
    printRecord(osB, untraced, rb);
    EXPECT_EQ(osA.str(), osB.str());
}

// --- critical path and blame ----------------------------------------

std::string
blameReportFor(const std::string &workload, const SocConfig &cfg,
               BlameReport *blameOut = nullptr)
{
    Trace trace = makeWorkload(workload)->build().trace;
    Dddg dddg(trace);
    Soc soc(cfg, trace, dddg);
    SocResults results = soc.run();

    const Tracer *t = soc.tracer();
    EXPECT_NE(t, nullptr);
    SpanDag dag = buildSpanDag(*t);
    BlameReport blame = genie::blame(dag);
    if (blameOut)
        *blameOut = blame;

    RunReportInput input;
    input.title = workload;
    input.configLine = cfg.describe();
    input.results = &results;
    input.blame = &blame;
    input.dag = &dag;
    return renderRunReport(input);
}

TEST(ScopeBlame, CoversTheFig5DesignPointAndObeysInvariants)
{
    BlameReport blame;
    std::string report =
        blameReportFor("stencil-stencil2d", fig5Config(), &blame);

    // The acceptance bar: >= 95% of end-to-end ticks attributed.
    EXPECT_GE(blame.coverage, 0.95);
    EXPECT_GT(blame.endTick, 0u);
    EXPECT_LE(blame.coveredTicks, blame.endTick);

    // Segments are disjoint, in-bounds, and sum to coveredTicks;
    // every hop after the walk root is either a flow or inferred.
    ASSERT_FALSE(blame.path.empty());
    Tick sum = 0;
    Tick prevBegin = blame.endTick;
    for (const auto &seg : blame.path) {
        EXPECT_LT(seg.begin, seg.end);
        EXPECT_LE(seg.end, prevBegin);
        sum += seg.end - seg.begin;
        prevBegin = seg.begin;
    }
    EXPECT_EQ(sum, blame.coveredTicks);
    EXPECT_FALSE(blame.path.front().viaFlow); // the walk root
    EXPECT_EQ(blame.flowHops + blame.inferredHops,
              blame.path.size() - 1);
    EXPECT_GT(blame.flowHops, 0u);

    // Every category present, enum order, on-path <= union <= end.
    ASSERT_EQ(blame.byCategory.size(), numTraceCategories);
    for (std::size_t i = 0; i < numTraceCategories; ++i) {
        const BlameEntry &e = blame.byCategory[i];
        EXPECT_EQ(e.name, traceCategoryName(
                              static_cast<TraceCategory>(i)));
        EXPECT_LE(e.onPathTicks, e.totalTicks);
        EXPECT_LE(e.overlappedTicks, e.totalTicks);
        EXPECT_LE(e.onPathTicks, blame.endTick);
    }

    EXPECT_NE(report.find("# Genie-Scope run report:"),
              std::string::npos);
    EXPECT_NE(report.find("## Critical path"), std::string::npos);
    EXPECT_NE(report.find("## Component blame"), std::string::npos);
}

TEST(ScopeBlame, ReportsAreByteIdenticalAcrossRunsAndThreads)
{
    const std::string one =
        blameReportFor("stencil-stencil2d", fig5Config());
    const std::string two =
        blameReportFor("stencil-stencil2d", fig5Config());
    EXPECT_EQ(one, two);

    // The same analysis on worker threads (each Soc owns its queue
    // and tracer) must not perturb a byte either.
    std::string t1, t2;
    std::thread a(
        [&] { t1 = blameReportFor("stencil-stencil2d", fig5Config()); });
    std::thread b(
        [&] { t2 = blameReportFor("stencil-stencil2d", fig5Config()); });
    a.join();
    b.join();
    EXPECT_EQ(t1, one);
    EXPECT_EQ(t2, one);
}

TEST(ScopeBlame, EmptyTraceBlamesNothing)
{
    EventQueue eq;
    Tracer tracer(eq);
    BlameReport blame = blameRun(tracer);
    EXPECT_EQ(blame.endTick, 0u);
    EXPECT_EQ(blame.coveredTicks, 0u);
    EXPECT_DOUBLE_EQ(blame.coverage, 0.0);
    EXPECT_TRUE(blame.path.empty());
    EXPECT_EQ(topBlameCategory(blame), "-");
}

TEST(ScopeBlame, SpeedupFormattingAndTopCategory)
{
    EXPECT_EQ(formatSpeedup(1.842), "1.842x");
    EXPECT_EQ(formatSpeedup(0.0), "inf");

    BlameReport blame;
    blame.byCategory.push_back({"flush", 10, 10, 0, 1.0, 1});
    blame.byCategory.push_back({"dma", 30, 30, 0, 1.0, 1});
    blame.byCategory.push_back({"bus", 30, 40, 10, 1.0, 1});
    // Strictly-greater wins; ties keep the earlier (enum) entry.
    EXPECT_EQ(topBlameCategory(blame), "dma");
}

/**
 * Three paper design points (optimized DMA, baseline DMA, cache) with
 * their headline results and the blame summary of their traced run
 * pinned: work on the simulator's host speed must move neither a
 * simulated number nor the critical-path attribution.
 */
TEST(ScopeBlame, PinnedDesignPointsKeepTheirResultsAndBlame)
{
    struct Point
    {
        const char *workload;
        std::vector<std::string> options;
        const char *sim;
        const char *blame;
    };
    const Point points[] = {
        {"stencil-stencil2d",
         {"mem=dma", "lanes=8", "partitions=8", "pipelined=1",
          "triggered=1"},
         "total_us=81.470 accel_cycles=5684 energy_pj=543979.7 "
         "edp=4.431802228103429e-11 bus_utilization=0.5883 "
         "dma_bytes=16932 cache_miss_rate=0.0000",
         "top_category=datapath top_share=0.5248 coverage=0.9998"},
        {"gemm-ncubed", {"mem=dma", "lanes=4", "partitions=4"},
         "total_us=174.060 accel_cycles=11664 energy_pj=829863.9 "
         "edp=1.4444611274171784e-10 bus_utilization=0.2244 "
         "dma_bytes=13824 cache_miss_rate=0.0000",
         "top_category=datapath top_share=0.6716 coverage=0.9983"},
        {"md-knn", {"mem=cache", "lanes=4", "cache_kb=16", "cache_ports=2"},
         "total_us=158.320 accel_cycles=15800 energy_pj=1242090.1 "
         "edp=1.9664770146559998e-10 bus_utilization=0.6003 "
         "dma_bytes=0 cache_miss_rate=0.0709",
         "top_category=datapath top_share=0.6894 coverage=0.9370"},
    };
    for (const Point &pt : points) {
        SCOPED_TRACE(pt.workload);
        Trace trace = makeWorkload(pt.workload)->build().trace;
        Dddg dddg(trace);
        SocConfig cfg = parseConfig(pt.options);
        Soc soc(cfg, trace, dddg);
        SocResults r = soc.run();
        EXPECT_EQ(format("total_us=%.3f accel_cycles=%llu "
                         "energy_pj=%.1f edp=%s bus_utilization=%.4f "
                         "dma_bytes=%llu cache_miss_rate=%.4f",
                         r.totalUs(), (unsigned long long)r.accelCycles,
                         r.energyPj, formatStatNumber(r.edp).c_str(),
                         r.busUtilization,
                         (unsigned long long)r.dmaBytes,
                         r.cacheMissRate),
                  pt.sim);

        cfg.tracing.enabled = true;
        cfg.tracing.categories = allTraceCategories;
        Soc traced(cfg, trace, dddg);
        traced.run();
        BlameReport b = blameRun(*traced.tracer());
        Tick topTicks = 0;
        for (const auto &e : b.byCategory)
            topTicks = std::max(topTicks, e.onPathTicks);
        double topShare = b.coveredTicks > 0
                              ? static_cast<double>(topTicks) /
                                    static_cast<double>(b.coveredTicks)
                              : 0.0;
        EXPECT_EQ(format("top_category=%s top_share=%.4f coverage=%.4f",
                         topBlameCategory(b).c_str(), topShare,
                         b.coverage),
                  pt.blame);
    }
}

} // namespace
} // namespace genie
