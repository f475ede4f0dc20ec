/**
 * @file
 * Design-space-exploration tests: sweep enumeration, the sweep
 * runner, Pareto-frontier properties, EDP-optimal selection, Kiviat
 * normalization, and the isolated-vs-co-designed comparison.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/fingerprint.hh"
#include "dse/journal.hh"
#include "dse/pareto.hh"
#include "dse/sweep.hh"
#include "dse/sweep_engine.hh"
#include "metrics/profiler.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

struct SmallSpace
{
    SmallSpace()
        : trace(makeWorkload("stencil-stencil2d")->build().trace),
          dddg(trace)
    {
        // A small but real sweep: lanes x partitions at fixed opts.
        SocConfig base;
        for (unsigned lanes : {1u, 4u, 16u}) {
            for (unsigned parts : {1u, 16u}) {
                SocConfig c = base;
                c.lanes = lanes;
                c.spadPartitions = parts;
                c.dma.pipelined = true;
                c.dma.triggeredCompute = true;
                configs.push_back(c);
            }
        }
        points = runSweep(configs, trace, dddg, 1);
    }

    Trace trace;
    Dddg dddg;
    std::vector<SocConfig> configs;
    std::vector<DesignPoint> points;
};

SmallSpace &
space()
{
    static SmallSpace s;
    return s;
}

TEST(DesignSpace, EnumerationsMatchFigure3)
{
    SocConfig base;
    EXPECT_EQ(DesignSpace::isolated(base).size(), 25u);
    EXPECT_EQ(DesignSpace::dma(base).size(), 25u);
    EXPECT_EQ(DesignSpace::dmaOptions(base).size(), 100u);
    EXPECT_EQ(DesignSpace::cache(base).size(),
              5u * 6u * 3u * 4u * 2u);
}

TEST(DesignSpace, DmaSweepAppliesAllOptimizations)
{
    for (const auto &c : DesignSpace::dma(SocConfig{})) {
        EXPECT_TRUE(c.dma.pipelined);
        EXPECT_TRUE(c.dma.triggeredCompute);
        EXPECT_FALSE(c.isolated);
    }
}

TEST(DesignSpace, IsolatedAsCacheHoldsWorkingSet)
{
    SocConfig iso;
    iso.lanes = 8;
    iso.spadPartitions = 16;
    iso.isolated = true;
    SocConfig mapped = DesignSpace::isolatedAsCache(iso, 20 * 1024);
    EXPECT_EQ(mapped.memType, MemInterface::Cache);
    EXPECT_FALSE(mapped.isolated);
    EXPECT_GE(mapped.cache.sizeBytes, 20u * 1024u);
    EXPECT_EQ(mapped.cache.ports, 8u);
}

TEST(Sweep, PreservesConfigOrder)
{
    const auto &s = space();
    ASSERT_EQ(s.points.size(), s.configs.size());
    for (std::size_t i = 0; i < s.points.size(); ++i) {
        EXPECT_EQ(s.points[i].config.lanes, s.configs[i].lanes);
        EXPECT_EQ(s.points[i].config.spadPartitions,
                  s.configs[i].spadPartitions);
    }
}

TEST(Sweep, AllRunsProduceResults)
{
    for (const auto &p : space().points) {
        EXPECT_GT(p.results.totalTicks, 0u);
        EXPECT_GT(p.results.energyPj, 0.0);
        EXPECT_GT(p.results.avgPowerMw, 0.0);
    }
}

TEST(Sweep, MultithreadedMatchesSequential)
{
    const auto &s = space();
    auto threaded = runSweep(s.configs, s.trace, s.dddg, 4);
    ASSERT_EQ(threaded.size(), s.points.size());
    for (std::size_t i = 0; i < threaded.size(); ++i) {
        EXPECT_EQ(threaded[i].results.totalTicks,
                  s.points[i].results.totalTicks)
            << "simulation must be deterministic across threads";
        EXPECT_DOUBLE_EQ(threaded[i].results.energyPj,
                         s.points[i].results.energyPj);
    }
}

TEST(Pareto, FrontierIsNonDominated)
{
    const auto &s = space();
    auto frontier = paretoFrontier(s.points);
    ASSERT_FALSE(frontier.empty());
    for (std::size_t fi : frontier) {
        for (std::size_t j = 0; j < s.points.size(); ++j) {
            if (j == fi)
                continue;
            bool dominates =
                s.points[j].results.totalTicks <
                    s.points[fi].results.totalTicks &&
                s.points[j].results.avgPowerMw <
                    s.points[fi].results.avgPowerMw;
            EXPECT_FALSE(dominates)
                << "frontier point " << fi << " dominated by " << j;
        }
    }
}

TEST(Pareto, FrontierSortedByDelayWithDecreasingPower)
{
    auto frontier = paretoFrontier(space().points);
    for (std::size_t i = 1; i < frontier.size(); ++i) {
        const auto &prev = space().points[frontier[i - 1]].results;
        const auto &cur = space().points[frontier[i]].results;
        EXPECT_LE(prev.totalTicks, cur.totalTicks);
        EXPECT_GT(prev.avgPowerMw, cur.avgPowerMw);
    }
}

TEST(Pareto, EdpOptimalIsMinimal)
{
    const auto &s = space();
    std::size_t best = edpOptimal(s.points);
    for (const auto &p : s.points)
        EXPECT_GE(p.results.edp, s.points[best].results.edp);
}

TEST(Pareto, KiviatNormalizesToReference)
{
    const auto &s = space();
    auto axes = kiviatAxes(s.points[0], s.points[0]);
    EXPECT_DOUBLE_EQ(axes.lanes, 1.0);
    EXPECT_DOUBLE_EQ(axes.sramSize, 1.0);
    EXPECT_DOUBLE_EQ(axes.memBandwidth, 1.0);
}

TEST(Pareto, CodesignComparisonImprovesEdp)
{
    const auto &s = space();
    auto isolatedConfigs = DesignSpace::isolated(SocConfig{});
    // Trim for speed: lanes x partitions at the extremes.
    std::vector<SocConfig> trimmed;
    for (const auto &c : isolatedConfigs) {
        if ((c.lanes == 1 || c.lanes == 16) &&
            (c.spadPartitions == 1 || c.spadPartitions == 16))
            trimmed.push_back(c);
    }
    auto isolatedPoints = runSweep(trimmed, s.trace, s.dddg, 1);

    auto cmp = compareCodesign(
        isolatedPoints, s.points, [&](const SocConfig &iso) {
            SocConfig full = iso;
            full.isolated = false;
            full.dma.pipelined = true;
            full.dma.triggeredCompute = true;
            DesignPoint p;
            p.config = full;
            p.results = runDesign(full, s.trace, s.dddg);
            return p;
        });

    EXPECT_GE(cmp.edpImprovement, 1.0)
        << "the co-designed optimum cannot be worse than the "
           "isolated design evaluated under system effects";
    EXPECT_GT(cmp.isolatedUnderSystem.results.totalTicks,
              cmp.isolatedOptimal.results.totalTicks);
}

// ---------------------------------------------------------------------
// SweepEngine: scheduling, memoization, checkpointing, failure
// ---------------------------------------------------------------------

/** Byte-comparable rendering of a whole sweep. */
std::string
sweepJson(const std::vector<DesignPoint> &points)
{
    std::ostringstream os;
    writeSweepResultsJson(os, points, "test");
    return os.str();
}

TEST(SweepEngine, WorkerExceptionCarriesOffendingConfig)
{
    // The old runSweep lost worker exceptions (std::terminate via an
    // unjoined throw or a silently default-constructed result). The
    // engine must surface the throw as SweepError with the failing
    // config attached, after finishing the rest of the sweep.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    SocConfig bad = configs.front();
    bad.lanes = 0; // validateSocConfig: fatal
    configs.insert(configs.begin() + 3, bad);

    SweepEngine engine;
    try {
        engine.run(configs, s.trace, s.dddg);
        FAIL() << "a failing design point must raise SweepError";
    } catch (const SweepError &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        const FailedPoint &f = e.failures().front();
        EXPECT_EQ(f.index, 3u);
        EXPECT_EQ(f.config.lanes, 0u)
            << "the offending config must ride along";
        EXPECT_NE(f.message.find("lanes"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lanes"),
                  std::string::npos);
    }
    EXPECT_EQ(engine.progress().failed, 1u);
}

TEST(SweepEngine, ContinueOnErrorCompletesRemainingPoints)
{
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    SocConfig bad = configs.front();
    bad.lanes = 0;
    configs.insert(configs.begin() + 2, bad);

    SweepOptions options;
    options.continueOnError = true;
    options.threads = 4;
    SweepEngine engine(std::move(options));
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    ASSERT_EQ(engine.failures().size(), 1u);
    EXPECT_EQ(engine.failures().front().index, 2u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_GT(points[i].results.totalTicks, 0u)
            << "every healthy point must still be simulated";
    }
}

TEST(SweepEngine, ResultCacheDedupesAcrossRuns)
{
    const auto &s = space();
    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));

    auto cold = engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(engine.progress().done, s.configs.size());
    EXPECT_EQ(cache.hits(), 0u);

    auto warm = engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(engine.progress().done, 0u)
        << "a warm cache must satisfy every repeated point";
    EXPECT_EQ(engine.progress().cached, s.configs.size());
    EXPECT_GT(cache.hits(), 0u);
    EXPECT_EQ(sweepJson(warm), sweepJson(cold))
        << "cached results must be byte-identical to simulated ones";
}

TEST(SweepEngine, CacheDedupesOverlappingSpaces)
{
    // Fig. 6 (dmaOptions) contains the Fig. 8 DMA space as its
    // all-optimizations subset: sweeping both through one cache must
    // dedupe every Fig. 8 point.
    const auto &s = space();
    SpaceFilter filter = SpaceFilter::parse("lanes=1,4;partitions=4");
    SocConfig base;
    auto fig6 = filterConfigs(DesignSpace::dmaOptions(base), filter);
    auto fig8 = filterConfigs(DesignSpace::dma(base), filter);
    ASSERT_FALSE(fig6.empty());
    ASSERT_FALSE(fig8.empty());

    ResultCache cache;
    SweepOptions options;
    options.cache = &cache;
    SweepEngine engine(std::move(options));
    engine.run(fig6, s.trace, s.dddg);
    engine.run(fig8, s.trace, s.dddg);
    EXPECT_EQ(cache.hits(), fig8.size());
    EXPECT_EQ(engine.progress().done, 0u);
}

TEST(SweepEngine, JournalRoundTripsExactResults)
{
    const auto &s = space();
    const std::string path =
        ::testing::TempDir() + "genie_sweep_journal.jsonl";
    std::remove(path.c_str());

    SweepOptions options;
    options.journalPath = path;
    SweepEngine engine(std::move(options));
    auto points = engine.run(s.configs, s.trace, s.dddg);

    auto records = loadJournal(path);
    ASSERT_EQ(records.size(), s.configs.size());
    for (const auto &rec : records) {
        bool matched = false;
        for (std::size_t i = 0; i < s.configs.size(); ++i) {
            if (rec.key != configCanonicalKey(s.configs[i]))
                continue;
            matched = true;
            EXPECT_EQ(rec.fingerprint,
                      configFingerprint(s.configs[i]));
            EXPECT_EQ(resultsJson(rec.results),
                      resultsJson(points[i].results))
                << "journaled doubles must round-trip bit-exactly";
        }
        EXPECT_TRUE(matched) << "unknown journal key " << rec.key;
    }
    std::remove(path.c_str());
}

TEST(SweepEngine, JournalLoaderSkipsTornFinalLine)
{
    const auto &s = space();
    const std::string path =
        ::testing::TempDir() + "genie_sweep_torn.jsonl";
    std::remove(path.c_str());

    SweepOptions options;
    options.journalPath = path;
    SweepEngine engine(std::move(options));
    engine.run(s.configs, s.trace, s.dddg);

    // Simulate a kill mid-write: append half a record.
    {
        std::ofstream torn(path, std::ios::app);
        torn << "{\"key\": \"mem=dma lanes=2\", \"fingerprint\":";
    }
    auto records = loadJournal(path);
    EXPECT_EQ(records.size(), s.configs.size())
        << "a torn trailing line is skipped, not fatal";

    JournalRecord rec;
    EXPECT_FALSE(parseJournalLine(journalHeaderLine(), rec));
    EXPECT_FALSE(parseJournalLine("", rec));
    EXPECT_FALSE(parseJournalLine("{\"key\": \"x\", \"fing", rec));
    std::remove(path.c_str());
}

TEST(SweepEngine, InterruptedSweepResumesFromJournal)
{
    const auto &s = space();
    const std::string path =
        ::testing::TempDir() + "genie_sweep_resume.jsonl";
    std::remove(path.c_str());

    // Uninterrupted reference run.
    SweepEngine reference;
    auto expected = reference.run(s.configs, s.trace, s.dddg);

    // Interrupted run: stop cleanly after two fresh points.
    {
        SweepOptions options;
        options.journalPath = path;
        options.maxFreshPoints = 2;
        SweepEngine engine(std::move(options));
        engine.run(s.configs, s.trace, s.dddg);
        EXPECT_TRUE(engine.interrupted());
        EXPECT_EQ(engine.progress().done, 2u);
    }
    ASSERT_EQ(loadJournal(path).size(), 2u);

    // Resume: same journal file preloads the two finished points.
    SweepOptions options;
    options.journalPath = path;
    options.resumePath = path;
    SweepEngine engine(std::move(options));
    auto resumed = engine.run(s.configs, s.trace, s.dddg);

    EXPECT_FALSE(engine.interrupted());
    EXPECT_EQ(engine.progress().cached, 2u);
    EXPECT_EQ(engine.progress().done, s.configs.size() - 2);
    EXPECT_EQ(sweepJson(resumed), sweepJson(expected))
        << "resumed results must be byte-identical to an "
           "uninterrupted sweep";
    EXPECT_EQ(loadJournal(path).size(), s.configs.size())
        << "the resumed run appends the missing points";
    std::remove(path.c_str());
}

TEST(SweepEngine, ProgressCallbackCoversEveryPoint)
{
    const auto &s = space();
    std::size_t calls = 0;
    SweepProgress last;
    SweepOptions options;
    options.threads = 4;
    options.onProgress = [&](const SweepProgress &p) {
        ++calls;
        last = p;
    };
    SweepEngine engine(std::move(options));
    engine.run(s.configs, s.trace, s.dddg);
    EXPECT_EQ(calls, s.configs.size());
    EXPECT_EQ(last.done + last.cached, s.configs.size());
    EXPECT_GT(engine.simulatedEvents(), 0u);
    EXPECT_GT(engine.meps(), 0.0);
}

TEST(SweepEngine, ProgressSnapshotsAreMonotonicUnderContention)
{
    // Regression: reportProgress used to build its snapshot outside
    // progressMutex, so two workers finishing together could deliver
    // reordered snapshots and a callback would observe done/cached
    // counters going backwards. The snapshot is now taken under the
    // callback lock; every observed counter must be non-decreasing.
    const auto &s = space();
    // Prewarm a shared cache with half the space so cached and done
    // both move under contention (duplicates inside one run can race
    // past each other before either inserts, so prewarming is the
    // only way to guarantee hits).
    ResultCache cache;
    std::vector<SocConfig> half(s.configs.begin(),
                                s.configs.begin() + 3);
    {
        SweepOptions warmup;
        warmup.cache = &cache;
        SweepEngine prime(std::move(warmup));
        prime.run(half, s.trace, s.dddg);
    }
    std::vector<SocConfig> configs = s.configs;
    configs.insert(configs.end(), s.configs.begin(), s.configs.end());

    SweepProgress prev;
    std::size_t calls = 0;
    SweepOptions options;
    options.cache = &cache;
    options.threads = 4;
    options.onProgress = [&](const SweepProgress &p) {
        EXPECT_GE(p.done, prev.done)
            << "done went backwards across callbacks";
        EXPECT_GE(p.cached, prev.cached)
            << "cached went backwards across callbacks";
        EXPECT_GE(p.failed, prev.failed)
            << "failed went backwards across callbacks";
        EXPECT_LE(p.done + p.cached + p.failed, p.total);
        prev = p;
        ++calls;
    };
    SweepEngine engine(std::move(options));
    engine.run(configs, s.trace, s.dddg);
    EXPECT_EQ(calls, configs.size());
    EXPECT_EQ(prev.done + prev.cached, configs.size());
    EXPECT_GE(prev.cached, 2 * half.size())
        << "every occurrence of a prewarmed config must be a hit";
    EXPECT_GE(prev.done, s.configs.size() - half.size())
        << "the cold configs must still be simulated";
}

TEST(SweepEngine, CallbackMayReenterEngineOnFailurePath)
{
    // Regression: the failure path used to run the user callback
    // while still holding failureMutex, imposing a lock order that
    // deadlocked callbacks reaching back into the engine. The lock
    // is now scoped to the push_back; a callback that calls
    // progress() and failures() on every delivery — including
    // failure deliveries — must complete.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    for (std::size_t at : {std::size_t{1}, std::size_t{4}}) {
        SocConfig bad = s.configs.front();
        bad.lanes = 0; // validateSocConfig: fatal
        configs.insert(configs.begin() + at, bad);
    }

    SweepOptions options;
    options.threads = 4;
    options.continueOnError = true;
    SweepEngine *eng = nullptr;
    std::size_t maxFailedSeen = 0;
    options.onProgress = [&](const SweepProgress &p) {
        SweepProgress again = eng->progress();
        EXPECT_GE(again.done + again.cached + again.failed,
                  p.done + p.cached + p.failed);
        (void)eng->failures(); // stale during the run, but safe
        maxFailedSeen = std::max(maxFailedSeen, p.failed);
    };
    SweepEngine engine(std::move(options));
    eng = &engine;
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    EXPECT_EQ(maxFailedSeen, 2u);
    ASSERT_EQ(engine.failures().size(), 2u);
    EXPECT_EQ(engine.failures()[0].index, 1u);
    EXPECT_EQ(engine.failures()[1].index, 4u)
        << "failures must come back sorted by point index";
}

TEST(SweepEngine, EveryPointFailingStillCountsAndSortsFailures)
{
    // Regression: the dealing loop used to fill the per-worker
    // deques without their locks and the owner read st.failures
    // without failureMutex after the join. All-failure sweeps at
    // threads=4 are the densest exercise of both paths.
    const auto &s = space();
    std::vector<SocConfig> configs = s.configs;
    for (auto &c : configs)
        c.lanes = 0; // every point fails validation

    SweepOptions options;
    options.threads = 4;
    options.continueOnError = true;
    SweepEngine engine(std::move(options));
    auto points = engine.run(configs, s.trace, s.dddg);

    ASSERT_EQ(points.size(), configs.size());
    ASSERT_EQ(engine.failures().size(), configs.size());
    EXPECT_EQ(engine.progress().failed, configs.size());
    EXPECT_EQ(engine.progress().done, 0u);
    for (std::size_t i = 0; i < engine.failures().size(); ++i) {
        EXPECT_EQ(engine.failures()[i].index, i);
        EXPECT_EQ(engine.failures()[i].config.lanes, 0u);
    }
}

TEST(SweepEngine, HostAccountingCountsFreshRunsOnly)
{
    // A small DMA + cache space on the smallest kernel. The engine
    // times each fresh point's run() with two clock reads and takes
    // its event count from the point's own queue.
    Trace trace = makeWorkload("aes-aes")->build().trace;
    Dddg dddg(trace);
    std::vector<SocConfig> configs;
    for (MemInterface mem :
         {MemInterface::ScratchpadDma, MemInterface::Cache}) {
        for (unsigned lanes : {1u, 4u}) {
            SocConfig c;
            c.memType = mem;
            c.lanes = lanes;
            configs.push_back(c);
        }
    }
    std::uint64_t standaloneEvents = 0;
    for (const auto &c : configs) {
        Soc soc(c, trace, dddg);
        soc.run();
        standaloneEvents += soc.eventQueue().numExecuted();
    }
    ASSERT_GT(standaloneEvents, 0u);

    for (unsigned threads : {1u, 4u}) {
        ResultCache cache;
        SweepOptions options;
        options.threads = threads;
        options.cache = &cache;
        SweepEngine engine(std::move(options));
        StatRegistry registry;
        engine.registerStats(registry);

        std::uint64_t t0 = profilerNowNs();
        engine.run(configs, trace, dddg);
        std::uint64_t sweepNs = profilerNowNs() - t0;
        EXPECT_EQ(engine.simulatedEvents(), standaloneEvents)
            << threads << " threads";
        EXPECT_GT(engine.hostWallNs(), 0u);
        EXPECT_LE(engine.hostWallNs(), threads * sweepNs)
            << "run() time summed over workers cannot exceed the "
               "pool's wall time";
        EXPECT_GT(engine.meps(), 0.0);
        EXPECT_EQ(registry.get("sweep.events"),
                  static_cast<double>(standaloneEvents));

        // Served entirely from the warm cache: nothing ran.
        engine.run(configs, trace, dddg);
        EXPECT_EQ(engine.progress().cached, configs.size());
        EXPECT_EQ(engine.simulatedEvents(), 0u);
        EXPECT_EQ(engine.hostWallNs(), 0u);
        EXPECT_EQ(engine.meps(), 0.0);
        EXPECT_EQ(engine.progress().meps, 0.0);
    }
}

TEST(SweepEngine, ConfigCostPrefersCacheAndNarrowDatapaths)
{
    SocConfig dma;
    dma.memType = MemInterface::ScratchpadDma;
    dma.lanes = 16;
    SocConfig cacheCfg = dma;
    cacheCfg.memType = MemInterface::Cache;
    EXPECT_GT(SweepEngine::configCost(cacheCfg),
              SweepEngine::configCost(dma))
        << "cache-mode points simulate more machinery";
    SocConfig narrow = dma;
    narrow.lanes = 1;
    EXPECT_GT(SweepEngine::configCost(narrow),
              SweepEngine::configCost(dma))
        << "fewer lanes mean more simulated compute cycles";
}

TEST(ResultCache, BoundedCacheEvictsLeastRecentlyUsed)
{
    ResultCache cache(2);
    SocResults r;
    cache.insert("a", r);
    cache.insert("b", r);
    SocResults out;
    ASSERT_TRUE(cache.lookup("a", out)); // refresh: "b" is now LRU
    cache.insert("c", r);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.lookup("b", out))
        << "the least recently used entry is the victim";
    EXPECT_TRUE(cache.lookup("a", out));
    EXPECT_TRUE(cache.lookup("c", out));
}

TEST(ResultCache, DefaultIsUnbounded)
{
    ResultCache cache;
    SocResults r;
    for (int i = 0; i < 1000; ++i)
        cache.insert(std::to_string(i), r);
    EXPECT_EQ(cache.size(), 1000u);
    EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Journal, CheckedLoaderCountsInteriorCorruptLines)
{
    const std::string path =
        ::testing::TempDir() + "genie_corrupt_journal.jsonl";
    std::remove(path.c_str());
    {
        SocResults r;
        std::ofstream out(path);
        out << journalHeaderLine();
        out << journalRecordLine("key-a", 0x1, r);
        out << "garbage that is not a record\n"; // interior damage
        out << journalRecordLine("key-b", 0x2, r);
    }
    JournalLoadResult loaded = loadJournalChecked(path);
    EXPECT_EQ(loaded.records.size(), 2u)
        << "records around the damage must still load";
    EXPECT_EQ(loaded.corruptLines, 1u)
        << "interior corruption must be counted, never silent";
    EXPECT_FALSE(loaded.tornFinalLine);
    std::remove(path.c_str());
}

TEST(Journal, TornFinalLineIsSilentlySkippedNotCorrupt)
{
    const std::string path =
        ::testing::TempDir() + "genie_torn_journal.jsonl";
    std::remove(path.c_str());
    {
        SocResults r;
        std::ofstream out(path);
        out << journalHeaderLine();
        out << journalRecordLine("key-a", 0x1, r);
        out << "{\"key\": \"key-b\", \"finge"; // kill-mid-write
    }
    JournalLoadResult loaded = loadJournalChecked(path);
    EXPECT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.corruptLines, 0u)
        << "a torn final line is the expected interruption shape";
    EXPECT_TRUE(loaded.tornFinalLine);
    std::remove(path.c_str());
}

TEST(SpaceFilter, ParsesAxesAndRejectsGarbage)
{
    SpaceFilter f = SpaceFilter::parse(
        "lanes=1,4;partitions=2;cache_kb=2,16");
    EXPECT_EQ(f.lanes, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(f.partitions, (std::vector<unsigned>{2}));
    EXPECT_EQ(f.cacheKb, (std::vector<unsigned>{2, 16}));
    EXPECT_TRUE(f.cacheLine.empty());
    EXPECT_THROW(SpaceFilter::parse("bogus=1"), FatalError);
    EXPECT_THROW(SpaceFilter::parse("lanes=abc"), FatalError);
}

TEST(SpaceFilter, CacheAxesOnlyConstrainCacheConfigs)
{
    SocConfig base;
    SpaceFilter f = SpaceFilter::parse(
        "lanes=1,4;cache_kb=2;cache_line=64;cache_ports=1;"
        "cache_assoc=4");
    auto dma = filterConfigs(DesignSpace::dma(base), f);
    // DMA configs carry no cache: only the lanes axis applies.
    EXPECT_EQ(dma.size(), 2u * DesignSpace::partitionValues().size());
    auto cached = filterConfigs(DesignSpace::cache(base), f);
    EXPECT_EQ(cached.size(), 2u);
    for (const auto &c : cached) {
        EXPECT_EQ(c.cache.sizeBytes, 2u * 1024u);
        EXPECT_EQ(c.cache.lineBytes, 64u);
        EXPECT_EQ(c.cache.ports, 1u);
        EXPECT_EQ(c.cache.assoc, 4u);
    }
}

} // namespace
} // namespace genie
