/**
 * @file
 * Property-based tests: parameterized sweeps asserting the
 * monotonicity and conservation invariants the whole design-space
 * methodology rests on, across multiple workloads and design axes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/fingerprint.hh"
#include "core/soc.hh"
#include "dse/sweep.hh"
#include "sim/event_arena.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

struct PreparedWorkload
{
    Trace trace;
    Dddg dddg;
    explicit PreparedWorkload(const std::string &name)
        : trace(makeWorkload(name)->build().trace), dddg(trace)
    {}
};

const PreparedWorkload &
prepared(const std::string &name)
{
    static std::map<std::string, std::unique_ptr<PreparedWorkload>>
        cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name,
                          std::make_unique<PreparedWorkload>(name))
                 .first;
    }
    return *it->second;
}

/** Workloads used for the cross-cutting property sweeps (chosen to
 * span compute-bound, memory-bound, serial, and irregular). */
std::vector<std::string>
propertyWorkloads()
{
    return {"gemm-ncubed", "stencil-stencil2d", "spmv-crs", "kmp-kmp"};
}

class PropertyTest : public ::testing::TestWithParam<std::string>
{
  protected:
    const PreparedWorkload &w() { return prepared(GetParam()); }
};

TEST_P(PropertyTest, LaneSweepNeverIncreasesComputeCycles)
{
    Cycles prev = 0;
    bool first = true;
    for (unsigned lanes : {1u, 2u, 4u, 8u, 16u}) {
        SocConfig cfg;
        cfg.isolated = true;
        cfg.lanes = lanes;
        cfg.spadPartitions = 16;
        SocResults r = runDesign(cfg, w().trace, w().dddg);
        if (!first) {
            EXPECT_LE(r.accelCycles, prev + prev / 50)
                << "lanes=" << lanes;
        }
        prev = r.accelCycles;
        first = false;
    }
}

TEST_P(PropertyTest, PartitionSweepNeverIncreasesComputeCycles)
{
    Cycles prev = 0;
    bool first = true;
    for (unsigned parts : {1u, 2u, 4u, 8u, 16u}) {
        SocConfig cfg;
        cfg.isolated = true;
        cfg.lanes = 8;
        cfg.spadPartitions = parts;
        SocResults r = runDesign(cfg, w().trace, w().dddg);
        if (!first) {
            EXPECT_LE(r.accelCycles, prev + prev / 50)
                << "partitions=" << parts;
        }
        prev = r.accelCycles;
        first = false;
    }
}

TEST_P(PropertyTest, PipelinedDmaNeverSlower)
{
    SocConfig base;
    base.lanes = 4;
    base.spadPartitions = 4;
    SocConfig piped = base;
    piped.dma.pipelined = true;
    SocResults rb = runDesign(base, w().trace, w().dddg);
    SocResults rp = runDesign(piped, w().trace, w().dddg);
    EXPECT_LE(rp.totalTicks, rb.totalTicks + rb.totalTicks / 100);
}

TEST_P(PropertyTest, TriggeredComputeNeverSlower)
{
    SocConfig piped;
    piped.lanes = 4;
    piped.spadPartitions = 4;
    piped.dma.pipelined = true;
    SocConfig trig = piped;
    trig.dma.triggeredCompute = true;
    SocResults rp = runDesign(piped, w().trace, w().dddg);
    SocResults rt = runDesign(trig, w().trace, w().dddg);
    EXPECT_LE(rt.totalTicks, rp.totalTicks + rp.totalTicks / 100);
}

TEST_P(PropertyTest, CacheSizeSweepMissRateMonotone)
{
    double prev = 1.0;
    for (unsigned kb : {2u, 8u, 32u}) {
        SocConfig cfg;
        cfg.memType = MemInterface::Cache;
        cfg.lanes = 4;
        cfg.cache.sizeBytes = kb * 1024;
        SocResults r = runDesign(cfg, w().trace, w().dddg);
        EXPECT_LE(r.cacheMissRate, prev + 0.02) << kb << "KB";
        prev = r.cacheMissRate;
    }
}

TEST_P(PropertyTest, BurgerDecompositionOrdering)
{
    // processing time <= +latency <= +bandwidth (Figure 7's method
    // requires the three runs to be ordered).
    SocConfig processing;
    processing.memType = MemInterface::Cache;
    processing.lanes = 4;
    processing.perfectMemory = true;
    SocConfig latency = processing;
    latency.perfectMemory = false;
    latency.infiniteBandwidth = true;
    SocConfig bandwidth = latency;
    bandwidth.infiniteBandwidth = false;

    Tick tp = runDesign(processing, w().trace, w().dddg).totalTicks;
    Tick tl = runDesign(latency, w().trace, w().dddg).totalTicks;
    Tick tb = runDesign(bandwidth, w().trace, w().dddg).totalTicks;
    // Allow a few percent of slack: prefetcher timing interacts with
    // bus bandwidth, so the ordering is monotone only to first order
    // (the Figure 7 bench clamps negative components to zero).
    EXPECT_LE(tp, tl + tl / 20);
    EXPECT_LE(tl, tb + tb / 20);
}

TEST_P(PropertyTest, BreakdownConservesTotalRuntime)
{
    for (bool pipe : {false, true}) {
        for (bool trig : {false, true}) {
            SocConfig cfg;
            cfg.lanes = 4;
            cfg.spadPartitions = 4;
            cfg.dma.pipelined = pipe;
            cfg.dma.triggeredCompute = trig;
            SocResults r = runDesign(cfg, w().trace, w().dddg);
            EXPECT_EQ(r.breakdown.total(), r.totalTicks)
                << "pipe=" << pipe << " trig=" << trig;
        }
    }
}

TEST_P(PropertyTest, EnergyScalesWithRuntimeLeakage)
{
    // The same design with a wider bus finishes sooner and must not
    // consume more leakage energy.
    SocConfig narrow;
    narrow.lanes = 4;
    narrow.spadPartitions = 4;
    narrow.busWidthBits = 32;
    SocConfig wide = narrow;
    wide.busWidthBits = 64;
    SocResults rn = runDesign(narrow, w().trace, w().dddg);
    SocResults rw = runDesign(wide, w().trace, w().dddg);
    EXPECT_LE(rw.totalTicks, rn.totalTicks + rn.totalTicks / 100);
    EXPECT_LE(rw.leakagePj, rn.leakagePj * 1.01);
}

TEST_P(PropertyTest, DeterministicAcrossRuns)
{
    SocConfig cfg;
    cfg.lanes = 4;
    cfg.spadPartitions = 4;
    cfg.dma.pipelined = true;
    cfg.dma.triggeredCompute = true;
    SocResults a = runDesign(cfg, w().trace, w().dddg);
    SocResults b = runDesign(cfg, w().trace, w().dddg);
    EXPECT_EQ(a.totalTicks, b.totalTicks);
    EXPECT_DOUBLE_EQ(a.energyPj, b.energyPj);
}

// ---------------------------------------------------------------------
// DesignSpace enumeration and config-identity properties
// ---------------------------------------------------------------------

/** Every Figure 3 space the sweeps enumerate, concatenated. */
std::vector<SocConfig>
allEnumeratedConfigs()
{
    SocConfig base;
    std::vector<SocConfig> all = DesignSpace::isolated(base);
    for (auto space :
         {DesignSpace::dma(base), DesignSpace::dmaOptions(base),
          DesignSpace::cache(base)})
        all.insert(all.end(), space.begin(), space.end());
    return all;
}

TEST(DesignSpaceProperties, EnumerationSizesAreAxisCrossProducts)
{
    // Derived from the published axis value lists, not hard-coded
    // counts: adding a Figure 3 value must grow every space that
    // sweeps the axis.
    SocConfig base;
    std::size_t lanes = DesignSpace::laneValues().size();
    std::size_t parts = DesignSpace::partitionValues().size();
    EXPECT_EQ(DesignSpace::isolated(base).size(), lanes * parts);
    EXPECT_EQ(DesignSpace::dma(base).size(), lanes * parts);
    EXPECT_EQ(DesignSpace::dmaOptions(base).size(),
              lanes * parts * 2 * 2);
    EXPECT_EQ(DesignSpace::cache(base).size(),
              lanes * DesignSpace::cacheSizeValues().size() *
                  DesignSpace::cacheLineValues().size() *
                  DesignSpace::cachePortValues().size() *
                  DesignSpace::cacheAssocValues().size());
}

TEST(DesignSpaceProperties, EnumerationsContainNoDuplicates)
{
    SocConfig base;
    for (auto space :
         {DesignSpace::isolated(base), DesignSpace::dma(base),
          DesignSpace::dmaOptions(base), DesignSpace::cache(base)}) {
        std::set<std::string> keys;
        for (const auto &c : space)
            keys.insert(configCanonicalKey(c));
        EXPECT_EQ(keys.size(), space.size())
            << "a space enumerated the same design point twice";
    }
}

TEST(DesignSpaceProperties, IsolatedAsCacheLandsInSweepableRange)
{
    const auto &sizes = DesignSpace::cacheSizeValues();
    const auto &ports = DesignSpace::cachePortValues();
    for (const SocConfig &iso : DesignSpace::isolated(SocConfig{})) {
        for (std::uint64_t ws :
             {std::uint64_t(1), std::uint64_t(1500),
              std::uint64_t(3 * 1024), std::uint64_t(20 * 1024),
              std::uint64_t(48 * 1024), std::uint64_t(1 << 20)}) {
            SocConfig mapped = DesignSpace::isolatedAsCache(iso, ws);
            EXPECT_EQ(mapped.memType, MemInterface::Cache);
            EXPECT_FALSE(mapped.isolated);
            EXPECT_NE(std::find(sizes.begin(), sizes.end(),
                                mapped.cache.sizeBytes),
                      sizes.end())
                << "cache size " << mapped.cache.sizeBytes
                << " is not a sweepable Figure 3 value (ws=" << ws
                << ")";
            if (ws <= sizes.back()) {
                EXPECT_GE(mapped.cache.sizeBytes, ws)
                    << "an in-range working set must fit";
            }
            EXPECT_NE(std::find(ports.begin(), ports.end(),
                                mapped.cache.ports),
                      ports.end())
                << "ports " << mapped.cache.ports
                << " is not a sweepable value";
        }
    }
}

TEST(ConfigIdentity, FingerprintInjectiveOverEnumeratedSpaces)
{
    // The ResultCache keys on the canonical string, so a fingerprint
    // collision could never corrupt results — but the journal stores
    // the fingerprint as the compact identity, so prove it injective
    // over everything the sweeps enumerate: distinct keys must never
    // share a fingerprint, and equal keys must (trivially) agree.
    std::map<std::uint64_t, std::string> byFingerprint;
    std::size_t distinct = 0;
    for (const SocConfig &c : allEnumeratedConfigs()) {
        std::string key = configCanonicalKey(c);
        std::uint64_t fp = configFingerprint(c);
        auto it = byFingerprint.find(fp);
        if (it == byFingerprint.end()) {
            byFingerprint.emplace(fp, key);
            ++distinct;
        } else {
            EXPECT_EQ(it->second, key)
                << "fingerprint collision between distinct configs";
        }
    }
    EXPECT_EQ(byFingerprint.size(), distinct);
    EXPECT_GT(distinct, 100u);
}

TEST(ConfigIdentity, CrossSpaceDuplicatesShareOneKey)
{
    // The Fig. 8 DMA space is the all-optimizations slice of the
    // Fig. 6 space: every one of its points must hash to a key that
    // the Fig. 6 enumeration also produces, which is what makes the
    // shared-cache dedupe between the two sweeps work.
    SocConfig base;
    std::set<std::string> fig6Keys;
    for (const auto &c : DesignSpace::dmaOptions(base))
        fig6Keys.insert(configCanonicalKey(c));
    for (const auto &c : DesignSpace::dma(base)) {
        EXPECT_TRUE(fig6Keys.count(configCanonicalKey(c)))
            << "Fig. 8 DMA point missing from the Fig. 6 space: "
            << configCanonicalKey(c);
    }
}

TEST(ConfigIdentity, ObservabilityKnobsNeverChangeTheKey)
{
    // Tracing and metrics are passive by contract (a traced run
    // byte-matches a plain run), so they must not defeat the result
    // cache.
    SocConfig plain;
    plain.lanes = 4;
    SocConfig traced = plain;
    traced.tracing.enabled = true;
    traced.tracing.outPath = "/tmp/spans.json";
    traced.metrics.samplePeriod = 100;
    traced.metrics.statsJsonPath = "/tmp/stats.json";
    EXPECT_EQ(configCanonicalKey(plain), configCanonicalKey(traced));
    EXPECT_EQ(configFingerprint(plain), configFingerprint(traced));

    // Every result-affecting knob must move the key.
    SocConfig other = plain;
    other.lanes = 8;
    EXPECT_NE(configCanonicalKey(plain), configCanonicalKey(other));
    SocConfig wider = plain;
    wider.busWidthBits = 64;
    EXPECT_NE(configCanonicalKey(plain), configCanonicalKey(wider));
    SocConfig piped = plain;
    piped.dma.pipelined = true;
    EXPECT_NE(configCanonicalKey(plain), configCanonicalKey(piped));
}

// ---------------------------------------------------------------------
// Event-kernel queue/arena properties: the ordering contract ((when,
// seq) strict total order) and the arena's lifetime contract, fuzzed
// against naive reference models.
// ---------------------------------------------------------------------

/** Drives one EventQueue through a fuzzed schedule and records the
 * (label, tick) firing sequence. Every fifth external event
 * self-reschedules a child at the current tick (zero delta), so the
 * child lands behind every same-tick event already queued. Labels
 * alternate between the std::function and raw-dispatch schedule
 * overloads so both are held to the contract. */
struct QueueFuzz
{
    EventQueue eq;
    std::vector<std::pair<int, Tick>> fired;

    static bool
    respawns(int label)
    {
        return label < 1000000 && label % 5 == 0;
    }

    void
    fire(int label)
    {
        fired.emplace_back(label, eq.curTick());
        if (respawns(label))
            scheduleEvent(eq.curTick(), label + 1000000);
    }

    static void
    rawFire(void *c, std::uint64_t label)
    {
        static_cast<QueueFuzz *>(c)->fire(static_cast<int>(label));
    }

    EventId
    scheduleEvent(Tick when, int label)
    {
        if (label % 2) {
            return eq.schedule(
                when, [this, label] { fire(label); }, "fuzz.fn");
        }
        return eq.schedule(when, &QueueFuzz::rawFire, this,
                           static_cast<std::uint64_t>(label),
                           "fuzz.raw");
    }
};

/** Naive sorted-vector reference: linear min-scan by (when, seq).
 * Obviously correct, so any divergence indicts the queue. */
struct RefModel
{
    struct Ev
    {
        Tick when;
        std::uint64_t seq;
        int label;
    };
    std::vector<Ev> pending;
    std::uint64_t nextSeq = 0;
    Tick cur = 0;
    std::vector<std::pair<int, Tick>> fired;

    std::uint64_t
    schedule(Tick when, int label)
    {
        pending.push_back({when, nextSeq, label});
        return nextSeq++;
    }

    void
    deschedule(std::uint64_t seq)
    {
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].seq == seq) {
                pending.erase(pending.begin() + i);
                return;
            }
        }
    }

    bool
    step()
    {
        if (pending.empty())
            return false;
        std::size_t best = 0;
        for (std::size_t i = 1; i < pending.size(); ++i) {
            const Ev &a = pending[i];
            const Ev &b = pending[best];
            if (a.when < b.when ||
                (a.when == b.when && a.seq < b.seq))
                best = i;
        }
        Ev e = pending[best];
        pending.erase(pending.begin() + best);
        cur = e.when;
        fired.emplace_back(e.label, e.when);
        if (QueueFuzz::respawns(e.label))
            schedule(cur, e.label + 1000000);
        return true;
    }
};

TEST(QueueProperties, FuzzedSchedulesMatchSortedReferenceModel)
{
    // Randomized schedule/deschedule/step interleavings — dense
    // same-tick ties (small deltas), far-future jumps, zero-delta
    // self-reschedules, and deschedules that sometimes hit the heap
    // top — must fire in exactly the reference model's (when, seq)
    // order.
    for (std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
        Rng rng(seed);
        QueueFuzz q;
        RefModel m;
        std::vector<std::pair<EventId, std::uint64_t>> handles;
        int nextLabel = 1;
        for (int op = 0; op < 4000; ++op) {
            std::uint64_t pick = rng.below(10);
            if (pick < 5) {
                Tick delta = rng.below(3) ? rng.below(64)
                                          : rng.below(100000);
                int label = nextLabel++;
                ASSERT_EQ(q.eq.curTick(), m.cur);
                handles.emplace_back(
                    q.scheduleEvent(q.eq.curTick() + delta, label),
                    m.schedule(m.cur + delta, label));
            } else if (pick < 7 && !handles.empty()) {
                // Includes already-fired and already-cancelled
                // handles: deschedule must be a safe no-op on
                // both sides (generation staling on the queue).
                std::size_t i = rng.below(handles.size());
                q.eq.deschedule(handles[i].first);
                m.deschedule(handles[i].second);
            } else {
                ASSERT_EQ(q.eq.step(), m.step());
            }
        }
        while (q.eq.step())
            ASSERT_TRUE(m.step());
        EXPECT_FALSE(m.step());
        EXPECT_EQ(q.fired, m.fired) << "seed " << seed;
        EXPECT_EQ(q.eq.size(), 0u);
        // Lazy-cancelled entries must all have been reaped: the
        // arena's leak accounting closes to zero.
        EXPECT_EQ(q.eq.allocatedEntries(), 0u);
    }
}

TEST(ArenaProperties, RecyclesSlotsAndStalesOldHandles)
{
    int alive = 0;
    struct Probe
    {
        int *alive;
        int value;
        Probe(int *a, int v) : alive(a), value(v) { ++*alive; }
        ~Probe() { --*alive; }
    };
    ObjectArena<Probe> arena;
    std::uint32_t s0 = 0, s1 = 0;
    Probe *a = arena.create(s0, &alive, 1);
    arena.create(s1, &alive, 2);
    EXPECT_EQ(alive, 2);
    EXPECT_EQ(arena.live(), 2u);
    std::uint32_t g0 = arena.generation(s0);
    EXPECT_EQ(arena.get(s0, g0), a);

    arena.destroy(s0);
    EXPECT_EQ(alive, 1);
    EXPECT_EQ(arena.get(s0, g0), nullptr) << "stale handle lived on";

    std::uint32_t s2 = 0;
    Probe *c = arena.create(s2, &alive, 3);
    EXPECT_EQ(s2, s0) << "freelist must recycle the freed slot";
    EXPECT_NE(arena.generation(s2), g0);
    EXPECT_EQ(arena.get(s2, arena.generation(s2)), c);
    EXPECT_EQ(arena.get(s0, g0), nullptr)
        << "recycling must not revive the old generation's handle";

    arena.destroy(s1);
    arena.destroy(s2);
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(arena.capacity(), 2u)
        << "recycling must not grow the high-water mark";
}

TEST(ArenaProperties, LeakAccountingClosesUnderFuzzedChurn)
{
    int alive = 0;
    struct Probe
    {
        int *alive;
        explicit Probe(int *a) : alive(a) { ++*alive; }
        ~Probe() { --*alive; }
    };
    Rng rng(11);
    ObjectArena<Probe> arena;
    std::vector<std::uint32_t> liveSlots;
    std::size_t peak = 0;
    for (int op = 0; op < 20000; ++op) {
        if (liveSlots.empty() || rng.below(5) < 3) {
            std::uint32_t slot = 0;
            arena.create(slot, &alive);
            liveSlots.push_back(slot);
        } else {
            std::size_t i = rng.below(liveSlots.size());
            arena.destroy(liveSlots[i]);
            liveSlots[i] = liveSlots.back();
            liveSlots.pop_back();
        }
        ASSERT_EQ(arena.live(), liveSlots.size());
        ASSERT_EQ(static_cast<std::size_t>(alive), liveSlots.size());
        peak = std::max(peak, liveSlots.size());
    }
    for (std::uint32_t slot : liveSlots)
        arena.destroy(slot);
    EXPECT_EQ(arena.live(), 0u);
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(arena.capacity(), peak)
        << "capacity must track the live high-water mark, not churn";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PropertyTest,
    ::testing::ValuesIn(propertyWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace genie
