/**
 * @file
 * Accelerator-model unit tests: the trace-builder DSL, DDDG
 * construction (register + memory dependences, critical path), and
 * the datapath scheduler (dataflow, lanes, waves, FU limits,
 * scratchpad conflicts, ready-bit stalls, per-lane miss stalls) and its
 * issue contract (the 64-entry window, budgets, issue attempts).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "accel/datapath.hh"
#include "accel/dddg.hh"
#include "accel/trace.hh"
#include "core/config_parse.hh"
#include "core/soc.hh"
#include "dse/journal.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

namespace genie
{
namespace
{

constexpr Tick accelPeriod = 10000; // 100 MHz

TEST(TraceBuilder, EmitsOpsInProgramOrder)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId l = tb.load(a, 0, 4);
    NodeId c = tb.op(Opcode::IntAdd, {l});
    EXPECT_EQ(l, 0u);
    EXPECT_EQ(c, 1u);
    Trace t = tb.take();
    EXPECT_EQ(t.ops.size(), 2u);
    EXPECT_EQ(t.ops[1].deps.size(), 1u);
}

TEST(TraceBuilder, RejectsOutOfBoundsAccess)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    EXPECT_DEATH(tb.load(a, 64, 4), "out of bounds");
}

TEST(TraceBuilder, RejectsZeroSizedArray)
{
    TraceBuilder tb;
    EXPECT_THROW(tb.addArray("z", 0, 4, true, false), FatalError);
}

TEST(TraceBuilder, ReduceBuildsBalancedTree)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    std::vector<NodeId> leaves;
    for (int i = 0; i < 8; ++i)
        leaves.push_back(tb.op(Opcode::Mov, {}));
    tb.reduce(Opcode::FpAdd, leaves);
    Trace t = tb.take();
    // 8 leaves + 7 internal adds.
    EXPECT_EQ(t.ops.size(), 15u);
    Dddg g(t);
    // Balanced tree depth: 3 adds above any leaf.
    EXPECT_EQ(g.criticalPathCycles(t),
              latencyOf(Opcode::Mov) + 3 * latencyOf(Opcode::FpAdd));
}

TEST(TraceBuilder, InputOutputAccounting)
{
    TraceBuilder tb;
    tb.addArray("in", 128, 4, true, false);
    tb.addArray("out", 64, 4, false, true);
    tb.addArray("both", 32, 4, true, true);
    tb.addArray("priv", 256, 4, false, false, true);
    Trace t = tb.peek();
    EXPECT_EQ(t.totalInputBytes(), 160u);
    EXPECT_EQ(t.totalOutputBytes(), 96u);
    EXPECT_EQ(t.totalArrayBytes(), 480u);
}

TEST(Dddg, InfersStoreToLoadDependence)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    NodeId s = tb.store(a, 16, 4, {v});
    NodeId l = tb.load(a, 16, 4);
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_GE(g.numMemoryEdges(), 1u);
    bool found = false;
    for (NodeId c : g.children(s))
        found = found || c == l;
    EXPECT_TRUE(found);
}

TEST(Dddg, NoFalseDependenceBetweenDifferentAddresses)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    NodeId s = tb.store(a, 0, 4, {v});
    tb.load(a, 32, 4);
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_TRUE(g.children(s).empty());
}

TEST(Dddg, DuplicateDepsCountOnce)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId x = tb.op(Opcode::Mov, {});
    NodeId sq = tb.op(Opcode::FpMul, {x, x}); // x*x
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_EQ(g.parents(sq), 1u);
    EXPECT_EQ(g.children(x).size(), 1u);
}

TEST(Dddg, LastWriterWins)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId s1 = tb.store(a, 0, 4, {});
    NodeId s2 = tb.store(a, 0, 4, {});
    NodeId l = tb.load(a, 0, 4);
    Trace t = tb.take();
    Dddg g(t);
    bool fromS1 = false, fromS2 = false;
    for (NodeId c : g.children(s1))
        fromS1 = fromS1 || c == l;
    for (NodeId c : g.children(s2))
        fromS2 = fromS2 || c == l;
    EXPECT_FALSE(fromS1);
    EXPECT_TRUE(fromS2);
}

TEST(Dddg, CriticalPathOfChain)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId n = tb.op(Opcode::FpMul, {});
    for (int i = 0; i < 9; ++i)
        n = tb.op(Opcode::FpMul, {n});
    Trace t = tb.take();
    Dddg g(t);
    EXPECT_EQ(g.criticalPathCycles(t), 10 * latencyOf(Opcode::FpMul));
}

// ---------------------------------------------------------------
// Datapath scheduling.
// ---------------------------------------------------------------

struct DatapathFixture
{
    explicit DatapathFixture(Trace t, Datapath::Params params = {})
        : trace(std::move(t)), dddg(trace),
          spad("spad", eq, ClockDomain(accelPeriod)),
          fe("fe", 64),
          dp("dp", eq, ClockDomain(accelPeriod), trace, dddg, params,
             Datapath::MemMode::ScratchpadDma)
    {
        std::vector<int> spadIds, feIds;
        for (const auto &a : trace.arrays) {
            Scratchpad::ArrayConfig sc;
            sc.name = a.name;
            sc.sizeBytes = a.sizeBytes;
            sc.wordBytes = a.wordBytes;
            sc.partitions = partitions;
            spadIds.push_back(spad.addArray(sc));
            int feId = fe.addArray(a.sizeBytes);
            feIds.push_back(trackReadyBits ? feId : -1);
            if (!trackReadyBits)
                fe.fill(feId, 0, a.sizeBytes);
        }
        dp.attachScratchpad(&spad, spadIds, &fe, feIds);
    }

    static unsigned partitions;
    static bool trackReadyBits;

    EventQueue eq;
    Trace trace;
    Dddg dddg;
    Scratchpad spad;
    FullEmptyBits fe;
    Datapath dp;

    Cycles
    runToCompletion()
    {
        bool done = false;
        dp.start([&] { done = true; });
        eq.run();
        EXPECT_TRUE(done);
        return dp.executedCycles();
    }
};

unsigned DatapathFixture::partitions = 16;
bool DatapathFixture::trackReadyBits = false;

Trace
parallelTrace(unsigned iterations, unsigned chainLen)
{
    TraceBuilder tb;
    int a = tb.addArray("a", 4096, 4, true, false);
    int b = tb.addArray("b", 4096, 4, false, true);
    for (unsigned i = 0; i < iterations; ++i) {
        tb.beginIteration();
        NodeId v = tb.load(a, (i * 4) % 4096, 4);
        for (unsigned c = 0; c < chainLen; ++c)
            v = tb.op(Opcode::IntAdd, {v});
        tb.store(b, (i * 4) % 4096, 4, {v});
    }
    return tb.take();
}

TEST(Datapath, ExecutesAllNodes)
{
    DatapathFixture::partitions = 16;
    DatapathFixture::trackReadyBits = false;
    DatapathFixture f(parallelTrace(8, 4));
    f.runToCompletion();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("nodes"),
                     static_cast<double>(f.trace.ops.size()));
}

TEST(Datapath, MoreLanesFasterOnParallelWork)
{
    Datapath::Params p1;
    p1.lanes = 1;
    Datapath::Params p4;
    p4.lanes = 4;
    DatapathFixture f1(parallelTrace(64, 8), p1);
    DatapathFixture f4(parallelTrace(64, 8), p4);
    Cycles c1 = f1.runToCompletion();
    Cycles c4 = f4.runToCompletion();
    EXPECT_LT(c4, c1);
    EXPECT_GT(static_cast<double>(c1) / static_cast<double>(c4), 2.0);
}

TEST(Datapath, SerialChainGainsNothingFromLanes)
{
    // One long dependence chain in a single iteration.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    for (int i = 0; i < 200; ++i)
        v = tb.op(Opcode::IntAdd, {v});
    Trace t = tb.take();

    Datapath::Params p1;
    p1.lanes = 1;
    Datapath::Params p16;
    p16.lanes = 16;
    DatapathFixture f1(t, p1);
    DatapathFixture f16(t, p16);
    EXPECT_EQ(f1.runToCompletion(), f16.runToCompletion());
}

TEST(Datapath, WaveBarrierOrdersIterationGroups)
{
    // With 2 lanes, iterations {0,1} must complete before {2,3}
    // start: total time is at least 2x the single-wave time.
    Datapath::Params p;
    p.lanes = 2;
    DatapathFixture f2(parallelTrace(2, 32), p);
    DatapathFixture f4(parallelTrace(4, 32), p);
    Cycles one = f2.runToCompletion();
    Cycles two = f4.runToCompletion();
    EXPECT_GE(two, 2 * one - 2);
}

TEST(Datapath, FuIssueLimitsThrottle)
{
    // 32 independent FP multiplies in one iteration; 1 lane with one
    // FP multiplier issues one per cycle.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (int i = 0; i < 32; ++i)
        tb.op(Opcode::FpMul, {});
    Trace t = tb.take();
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(t, p);
    Cycles c = f.runToCompletion();
    EXPECT_GE(c, 32u); // one issue per cycle + pipeline drain
}

TEST(Datapath, DividerIsUnpipelined)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (int i = 0; i < 4; ++i)
        tb.op(Opcode::FpDiv, {});
    Trace t = tb.take();
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture f(t, p);
    Cycles c = f.runToCompletion();
    EXPECT_GE(c, 4 * latencyOf(Opcode::FpDiv));
}

TEST(Datapath, BankConflictsSlowScratchpadAccess)
{
    DatapathFixture::partitions = 1;
    DatapathFixture fNarrow(parallelTrace(64, 1),
                            [] {
                                Datapath::Params p;
                                p.lanes = 8;
                                return p;
                            }());
    Cycles narrow = fNarrow.runToCompletion();
    double conflicts = fNarrow.dp.stats().get("bankConflicts");

    DatapathFixture::partitions = 16;
    DatapathFixture fWide(parallelTrace(64, 1),
                          [] {
                              Datapath::Params p;
                              p.lanes = 8;
                              return p;
                          }());
    Cycles wide = fWide.runToCompletion();

    EXPECT_GT(conflicts, 0.0);
    EXPECT_LE(wide, narrow);
}

TEST(Datapath, ReadyBitStallUntilFill)
{
    DatapathFixture::partitions = 16;
    DatapathFixture::trackReadyBits = true;
    DatapathFixture f(parallelTrace(4, 2));
    DatapathFixture::trackReadyBits = false;

    bool done = false;
    f.dp.start([&] { done = true; });
    f.eq.run();
    EXPECT_FALSE(done) << "loads must stall on empty ready bits";
    EXPECT_GT(f.dp.stats().get("readyBitStalls"), 0.0);

    // Fill the input array: execution resumes and completes.
    f.fe.fill(0, 0, 4096);
    f.eq.run();
    EXPECT_TRUE(done);
}

// ---------------------------------------------------------------
// The issue contract: oldest-first dataflow issue within a 64-entry
// window per lane, per-cycle FU and memory budgets, lane-stopping
// ready bits, and the unpipelined divider.
// ---------------------------------------------------------------

/** One iteration: @p fpMuls independent FP multiplies, then a chain
 * of 100 dependent integer adds that dominates the runtime. */
Trace
fpMulsThenChain(unsigned fpMuls)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    for (unsigned i = 0; i < fpMuls; ++i)
        tb.op(Opcode::FpMul, {});
    NodeId v = tb.op(Opcode::IntAdd, {});
    for (int i = 0; i < 99; ++i)
        v = tb.op(Opcode::IntAdd, {v});
    return tb.take();
}

TEST(DatapathIssue, SixtyFifthReadyEntryWaitsOneCycle)
{
    // The chain head is the 64th ready entry in one trace and the
    // 65th in the other. The FP multiplier issues one op per cycle,
    // so the multiplies stay ready, but the integer ALU is idle: the
    // head issues in cycle 0 only if it is inside the window.
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture inside(fpMulsThenChain(63), p);
    DatapathFixture outside(fpMulsThenChain(64), p);
    Cycles in = inside.runToCompletion();
    Cycles out = outside.runToCompletion();
    EXPECT_EQ(out, in + 1);
}

TEST(DatapathIssue, EmptyBitBehindSpentMemoryBudgetStopsTheLane)
{
    // Two loads of a filled array spend the lane's two memory issue
    // slots; the third load's ready bit is empty. It must still stop
    // the lane in that cycle, so the younger add never issues.
    TraceBuilder tb;
    int a = tb.addArray("a", 64, 4, true, false);
    int c = tb.addArray("c", 64, 4, true, false);
    tb.beginIteration();
    tb.load(a, 0, 4);
    tb.load(a, 4, 4);
    tb.load(c, 0, 4);
    tb.op(Opcode::IntAdd, {});

    DatapathFixture::partitions = 16;
    DatapathFixture::trackReadyBits = true;
    Datapath::Params p;
    p.lanes = 1;
    p.memOpsPerLane = 2;
    DatapathFixture f(tb.take(), p);
    DatapathFixture::trackReadyBits = false;
    f.fe.fill(0, 0, 64);

    bool done = false;
    f.dp.start([&] { done = true; });
    f.eq.run();
    EXPECT_FALSE(done);
    EXPECT_DOUBLE_EQ(f.dp.stats().get("readyBitStalls"), 1.0);
    EXPECT_EQ(f.dp.fuOpCounts()[static_cast<std::size_t>(
                  FuKind::IntAlu)],
              0u);

    f.fe.fill(1, 0, 64);
    f.eq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(f.dp.fuOpCounts()[static_cast<std::size_t>(
                  FuKind::IntAlu)],
              1u);
}

/** @p iterations iterations of @p divs independent divides each. */
Trace
divides(unsigned iterations, unsigned divs)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    for (unsigned i = 0; i < iterations; ++i) {
        tb.beginIteration();
        for (unsigned d = 0; d < divs; ++d)
            tb.op(Opcode::FpDiv, {});
    }
    return tb.take();
}

TEST(DatapathIssue, SecondDivideWaitsForTheUnpipelinedDivider)
{
    Datapath::Params p;
    p.lanes = 1;
    DatapathFixture one(divides(1, 1), p);
    DatapathFixture two(divides(1, 2), p);
    Cycles c1 = one.runToCompletion();
    Cycles c2 = two.runToCompletion();
    EXPECT_EQ(c2, c1 + latencyOf(Opcode::FpDiv));

    // Each lane has its own divider.
    Datapath::Params p2;
    p2.lanes = 2;
    DatapathFixture twoLanes(divides(2, 1), p2);
    EXPECT_EQ(twoLanes.runToCompletion(), c1);
}

TEST(DatapathIssue, AttemptsStayNearOnePerNodeBesideBankConflicts)
{
    // Every node is examined once when it issues and every bank
    // conflict is one examination; the issue logic may spend at most
    // one more examination per node on anything else (ready-bit
    // checks, exhausted cache ports).
    Trace trace = makeWorkload("stencil-stencil2d")->build().trace;
    Dddg dddg(trace);
    SocConfig cfg = parseConfig({"mem=dma", "lanes=8", "partitions=8",
                                 "pipelined=1", "triggered=1"});
    Soc soc(cfg, trace, dddg);
    SocResults r = soc.run();

    const StatRegistry &reg = soc.statRegistry();
    double nodes = reg.get("accel.datapath.nodes");
    double attempts = reg.get("accel.datapath.issueAttempts");
    double conflicts = reg.get("accel.datapath.bankConflicts");
    EXPECT_EQ(nodes, static_cast<double>(trace.ops.size()));
    EXPECT_GT(conflicts, 0.0);
    EXPECT_GE(attempts, nodes + conflicts);
    EXPECT_LE(attempts - conflicts, 2 * nodes);

    // A host-side diagnostic: not part of the frozen results.
    EXPECT_EQ(resultsJson(r).find("ttempt"), std::string::npos);
}

TEST(DatapathRing, SameEdgeCompletionsWakeDependentsInIssueOrder)
{
    // An FP multiply issued in cycle 0 and the last add of a 4-add
    // chain issued in cycle 3 both complete on edge 4. Each wakes an
    // FP add, and the one FP adder per cycle takes the older ready
    // entry first: the multiply's dependent must win, because the
    // multiply issued first, although its dependent has the higher
    // node id. That dependent heads a 2-add tail, so the run takes 9
    // cycles in issue order and 10 otherwise.
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    NodeId v = tb.op(Opcode::IntAdd, {});
    for (int i = 0; i < 3; ++i)
        v = tb.op(Opcode::IntAdd, {v});
    NodeId mul = tb.op(Opcode::FpMul, {});
    tb.op(Opcode::FpAdd, {v});
    NodeId w = tb.op(Opcode::FpAdd, {mul});
    for (int i = 0; i < 2; ++i)
        w = tb.op(Opcode::IntAdd, {w});

    Datapath::Params p;
    p.lanes = 1;
    p.fpAddPerLane = 1;
    DatapathFixture f(tb.take(), p);
    EXPECT_EQ(f.runToCompletion(), 9u);
}

/** Checks that no two events of one kind fire on the same tick and
 * counts them. */
struct KindTickCounter : EventProfiler
{
    explicit KindTickCounter(std::string k) : kind(std::move(k)) {}

    void
    beginEvent(Tick when, const char *k) override
    {
        if (k == nullptr || kind != k)
            return;
        EXPECT_TRUE(count == 0 || when > last)
            << kind << " fired twice on tick " << when;
        last = when;
        ++count;
    }
    void endEvent() override {}

    std::string kind;
    Tick last = 0;
    std::uint64_t count = 0;
};

TEST(DatapathRing, AtMostOneCompletionEventPerCycle)
{
    for (const char *options :
         {"mem=dma lanes=8 partitions=8 pipelined=1 triggered=1",
          "mem=dma lanes=4 partitions=1",
          "mem=cache lanes=4 cache_kb=16 cache_ports=2"}) {
        SCOPED_TRACE(options);
        Trace trace = makeWorkload("md-knn")->build().trace;
        Dddg dddg(trace);
        std::vector<std::string> args;
        std::istringstream iss(options);
        for (std::string tok; iss >> tok;)
            args.push_back(tok);
        Soc soc(parseConfig(args), trace, dddg);
        KindTickCounter counter("accel.nodeComplete");
        soc.eventQueue().setProfiler(&counter);
        soc.run();
        const StatRegistry &reg = soc.statRegistry();
        EXPECT_GT(counter.count, 0u);
        EXPECT_LE(static_cast<double>(counter.count),
                  reg.get("accel.datapath.cycles"));
    }
}

TEST(DatapathIssue, ConflictRunStopsAtAnUncheckedReadyBit)
{
    // One bank with one port. Loads at offsets 0, 4 and 8 find their
    // line full, the load at 64 finds it empty, and two more full
    // loads follow. In cycle 0 the first load takes the port, the
    // next two conflict, and the empty bit stops the lane: the loads
    // behind it are neither examined nor counted as conflicts.
    auto build = [] {
        TraceBuilder tb;
        int a = tb.addArray("a", 256, 4, true, false);
        tb.beginIteration();
        for (Addr off : {0, 4, 8, 64, 12, 16})
            tb.load(a, off, 4);
        return tb.take();
    };
    DatapathFixture::partitions = 1;
    DatapathFixture::trackReadyBits = true;
    Datapath::Params p;
    p.lanes = 1;
    p.memOpsPerLane = 2;
    DatapathFixture f(build(), p);
    DatapathFixture traced(build(), p);
    DatapathFixture::trackReadyBits = false;
    DatapathFixture::partitions = 16;
    // A traced run counts the same conflicts, one instant each.
    Tracer tracer(traced.eq, traceCategoryBit(TraceCategory::Spad));
    traced.eq.setTracer(&tracer);

    for (DatapathFixture *d : {&f, &traced}) {
        d->fe.fill(0, 0, 64);
        bool done = false;
        d->dp.start([&] { done = true; });
        d->eq.run();
        EXPECT_FALSE(done);
        EXPECT_DOUBLE_EQ(d->dp.stats().get("readyBitStalls"), 1.0);
        EXPECT_DOUBLE_EQ(d->dp.stats().get("bankConflicts"), 2.0);
        EXPECT_DOUBLE_EQ(d->spad.conflicts(), 2.0);
        EXPECT_DOUBLE_EQ(d->dp.stats().get("issueAttempts"), 4.0);

        d->fe.fill(0, 64, 64);
        d->eq.run();
        EXPECT_TRUE(done);
    }
    EXPECT_EQ(f.dp.executedCycles(), traced.dp.executedCycles());
    EXPECT_DOUBLE_EQ(f.spad.conflicts(), traced.spad.conflicts());
    EXPECT_DOUBLE_EQ(f.dp.stats().get("issueAttempts"),
                     traced.dp.stats().get("issueAttempts"));
    EXPECT_EQ(tracer.instantCount(TraceCategory::Spad, "conflict"),
              static_cast<std::uint64_t>(traced.spad.conflicts()));
}

TEST(Datapath, PerfectMemoryIgnoresBanks)
{
    DatapathFixture::partitions = 1;
    Datapath::Params p;
    p.lanes = 8;
    p.perfectMemory = true;
    DatapathFixture f(parallelTrace(64, 1), p);
    f.runToCompletion();
    EXPECT_DOUBLE_EQ(f.dp.stats().get("bankConflicts"), 0.0);
    DatapathFixture::partitions = 16;
}

TEST(Datapath, ComputeBusyIntervalsCoverExecution)
{
    DatapathFixture f(parallelTrace(16, 4));
    Cycles cycles = f.runToCompletion();
    const IntervalSet &busy = f.dp.computeBusy();
    EXPECT_FALSE(busy.empty());
    EXPECT_LE(busy.measure(), (cycles + 1) * accelPeriod);
    EXPECT_GT(busy.measure(), 0u);
}

TEST(Datapath, FuOpCountsMatchTrace)
{
    TraceBuilder tb;
    tb.addArray("a", 64, 4, true, false);
    tb.beginIteration();
    tb.op(Opcode::FpMul, {});
    tb.op(Opcode::FpMul, {});
    tb.op(Opcode::IntAdd, {});
    Trace t = tb.take();
    DatapathFixture f(t);
    f.runToCompletion();
    const auto &ops = f.dp.fuOpCounts();
    EXPECT_EQ(ops[static_cast<std::size_t>(FuKind::FpMul)], 2u);
    EXPECT_EQ(ops[static_cast<std::size_t>(FuKind::IntAlu)], 1u);
}

} // namespace
} // namespace genie
