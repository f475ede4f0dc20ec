/**
 * @file
 * The accelerator datapath: a resource-constrained dataflow scheduler
 * over the DDDG, following Aladdin's execution model plus the paper's
 * system-level extensions:
 *
 *  - N datapath lanes; loop iteration i runs on lane (i mod N); a
 *    wave of N consecutive iterations executes concurrently and lanes
 *    synchronize at a barrier before the next wave (Section IV-D).
 *  - per-lane functional units (pipelined except the divider) with
 *    per-cycle issue limits,
 *  - scratchpad mode: partitioned banks with per-cycle port limits,
 *    optional full/empty ready bits that stall a lane until DMA fills
 *    the accessed line (DMA-triggered compute, Section IV-B2),
 *  - cache mode: accesses translate through the Aladdin TLB and issue
 *    to the accelerator cache; a miss stalls only the issuing lane
 *    (hit-under-miss via MSHRs); other lanes keep running,
 *  - a `perfectMemory` switch (all memory ops single-cycle) for the
 *    Figure-7 processing-time decomposition.
 *
 * Each clock edge, a lane issues as if it scanned its 64 oldest ready
 * ops front to back; per-class ready queues let it skip the ops whose
 * class has no budget left without looking at them (DESIGN.md §16).
 */

#ifndef GENIE_ACCEL_DATAPATH_HH
#define GENIE_ACCEL_DATAPATH_HH

#include <array>
#include <memory>
#include <vector>

#include "accel/dddg.hh"
#include "accel/trace.hh"
#include "mem/cache.hh"
#include "mem/full_empty.hh"
#include "mem/scratchpad.hh"
#include "mem/tlb.hh"
#include "sim/clocked.hh"
#include "sim/interval_set.hh"
#include "sim/sim_object.hh"

namespace genie
{

class Datapath : public SimObject, public Clocked
{
  public:
    struct Params
    {
        unsigned lanes = 1;
        /** Per-lane, per-cycle issue limits by FU class. */
        unsigned intAluPerLane = 2;
        unsigned intMulPerLane = 1;
        unsigned fpAddPerLane = 1;
        unsigned fpMulPerLane = 1;
        unsigned otherPerLane = 2;
        /** Per-lane memory ops issued per cycle (bank/cache port
         * limits apply on top of this). */
        unsigned memOpsPerLane = 2;
        /** Figure-7 processing-time mode. */
        bool perfectMemory = false;
    };

    enum class MemMode : std::uint8_t
    {
        ScratchpadDma,
        Cache,
    };

    using DoneCallback = std::function<void()>;

    Datapath(std::string name, EventQueue &eq, ClockDomain domain,
             const Trace &trace, const Dddg &dddg, Params params,
             MemMode mode);

    /**
     * Scratchpad mode wiring. @p spadIds maps trace array ids to
     * scratchpad array ids; @p feIds maps trace array ids to
     * full/empty array ids (or empty to disable ready bits).
     */
    void attachScratchpad(Scratchpad *spad, std::vector<int> spadIds,
                          FullEmptyBits *fe, std::vector<int> feIds);

    /**
     * Cache mode wiring. @p arrayVBase gives each trace array's
     * simulated-virtual base address; private-scratch arrays instead
     * use the scratchpad (pass @p spad non-null if any exist).
     */
    void attachCache(Cache *cache, AladdinTlb *tlb,
                     std::vector<Addr> arrayVBase, Scratchpad *spad,
                     std::vector<int> spadIds);

    /** Begin executing the trace now. */
    void start(DoneCallback onDone);

    bool running() const { return active; }

    /** Cycles from start() to completion. */
    Cycles executedCycles() const { return endCycle - startCycle; }

    /** Intervals where at least one op was executing (the "compute"
     * activity for the paper's runtime breakdowns). */
    const IntervalSet &computeBusy() const { return busy; }

    /** Issued op counts per FU class (power model input). */
    const std::array<std::uint64_t, 6> &fuOpCounts() const
    {
        return fuOps;
    }

    double memStallCycles() const { return statMemStallCycles.value(); }

  private:
    /**
     * What the issue logic competes for: the six FU classes (in
     * FuKind order), then the three memory paths, which share the
     * lane's per-cycle memory budget.
     */
    enum class IssueClass : std::uint8_t
    {
        IntAlu,
        IntMul,
        FpAdd,
        FpMul,
        FpDiv,
        Other,
        Spad,    ///< scratchpad access (bank ports, ready bits)
        Cache,   ///< TLB + cache access (shared cache ports)
        Perfect, ///< perfect-memory access (budget only)
    };
    static constexpr unsigned numIssueClasses = 9;

    /** Per-node facts the issue and wake paths need, computed once in
     * start() so the hot path never decodes the trace op. */
    struct NodeIssue
    {
        std::uint32_t wave = 0;
        /** Byte offset in the array: the ready-bit slot (Spad) or the
         * address within the array (Cache). */
        std::uint32_t offset = 0;
        std::uint16_t lane = 0;
        /** Scratchpad array id (Spad) or trace array id (Cache). */
        std::int16_t array = -1;
        /** Scratchpad bank (Spad). */
        std::uint16_t bank = 0;
        IssueClass cls = IssueClass::Other;
        bool isStore = false;
    };
    static_assert(sizeof(NodeIssue) == 16);

    struct ReadyEntry
    {
        NodeId node;
        /** Enqueue order within the lane (oldest first). */
        std::uint32_t seq;
    };

    /** A lane's ready nodes of one issue class, oldest first. Issued
     * entries leave from the front, except scratchpad accesses, which
     * may issue past a bank conflict (issueLane() closes the gap). */
    struct ClassQueue
    {
        std::vector<ReadyEntry> items;
        std::size_t head = 0;

        bool empty() const { return head == items.size(); }
    };

    struct LaneState
    {
        std::array<ClassQueue, numIssueClasses> queues;
        /** Ready triggered loads whose ready bit was empty when they
         * became ready, oldest first, from uncheckedHead on. */
        std::vector<ReadyEntry> unchecked;
        std::size_t uncheckedHead = 0;
        /** Nodes by seq since the lane last drained; invalidNode
         * once issued. */
        std::vector<NodeId> order;
        /** Ready nodes in the lane. */
        std::uint32_t live = 0;
        /** The issue window: ready nodes with seq <= windowEnd are
         * exactly the min(live, issueWindow) oldest. */
        std::uint32_t windowEnd = 0;
        /** Unresolved cache work (TLB walks in progress + outstanding
         * misses). The lane stalls while this is non-zero; hits do
         * not contribute (hit-under-miss is across lanes). */
        unsigned pendingMem = 0;
        /** Waiting on a full/empty ready bit. */
        bool blockedOnReadyBit = false;
        /** Divider is unpipelined: busy until this cycle. */
        Cycles divBusyUntil = 0;

        bool blocked() const { return pendingMem > 0 || blockedOnReadyBit; }
        bool
        isUnchecked(NodeId n) const
        {
            return uncheckedHead < unchecked.size() &&
                   unchecked[uncheckedHead].node == n;
        }
    };

    void tick();
    void scheduleTick();

    /** Number of ready entries each lane may examine per cycle (the
     * dataflow scheduling window), oldest first. */
    static constexpr unsigned issueWindow = 64;

    /** One cycle of oldest-first issue on lane @p l; @return the
     * ready entries examined. */
    unsigned issueLane(unsigned l, Cycles now);

    /** The number of scratchpad entries of @p q from @p from on, with
     * seq below @p limit, whose banks have no port left this cycle:
     * the conflicts the walk would meet before anything changes. */
    std::size_t conflictRun(const ClassQueue &q, std::size_t from,
                            std::uint32_t limit) const;

    /** Check the ready bit of triggered load @p n, the oldest
     * unchecked one: if set, drop @p n from the unchecked list; if
     * not, stall lane @p l until it fills. @return whether it was
     * set. */
    bool readyBitSet(NodeId n, unsigned l);

    /** The ready-bit array a scratchpad access must check (negative
     * if none). */
    int
    readyBitsOfLoad(const NodeIssue &rec) const
    {
        return rec.cls == IssueClass::Spad && !rec.isStore
                   ? readyBitsOf[static_cast<std::size_t>(rec.array)]
                   : -1;
    }

    /** Dispatch a compute node. */
    void issueCompute(NodeId n, unsigned lane, Cycles now);
    /** Start a one-cycle memory op's execution. */
    void issueMemCycle(NodeId n, unsigned lane);
    /** Hand a cache-mode access to the TLB. */
    void issueCacheAccess(NodeId n, unsigned lane);

    /** Complete @p n just before the edge @p lat cycles out, so
     * dependents issue on that edge: append it to that edge's ring
     * slot, scheduling the slot's event if it was empty. */
    void scheduleCompletion(Cycles lat, NodeId n);

    /** The accel.nodeComplete event: complete the nodes of ring slot
     * @p slot in the order they were issued. */
    void completeSlot(std::size_t slot);

    /** Issue the translated cache access (retries on port/MSHR
     * rejection). */
    void sendCacheAccess(NodeId n, unsigned lane, Addr paddr);

    void onNodeComplete(NodeId n);
    void enqueueReady(NodeId n);
    /** Append @p n to its lane's ready queues. */
    void pushReady(NodeId n);
    /** Retire the issued entry @p seq from @p lane's window (its
     * class queue is issueLane()'s business). */
    void retireReady(LaneState &lane, std::uint32_t seq);
    void advanceWave();
    void finishIfDrained();

    /** Mirror an issued node's execution interval into the trace
     * (tracks are per-lane so waves render as parallel strips). */
    void traceNodeSpan(unsigned lane, const char *what, Tick beginTick,
                       Tick endTick);

    const Trace &trace;
    const Dddg &dddg;
    Params params;
    MemMode mode;

    // Wiring.
    Scratchpad *spad = nullptr;
    std::vector<int> spadIds;
    FullEmptyBits *feBits = nullptr;
    std::vector<int> feIds;
    Cache *cache = nullptr;
    AladdinTlb *tlb = nullptr;
    std::vector<Addr> arrayVBase;

    // Execution state.
    bool active = false;
    DoneCallback onDone;
    std::vector<NodeIssue> issue;
    /** Execution latency of each compute class (every opcode of an FU
     * class has the same latency). */
    std::array<std::uint8_t, numIssueClasses> classLatency{};
    /** Ready-bit array of each scratchpad array's loads (negative if
     * none). */
    std::vector<int> readyBitsOf;
    std::vector<std::uint32_t> pendingParents;
    std::vector<LaneState> lanes;
    std::uint32_t currentWave = 0;
    std::uint32_t numWaves = 0;
    std::vector<std::uint32_t> waveRemaining;
    /** Nodes that became ready before their wave started. */
    std::vector<std::vector<NodeId>> earlyReady;
    std::size_t completedNodes = 0;
    std::size_t inFlightOps = 0;

    /** An issued node waiting in the completion ring, with the flow
     * cursor at its issue (its trace span, when tracing). */
    struct Completion
    {
        NodeId node;
        std::uint64_t flowFrom;
    };
    /** Completion ring: slot (edge cycle mod completionSlots) holds
     * the nodes that complete one tick before that edge, and one
     * event drains it. Every latency is shorter than the ring, so a
     * slot never holds two edges. */
    static constexpr unsigned completionSlots = 16;
    std::array<std::vector<Completion>, completionSlots> completionRing;

    Cycles startCycle = 0;
    Cycles endCycle = 0;
    bool tickScheduled = false;
    bool drainCheckScheduled = false;
    /** Last tick at which tick() ran; issue happens at most once per
     * clock edge (completions arriving mid-cycle wake the next
     * edge), so every lane starts each tick with full budgets. */
    Tick lastTickAt = maxTick;
    /** The clock edge of the running tick (issue timestamps) and
     * its cycle. */
    Tick issueEdge = 0;
    Cycles issueCycle = 0;

    IntervalSet busy;
    std::array<std::uint64_t, 6> fuOps{};

    /** Precomputed per-lane trace track names. */
    std::vector<std::string> laneTracks;

    Stat &statNodes;
    Stat &statCycles;
    Stat &statMemStallCycles;
    Stat &statReadyBitStalls;
    Stat &statBankConflicts;
    Stat &statCacheRejects;
    Stat &statIssueAttempts;
};

} // namespace genie

#endif // GENIE_ACCEL_DATAPATH_HH
