#include "datapath.hh"

#include <bit>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

Datapath::Datapath(std::string name, EventQueue &eq, ClockDomain domain,
                   const Trace &trace_, const Dddg &dddg_, Params p,
                   MemMode mode_)
    : SimObject(std::move(name)), Clocked(eq, domain), trace(trace_),
      dddg(dddg_), params(p), mode(mode_),
      statNodes(stats().add("nodes", "DDDG nodes executed")),
      statCycles(stats().add("cycles", "accelerator cycles to finish")),
      statMemStallCycles(stats().add("memStallCycles",
                                     "lane-cycles blocked on memory")),
      statReadyBitStalls(stats().add("readyBitStalls",
                                     "loads stalled on full/empty bits")),
      statBankConflicts(stats().add("bankConflicts",
                                    "scratchpad bank conflict retries")),
      statCacheRejects(stats().add("cacheRejects",
                                   "cache port/MSHR rejections")),
      statIssueAttempts(stats().add(
          "issueAttempts", "ready entries examined by the issue logic"))
{
    if (params.lanes == 0 || params.lanes > 65536)
        fatal("datapath needs 1..65536 lanes, got %u", params.lanes);
    eq.registerStats(stats());
    for (unsigned l = 0; l < params.lanes; ++l)
        laneTracks.push_back(format("%s.lane%u", this->name().c_str(), l));
}

void
Datapath::traceNodeSpan(unsigned lane, const char *what, Tick beginTick,
                        Tick endTick)
{
    if (Tracer *t = tracerFor(eventq, TraceCategory::Datapath)) {
        t->complete(TraceCategory::Datapath, laneTracks[lane], what,
                    beginTick, endTick);
    }
}

void
Datapath::attachScratchpad(Scratchpad *spad_, std::vector<int> spadIds_,
                           FullEmptyBits *fe, std::vector<int> feIds_)
{
    GENIE_ASSERT(mode == MemMode::ScratchpadDma,
                 "attachScratchpad in cache mode");
    spad = spad_;
    spadIds = std::move(spadIds_);
    feBits = fe;
    feIds = std::move(feIds_);
}

void
Datapath::attachCache(Cache *cache_, AladdinTlb *tlb_,
                      std::vector<Addr> vbase, Scratchpad *spad_,
                      std::vector<int> spadIds_)
{
    GENIE_ASSERT(mode == MemMode::Cache, "attachCache in DMA mode");
    cache = cache_;
    tlb = tlb_;
    arrayVBase = std::move(vbase);
    spad = spad_;
    spadIds = std::move(spadIds_);
    if (cache) {
        cache->setCallback([this](std::uint64_t reqId, bool hit) {
            auto n = static_cast<NodeId>(reqId);
            if (!hit) {
                // The miss kept its lane stalled until now; hits were
                // uncounted at accept time.
                LaneState &lane = lanes[issue[n].lane];
                GENIE_ASSERT(lane.pendingMem > 0,
                             "miss completion with no pending access");
                --lane.pendingMem;
            }
            onNodeComplete(n);
            scheduleTick();
        });
    }
}

void
Datapath::start(DoneCallback done)
{
    GENIE_ASSERT(!active, "datapath already running");
    const std::size_t n = trace.ops.size();
    GENIE_ASSERT(n > 0, "empty trace");

    active = true;
    onDone = std::move(done);
    completedNodes = 0;
    inFlightOps = 0;
    currentWave = 0;
    startCycle = curCycle();
    lastTickAt = maxTick;

    numWaves = (trace.numIterations + params.lanes - 1) / params.lanes;
    if (numWaves == 0)
        numWaves = 1;
    waveRemaining.assign(numWaves, 0);
    earlyReady.assign(numWaves, {});

    issue.assign(n, NodeIssue{});
    classLatency.fill(0);
    constexpr int unmapped = -2;
    readyBitsOf.assign(spad ? spad->numArrays() : 0, unmapped);
    pendingParents.resize(n);
    for (NodeId i = 0; i < n; ++i) {
        const TraceOp &op = trace.ops[i];
        NodeIssue &r = issue[i];
        r.wave = op.iteration / params.lanes;
        r.lane = static_cast<std::uint16_t>(op.iteration % params.lanes);
        ++waveRemaining[r.wave];
        pendingParents[i] = dddg.parents(i);
        if (!isMemoryOp(op.op)) {
            static_assert(unsigned(IssueClass::Other) ==
                          unsigned(FuKind::Other));
            r.cls = static_cast<IssueClass>(fuKindOf(op.op));
            std::uint8_t &lat =
                classLatency[static_cast<unsigned>(r.cls)];
            GENIE_ASSERT(lat == 0 || lat == latencyOf(op.op),
                         "%s latency differs from its FU class",
                         opcodeName(op.op));
            lat = static_cast<std::uint8_t>(latencyOf(op.op));
            continue;
        }
        r.isStore = op.op == Opcode::Store;
        if (params.perfectMemory) {
            r.cls = IssueClass::Perfect;
            continue;
        }
        GENIE_ASSERT(op.offset <= 0xffffffffu,
                     "array offset beyond 4 GiB");
        r.offset = static_cast<std::uint32_t>(op.offset);
        // In cache mode, arrays wired to the scratchpad (private
        // intermediates and register-promoted small constant tables)
        // bypass the cache.
        auto arr = static_cast<std::size_t>(op.arrayId);
        bool isScratchArray =
            mode == MemMode::ScratchpadDma ||
            (arr < spadIds.size() && spadIds[arr] >= 0);
        if (!isScratchArray) {
            r.cls = IssueClass::Cache;
            r.array = op.arrayId;
            continue;
        }
        GENIE_ASSERT(spad && arr < spadIds.size() && spadIds[arr] >= 0,
                     "array '%s' not mapped to a scratchpad",
                     trace.arrays[arr].name.c_str());
        const int spadArray = spadIds[arr];
        GENIE_ASSERT(spadArray <= 0x7fff, "scratchpad array id too big");
        r.cls = IssueClass::Spad;
        r.array = static_cast<std::int16_t>(spadArray);
        unsigned bank = spad->bankOf(spadArray, op.offset);
        GENIE_ASSERT(bank <= 0xffffu, "scratchpad bank beyond 65535");
        r.bank = static_cast<std::uint16_t>(bank);
        int fe = feBits && arr < feIds.size() ? feIds[arr] : -1;
        int &mapped = readyBitsOf[static_cast<std::size_t>(spadArray)];
        GENIE_ASSERT(mapped == unmapped || mapped == fe,
                     "scratchpad array %d has two ready-bit mappings",
                     spadArray);
        mapped = fe;
    }

    lanes.assign(params.lanes, LaneState{});

    for (NodeId i = 0; i < n; ++i) {
        if (pendingParents[i] == 0)
            enqueueReady(i);
    }
    scheduleTick();
}

void
Datapath::enqueueReady(NodeId n)
{
    std::uint32_t w = issue[n].wave;
    if (w == currentWave) {
        pushReady(n);
        scheduleTick();
    } else {
        GENIE_ASSERT(w > currentWave, "ready node in a finished wave");
        earlyReady[w].push_back(n);
    }
}

void
Datapath::pushReady(NodeId n)
{
    const NodeIssue &rec = issue[n];
    LaneState &lane = lanes[rec.lane];
    auto seq = static_cast<std::uint32_t>(lane.order.size());
    lane.order.push_back(n);

    ClassQueue &q = lane.queues[static_cast<unsigned>(rec.cls)];
    if (q.empty()) {
        q.items.clear();
        q.head = 0;
    } else if (q.head >= issueWindow && 2 * q.head >= q.items.size()) {
        q.items.erase(q.items.begin(),
                      q.items.begin() + static_cast<std::ptrdiff_t>(q.head));
        q.head = 0;
    }
    q.items.push_back({n, seq});

    // Ready bits only ever go empty -> full during a run, so a bit
    // that is full now never needs checking again.
    if (int fe = readyBitsOfLoad(rec);
        fe >= 0 && !feBits->isFull(fe, rec.offset)) {
        if (lane.uncheckedHead == lane.unchecked.size()) {
            lane.unchecked.clear();
            lane.uncheckedHead = 0;
        }
        lane.unchecked.push_back({n, seq});
    }
    if (++lane.live <= issueWindow)
        lane.windowEnd = seq;
}

void
Datapath::retireReady(LaneState &lane, std::uint32_t seq)
{
    lane.order[seq] = invalidNode;
    // The oldest ready entry past the window slides in.
    if (lane.live > issueWindow && seq <= lane.windowEnd) {
        std::uint32_t s = lane.windowEnd + 1;
        while (lane.order[s] == invalidNode)
            ++s;
        lane.windowEnd = s;
    }
    if (--lane.live == 0) {
        lane.order.clear();
        lane.windowEnd = 0;
    }
}

void
Datapath::scheduleTick()
{
    if (!active || tickScheduled)
        return;
    tickScheduled = true;
    Tick at = clockEdge(0);
    if (lastTickAt != maxTick && at <= lastTickAt)
        at = lastTickAt + clockPeriod();
    // Raw dispatch: accel.tick, like accel.nodeComplete, fires at
    // most once per accelerator cycle, and neither builds a
    // std::function.
    eventq.schedule(at, [](void *c, std::uint64_t) {
        auto *self = static_cast<Datapath *>(c);
        self->tickScheduled = false;
        self->tick();
    }, this, 0, "accel.tick");
}

void
Datapath::tick()
{
    if (!active)
        return;
    lastTickAt = eventq.curTick();
    issueEdge = clockEdge(0);
    const Cycles now = curCycle();
    issueCycle = now;

    bool anyReadyLeft = false;
    std::uint64_t attempts = 0;
    for (unsigned l = 0; l < params.lanes; ++l) {
        LaneState &lane = lanes[l];
        if (lane.live == 0)
            continue;
        if (lane.blocked()) {
            ++statMemStallCycles;
            continue;
        }
        attempts += issueLane(l, now);
        if (lane.live > 0 && !lane.blocked())
            anyReadyLeft = true;
    }
    statIssueAttempts += static_cast<double>(attempts);

    // Structural hazards resolve by aging one cycle; memory blocks
    // resolve via callbacks which re-schedule the tick. scheduleTick
    // respects the one-tick-per-cycle guard even if a synchronous
    // callback already scheduled the next edge during the issue loop.
    if (anyReadyLeft)
        scheduleTick();
}

unsigned
Datapath::issueLane(unsigned l, Cycles now)
{
    // Oldest-first dataflow issue over the lane's window: hazarded
    // ops are skipped so younger independent ops may still go. Each
    // class queue is already in age order, so merging the heads of
    // the classes that still have budget visits exactly the entries
    // a front-to-back scan of the window would act on; entries of a
    // class whose budget is spent would only be skipped, so they are
    // never visited.
    constexpr auto spadClass = static_cast<unsigned>(IssueClass::Spad);
    constexpr unsigned memBits = 1u << spadClass |
                                 1u << unsigned(IssueClass::Cache) |
                                 1u << unsigned(IssueClass::Perfect);

    LaneState &lane = lanes[l];
    const std::uint32_t cutoff = lane.windowEnd;
    std::array<unsigned, numIssueClasses> left = {
        params.intAluPerLane,
        params.intMulPerLane,
        params.fpAddPerLane,
        params.fpMulPerLane,
        lane.divBusyUntil > now ? 0u : 1u, // the divider is unpipelined
        params.otherPerLane,
    };
    unsigned memLeft = params.memOpsPerLane;

    // Per class: the cursor into the class queue and its seq. A class
    // leaves `open` when its budget is spent or its cursor passes the
    // window.
    std::array<std::size_t, numIssueClasses> cur;
    std::array<std::uint32_t, numIssueClasses> curSeq;
    unsigned open = 0;
    auto moveCursor = [&](unsigned c, std::size_t to) {
        const std::vector<ReadyEntry> &items = lane.queues[c].items;
        cur[c] = to;
        if (to == items.size() || (curSeq[c] = items[to].seq) > cutoff)
            open &= ~(1u << c);
    };
    for (unsigned c = 0; c < numIssueClasses; ++c) {
        bool budget = (memBits >> c & 1) ? memLeft > 0 : left[c] > 0;
        if (budget)
            open |= 1u << c;
        moveCursor(c, lane.queues[c].head);
    }

    // A bank conflict changes nothing the walk depends on, so the walk
    // goes on meeting scratchpad entries until one finds a free bank,
    // or it reaches the end of the window, the oldest unchecked load
    // (its ready bit may stall the lane) or, in cache mode, an older
    // cache access (it may spend the memory budget). Such a run of
    // conflicts is counted in one step. With conflicts traced, the run
    // also stops at every other open class's head, so no record of
    // another entry falls between two conflict instants.
    const unsigned stopClasses =
        tracerFor(eventq, TraceCategory::Spad) != nullptr
            ? ~(1u << spadClass)
            : 1u << unsigned(IssueClass::Cache);
    auto conflictLimit = [&] {
        std::uint32_t limit = cutoff + 1;
        if (lane.uncheckedHead < lane.unchecked.size())
            limit = std::min(limit, lane.unchecked[lane.uncheckedHead].seq);
        for (unsigned m = open & stopClasses; m != 0; m &= m - 1)
            limit = std::min(
                limit, curSeq[static_cast<unsigned>(std::countr_zero(m))]);
        return limit;
    };

    // Scratchpad accesses issued behind a bank conflict leave holes
    // in the visited part of the queue; the survivors slide up to the
    // cursor on the way out.
    bool spadHoles = false;
    unsigned examined = 0;
    auto settle = [&] {
        if (spadHoles) {
            ClassQueue &q = lane.queues[spadClass];
            std::size_t to = cur[spadClass];
            for (std::size_t from = to; from-- > q.head;) {
                if (q.items[from].node != invalidNode)
                    q.items[--to] = q.items[from];
            }
            q.head = to;
        }
        return examined;
    };

    for (;;) {
        // The next entry is the oldest head among the open classes.
        unsigned c = numIssueClasses;
        std::uint32_t oldest = ~0u;
        for (unsigned m = open; m != 0; m &= m - 1) {
            auto k = static_cast<unsigned>(std::countr_zero(m));
            if (curSeq[k] < oldest) {
                oldest = curSeq[k];
                c = k;
            }
        }
        // With the memory budget spent, a load whose ready bit is
        // still unchecked can nonetheless stop the lane.
        if (memLeft == 0 && lane.uncheckedHead < lane.unchecked.size()) {
            const ReadyEntry u = lane.unchecked[lane.uncheckedHead];
            if (u.seq <= cutoff && u.seq < oldest) {
                ++examined;
                if (!readyBitSet(u.node, l))
                    return settle();
                continue;
            }
        }
        if (c == numIssueClasses)
            break;

        ClassQueue &q = lane.queues[c];
        const std::size_t at = cur[c];
        const ReadyEntry e = q.items[at];
        const NodeIssue &rec = issue[e.node];
        ++examined;
        if (lane.isUnchecked(e.node) && !readyBitSet(e.node, l))
            return settle();

        switch (rec.cls) {
          case IssueClass::Spad:
            if (!spad->tryAccessBank(rec.array, rec.bank, rec.isStore)) {
                // A bank conflict: retried next cycle, and counted
                // every cycle it recurs.
                const std::size_t run =
                    conflictRun(q, at + 1, conflictLimit());
                spad->addConflicts(run);
                examined += static_cast<unsigned>(run);
                statBankConflicts += static_cast<double>(1 + run);
                moveCursor(c, at + 1 + run);
                continue;
            }
            issueMemCycle(e.node, l);
            break;
          case IssueClass::Perfect:
            issueMemCycle(e.node, l);
            break;
          case IssueClass::Cache:
            if (!cache->portAvailable()) {
                // Ports only get busier within a cycle.
                open &= ~(1u << c);
                continue;
            }
            issueCacheAccess(e.node, l);
            break;
          default:
            issueCompute(e.node, l, now);
            break;
        }

        if (at == q.head) {
            ++q.head;
        } else {
            q.items[at].node = invalidNode;
            spadHoles = true;
        }
        moveCursor(c, at + 1);
        retireReady(lane, e.seq);
        if (memBits >> c & 1) {
            if (--memLeft == 0)
                open &= ~memBits;
        } else if (--left[c] == 0) {
            open &= ~(1u << c);
        }
        // A cache miss (or a TLB walk) stalls the issuing lane.
        if (lane.blocked())
            break;
    }
    return settle();
}

std::size_t
Datapath::conflictRun(const ClassQueue &q, std::size_t from,
                      std::uint32_t limit) const
{
    std::size_t i = from;
    while (i < q.items.size() && q.items[i].seq < limit) {
        const NodeIssue &rec = issue[q.items[i].node];
        if (spad->bankFree(rec.array, rec.bank))
            break;
        ++i;
    }
    return i - from;
}

bool
Datapath::readyBitSet(NodeId n, unsigned l)
{
    // DMA-triggered compute: a load must find its line's ready bit
    // set, or the lane stalls until the DMA engine fills it (Section
    // IV-B2: the control logic stalls the whole lane).
    const NodeIssue &rec = issue[n];
    LaneState &lane = lanes[l];
    const int fe = readyBitsOfLoad(rec);
    if (!feBits->isFull(fe, rec.offset)) {
        ++statReadyBitStalls;
        lane.blockedOnReadyBit = true;
        feBits->wait(fe, rec.offset, [this, l] {
            lanes[l].blockedOnReadyBit = false;
            scheduleTick();
        });
        return false;
    }
    GENIE_ASSERT(lane.isUnchecked(n), "ready-bit check out of age order");
    ++lane.uncheckedHead;
    return true;
}

void
Datapath::issueCompute(NodeId n, unsigned lane, Cycles now)
{
    const NodeIssue &rec = issue[n];
    if (rec.cls == IssueClass::FpDiv)
        lanes[lane].divBusyUntil = now + latencyOf(Opcode::FpDiv);
    ++fuOps[static_cast<std::size_t>(rec.cls)];
    ++inFlightOps;
    const Cycles lat = classLatency[static_cast<unsigned>(rec.cls)];
    Tick end = issueEdge + cyclesToTicks(lat);
    busy.add(issueEdge, end);
    traceNodeSpan(lane, "compute", issueEdge, end);
    scheduleCompletion(lat, n);
}

void
Datapath::issueMemCycle(NodeId n, unsigned lane)
{
    ++inFlightOps;
    Tick end = issueEdge + clockPeriod();
    busy.add(issueEdge, end);
    traceNodeSpan(lane, "mem", issueEdge, end);
    scheduleCompletion(1, n);
}

void
Datapath::scheduleCompletion(Cycles lat, NodeId n)
{
    // Results are available *at* the clock edge `lat` cycles after
    // issue: complete one tick before that edge so dependents can
    // issue on the edge itself (otherwise every dependence level
    // would silently cost an extra cycle).
    GENIE_ASSERT(lat > 0 && lat < completionSlots,
                 "latency %llu does not fit the completion ring",
                 (unsigned long long)lat);
    const std::size_t slot = (issueCycle + lat) % completionSlots;
    std::vector<Completion> &due = completionRing[slot];
    if (due.empty()) {
        Tick when = issueEdge + cyclesToTicks(lat);
        eventq.schedule(when - 1, [](void *c, std::uint64_t s) {
            static_cast<Datapath *>(c)->completeSlot(
                static_cast<std::size_t>(s));
        }, this, slot, "accel.nodeComplete");
    }
    due.push_back({n, eventq.flowCursor()});
}

void
Datapath::completeSlot(std::size_t slot)
{
    // Completing a node never issues one, so nothing joins the slot
    // while it drains.
    std::vector<Completion> &due = completionRing[slot];
    for (const Completion &c : due) {
        // Each completion chains off its own issue, as if it had
        // fired as an event of its own.
        eventq.enterFlow(c.flowFrom);
        onNodeComplete(c.node);
    }
    due.clear();
}

void
Datapath::issueCacheAccess(NodeId n, unsigned lane)
{
    ++inFlightOps;
    Tick end = issueEdge + clockPeriod();
    busy.add(issueEdge, end);
    traceNodeSpan(lane, "mem", issueEdge, end);

    // The lane blocks until the access is known to hit (decremented
    // synchronously below for TLB-hit + cache-hit) or until the miss
    // resolves (decremented in the cache callback).
    ++lanes[lane].pendingMem;

    const NodeIssue &rec = issue[n];
    Addr vaddr =
        arrayVBase[static_cast<std::size_t>(rec.array)] + rec.offset;
    tlb->translate(vaddr, [this, n, lane](Addr paddr) {
        sendCacheAccess(n, lane, paddr);
    });
}

void
Datapath::sendCacheAccess(NodeId n, unsigned lane, Addr paddr)
{
    const TraceOp &op = trace.ops[n];
    auto outcome = cache->access(paddr, op.size,
                                 op.op == Opcode::Store, n,
                                 /*streamId=*/op.arrayId);
    if (outcome.reject != Cache::Reject::None) {
        ++statCacheRejects;
        scheduleCycles(1, [this, n, lane, paddr] {
            sendCacheAccess(n, lane, paddr);
        }, "accel.cacheRetry");
        return;
    }
    if (outcome.hit) {
        // Hits are pipelined: the lane keeps issuing; the completion
        // callback will arrive after hitLatency.
        GENIE_ASSERT(lanes[lane].pendingMem > 0,
                     "hit with no pending access");
        --lanes[lane].pendingMem;
        scheduleTick();
    }
}

void
Datapath::onNodeComplete(NodeId n)
{
    GENIE_ASSERT(inFlightOps > 0, "completion with nothing in flight");
    --inFlightOps;
    ++completedNodes;
    ++statNodes;

    std::uint32_t w = issue[n].wave;
    GENIE_ASSERT(waveRemaining[w] > 0, "wave count underflow");
    --waveRemaining[w];

    for (NodeId c : dddg.children(n)) {
        GENIE_ASSERT(pendingParents[c] > 0, "parent count underflow");
        if (--pendingParents[c] == 0)
            enqueueReady(c);
    }

    if (w == currentWave && waveRemaining[w] == 0)
        advanceWave();

    if (completedNodes == trace.ops.size())
        finishIfDrained();
}

void
Datapath::advanceWave()
{
    while (currentWave + 1 < numWaves &&
           waveRemaining[currentWave] == 0) {
        ++currentWave;
        for (NodeId n : earlyReady[currentWave])
            pushReady(n);
        earlyReady[currentWave].clear();
        if (waveRemaining[currentWave] != 0)
            break;
    }
    scheduleTick();
}

void
Datapath::finishIfDrained()
{
    // In cache mode, wait for outstanding writebacks to retire (the
    // mfence before signaling the CPU, Section III-E).
    if (cache && cache->hasOutstanding()) {
        if (!drainCheckScheduled) {
            drainCheckScheduled = true;
            scheduleCycles(1, [](void *c, std::uint64_t) {
                auto *self = static_cast<Datapath *>(c);
                self->drainCheckScheduled = false;
                self->finishIfDrained();
            }, this, 0, "accel.drainCheck");
        }
        return;
    }

    active = false;
    // The last completion fires one tick before its clock edge; the
    // accelerator is architecturally done *at* that edge.
    endCycle = ticksToCycles(eventq.curTick());
    statCycles = static_cast<double>(endCycle - startCycle);
    if (onDone) {
        DoneCallback done = std::move(onDone);
        onDone = nullptr;
        eventq.schedule(clockEdge(0), std::move(done), "accel.done");
    }
}

} // namespace genie
