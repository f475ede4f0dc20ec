#include "bus.hh"

#include "fault/fault_injector.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

SystemBus::SystemBus(std::string name, EventQueue &eq, ClockDomain domain,
                     Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      statPackets(stats().add("packets", "packets transported")),
      statDataBytes(stats().add("dataBytes", "payload bytes moved")),
      statBusyTicks(stats().add("busyTicks", "ticks bus was occupied")),
      statSnoops(stats().add("snoops", "snooped coherent requests")),
      statCacheToCache(stats().add("cacheToCache",
                                   "owner-supplied data responses")),
      statErrors(stats().add("errors",
                             "responses NACKed by fault injection")),
      statQueueDepth(stats().addDistribution(
          "queueDepth", "queued packets seen at arbitration", 0.0,
          64.0, 16))
{
    if (params.widthBits % 8 != 0 || params.widthBits == 0)
        fatal("bus width must be a positive multiple of 8 bits");
    eq.registerStats(stats());
#if GENIE_CHECK_INVARIANTS
    enableProtocolChecker();
#endif
}

void
SystemBus::enableProtocolChecker()
{
    if (!checker)
        checker = std::make_unique<ProtocolChecker>();
}

BusPortId
SystemBus::attachClient(BusClient *client, bool snooper)
{
    clients.push_back(client);
    snoopers.push_back(snooper);
    reqQueues.emplace_back();
    return static_cast<BusPortId>(clients.size() - 1);
}

void
SystemBus::sendRequest(BusPortId src, Packet pkt)
{
    GENIE_ASSERT(src >= 0 && static_cast<std::size_t>(src) <
                     clients.size(),
                 "bad bus port %d", src);
    pkt.src = src;
    if (checker)
        checker->onRequest(pkt);
    reqQueues[static_cast<std::size_t>(src)].push_back({pkt, false});
    scheduleArbitration(clockEdge());
}

void
SystemBus::sendResponse(Packet pkt)
{
    GENIE_ASSERT(pkt.isResponse(), "sendResponse with non-response cmd");
    // Fault site: the bus NACKs an in-flight response — the payload
    // (if any) is dropped and the requester observes an ErrorResp
    // carrying the same reqId, so the (port, reqId) pairing the
    // ProtocolChecker audits stays intact and the requester's retry
    // machinery takes over. Responses that already carry an error
    // pass through untouched (no double injection).
    if (!pkt.isError()) {
        if (FaultInjector *fi = eventq.faultInjector();
            fi && fi->shouldFault(FaultSite::BusResp)) {
            pkt = pkt.makeError();
            ++statErrors;
        }
    }
    if (checker)
        checker->onResponse(pkt);
    respQueue.push_back({pkt, true});
    scheduleArbitration(clockEdge());
}

Cycles
SystemBus::occupancyCycles(const Packet &pkt) const
{
    if (params.infiniteBandwidth)
        return 1;
    Cycles cycles = params.headerCycles;
    if (cmdCarriesData(pkt.cmd))
        cycles += divCeil(pkt.size, bytesPerCycle());
    return cycles;
}

void
SystemBus::scheduleArbitration(Tick when)
{
    if (arbitrationScheduled)
        return;
    arbitrationScheduled = true;
    Tick at = std::max(when, std::max(busyUntil, eventq.curTick()));
    eventq.schedule(at, [](void *c, std::uint64_t) {
        auto *self = static_cast<SystemBus *>(c);
        self->arbitrationScheduled = false;
        self->arbitrate();
    }, this, 0, "bus.arbitrate");
}

void
SystemBus::arbitrate()
{
    Tick now = eventq.curTick();
    if (now < busyUntil) {
        scheduleArbitration(busyUntil);
        return;
    }

    std::size_t depth = respQueue.size();
    for (const auto &q : reqQueues)
        depth += q.size();
    if (depth > 0)
        statQueueDepth.sample(static_cast<double>(depth));

    QueuedPacket qp;
    bool found = false;
    if (!respQueue.empty()) {
        qp = respQueue.front();
        respQueue.pop_front();
        found = true;
    } else {
        // Round-robin over request queues.
        for (std::size_t i = 0; i < reqQueues.size() && !found; ++i) {
            std::size_t port = (rrNext + i) % reqQueues.size();
            if (!reqQueues[port].empty()) {
                qp = reqQueues[port].front();
                reqQueues[port].pop_front();
                rrNext = (port + 1) % reqQueues.size();
                found = true;
            }
        }
    }
    if (!found)
        return;

    Cycles occ = occupancyCycles(qp.pkt);
    Tick done = clockEdge(occ);
    if (Tracer *t = tracerFor(eventq, TraceCategory::Bus)) {
        t->complete(TraceCategory::Bus, name(),
                    qp.isResponse ? "resp" : "req", now, done);
    }
    statBusyTicks += static_cast<double>(done - now);
    busyUntil = done;
    ++statPackets;
    if (cmdCarriesData(qp.pkt.cmd))
        statDataBytes += qp.pkt.size;

    eventq.schedule(done, [this, qp] { deliver(qp); }, "bus.deliver");

    // Let the next packet arbitrate once this transfer is done.
    bool more = !respQueue.empty();
    for (const auto &q : reqQueues)
        more = more || !q.empty();
    if (more)
        scheduleArbitration(done);
}

void
SystemBus::deliver(const QueuedPacket &qp)
{
    if (qp.isResponse) {
        GENIE_ASSERT(qp.pkt.src >= 0 &&
                         static_cast<std::size_t>(qp.pkt.src) <
                             clients.size(),
                     "response to bad port %d", qp.pkt.src);
        clients[static_cast<std::size_t>(qp.pkt.src)]
            ->recvResponse(qp.pkt);
        return;
    }

    const Packet &pkt = qp.pkt;

    // Snoop phase for coherent requests.
    SnoopResult snoop;
    if (cmdNeedsSnoop(pkt.cmd)) {
        ++statSnoops;
        for (std::size_t i = 0; i < clients.size(); ++i) {
            if (static_cast<BusPortId>(i) == pkt.src || !snoopers[i])
                continue;
            snoop.merge(clients[i]->recvSnoop(pkt));
        }
    }

    if (pkt.cmd == MemCmd::Upgrade) {
        // No data movement: sharers were invalidated during the snoop.
        Packet resp = pkt.makeResponse();
        sendResponse(resp);
        return;
    }

    if (snoop.ownerSupplies) {
        // MOESI cache-to-cache transfer: the owning cache supplies the
        // line after its array-access latency; memory is not involved.
        ++statCacheToCache;
        Packet resp = pkt.makeResponse();
        resp.cacheToCache = true;
        resp.sharerPresent = true;
        eventq.schedule(eventq.curTick() + snoop.supplyLatency,
                        [this, resp] { sendResponse(resp); },
                        "bus.snoopSupply");
        return;
    }

    GENIE_ASSERT(_target != nullptr, "bus has no memory target");
    Packet fwd = pkt;
    fwd.sharerPresent = snoop.sharerPresent;
    _target->recvRequest(fwd);
}

} // namespace genie
