#include "tlb.hh"

#include "fault/fault_injector.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

AladdinTlb::AladdinTlb(std::string name, EventQueue &eq,
                       ClockDomain domain, Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      entries(p.entries),
      statHits(stats().add("hits", "TLB hits")),
      statMisses(stats().add("misses", "TLB misses")),
      statWalksCoalesced(stats().add("walksCoalesced",
                                     "misses merged onto an in-flight "
                                     "page walk")),
      statErrors(stats().add("errors",
                             "page walks timed out (injected)")),
      statRetries(stats().add("retries", "page walks re-walked")),
      statRetryExhausted(stats().add(
          "retryExhausted",
          "walks completed only after the full retry budget"))
{
    if (params.entries == 0)
        fatal("TLB must have at least one entry");
    if (!isPowerOf2(params.pageBytes))
        fatal("TLB page size must be a power of two");
    eq.registerStats(stats());
}

Addr
AladdinTlb::frameOf(Addr page)
{
    auto it = pageTable.find(page);
    if (it != pageTable.end())
        return it->second;
    Addr frame = nextFrame++;
    pageTable.emplace(page, frame);
    return frame;
}

void
AladdinTlb::insert(Addr page, Addr frame)
{
    // Refresh an existing entry rather than allocating a duplicate.
    TlbEntry *victim = nullptr;
    for (auto &e : entries) {
        if (e.valid && e.vpn == page) {
            victim = &e;
            break;
        }
    }
    if (!victim) {
        victim = &entries[0];
        for (auto &e : entries) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.lastUse < victim->lastUse)
                victim = &e;
        }
    }
    victim->vpn = page;
    victim->pfn = frame;
    victim->valid = true;
    victim->lastUse = ++useCounter;
}

bool
AladdinTlb::translate(Addr vaddr, TranslateCallback cb)
{
    Addr page = vpn(vaddr);
    Addr offset = vaddr % params.pageBytes;

    for (auto &e : entries) {
        if (e.valid && e.vpn == page) {
            e.lastUse = ++useCounter;
            ++statHits;
            cb(params.physBase + e.pfn * params.pageBytes + offset);
            return true;
        }
    }

    ++statMisses;

    // Coalesce onto an in-flight walk for the same page.
    auto pending = pendingWalks.find(page);
    if (pending != pendingWalks.end()) {
        ++statWalksCoalesced;
        pending->second.emplace_back(offset, std::move(cb));
        return false;
    }

    pendingWalks[page].emplace_back(offset, std::move(cb));
    Addr frame = frameOf(page);

    // Fault site: the page walk times out and is re-walked. Each
    // timeout costs one full walk latency; after maxRetries timeouts
    // the walk is allowed to complete regardless (a wedged page table
    // would otherwise hang the accelerator — the watchdog exists for
    // genuine wedges, not injected delay).
    Tick walkLatency = params.missLatency;
    if (FaultInjector *fi = eventq.faultInjector()) {
        unsigned timeouts = 0;
        while (timeouts < fi->maxRetries() &&
               fi->shouldFault(FaultSite::TlbWalk)) {
            ++timeouts;
            ++statErrors;
            ++statRetries;
            walkLatency += params.missLatency;
        }
        if (timeouts == fi->maxRetries())
            ++statRetryExhausted;
    }

    TraceSpanId span = invalidTraceSpan;
    if (Tracer *t = tracerFor(eventq, TraceCategory::Tlb))
        span = t->begin(TraceCategory::Tlb, name(), "miss");
    eventq.schedule(eventq.curTick() + walkLatency, [this, page, frame, span] {
        if (Tracer *t = eventq.tracer())
            t->end(span);
        insert(page, frame);
        auto it = pendingWalks.find(page);
        GENIE_ASSERT(it != pendingWalks.end(),
                     "page walk completed with no waiters");
        auto waiters = std::move(it->second);
        pendingWalks.erase(it);
        for (auto &[off, callback] : waiters) {
            callback(params.physBase + frame * params.pageBytes +
                     off);
        }
    }, "tlb.walk");
    return false;
}

Addr
AladdinTlb::translateFunctional(Addr vaddr)
{
    Addr page = vpn(vaddr);
    Addr offset = vaddr % params.pageBytes;
    return params.physBase + frameOf(page) * params.pageBytes + offset;
}

double
AladdinTlb::hitRate() const
{
    double total = statHits.value() + statMisses.value();
    return total > 0 ? statHits.value() / total : 0.0;
}

} // namespace genie
