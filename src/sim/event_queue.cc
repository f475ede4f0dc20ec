#include "event_queue.hh"

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace genie
{

void
EventQueue::registerStats(StatGroup &group)
{
    if (_statRegistry != nullptr)
        _statRegistry->registerGroup(group);
}

EventQueue::~EventQueue()
{
#if GENIE_CHECK_INVARIANTS
    // Event-leak-at-exit detector: live events at destruction usually
    // mean a component leaked a handshake (e.g. a response that never
    // arrived). Destroying a queue after run(until) legitimately
    // leaves future events, so this only warns; flows that must drain
    // completely should assert with checkDrained().
    if (liveEvents != 0) {
        warn("EventQueue destroyed with %zu live event(s) pending "
             "(first at tick %llu)",
             liveEvents, (unsigned long long)nextTick());
    }
#endif
    while (!heap.empty()) {
        Entry *e = heap.top();
        heap.pop();
        freeEntry(e);
    }
    GENIE_ASSERT(arena.live() == 0,
                 "EventQueue entry accounting leak: %zu entries "
                 "unfreed at destruction",
                 arena.live());
}

void
EventQueue::freeEntry(const Entry *e) const
{
    arena.destroy(e->slot);
}

EventQueue::Entry *
EventQueue::enqueueEntry(Tick when, const char *kind, EventId &idOut)
{
    if (when < _curTick)
        panic("scheduling event in the past (%llu < %llu)",
              (unsigned long long)when, (unsigned long long)_curTick);
    std::uint32_t slot;
    Entry *e = arena.create(slot);
    e->when = when;
    e->seq = nextSeq++;
    e->kind = kind;
    e->flowFrom = _flowCursor;
    e->slot = slot;
    heap.push(e);
    ++liveEvents;
    idOut = makeId(slot, arena.generation(slot));
    return e;
}

EventId
EventQueue::schedule(Tick when, std::function<void()> action,
                     const char *kind)
{
    EventId id;
    Entry *e = enqueueEntry(when, kind, id);
    e->action = std::move(action);
    return id;
}

EventId
EventQueue::schedule(Tick when, RawEvent fn, void *ctx,
                     std::uint64_t arg, const char *kind)
{
    EventId id;
    Entry *e = enqueueEntry(when, kind, id);
    e->fn = fn;
    e->ctx = ctx;
    e->arg = arg;
    return id;
}

void
EventQueue::deschedule(EventId id)
{
    if (id == invalidEventId)
        return;
    // O(1) arena probe: a stale generation (already fired, already
    // cancelled and reaped, or never valid) yields null.
    Entry *e = arena.get(std::uint32_t(id >> 32) - 1,
                         std::uint32_t(id));
    if (e == nullptr || e->cancelled)
        return; // already fired or cancelled
    e->cancelled = true;
    --liveEvents;
}

void
EventQueue::skipCancelled() const
{
    while (!heap.empty() && heap.top()->cancelled) {
        Entry *e = heap.top();
        heap.pop();
        freeEntry(e);
    }
}

Tick
EventQueue::nextTick() const
{
    skipCancelled();
    return heap.empty() ? maxTick : heap.top()->when;
}

bool
EventQueue::step()
{
    skipCancelled();
    if (heap.empty())
        return false;
    fireTop();
    return true;
}

void
EventQueue::fireTop()
{
    Entry *e = heap.top();
    heap.pop();
    GENIE_ASSERT(e->when >= _curTick, "event order went backwards");
    _curTick = e->when;
    --liveEvents;
    ++executed;
    // Pull the dispatch state out so the entry can be recycled before
    // the handler runs: the handler may reschedule and reuse the slot.
    // Recycling first also makes a deschedule() of the now-firing id
    // from inside the handler a harmless stale-generation no-op.
    const RawEvent fn = e->fn;
    void *const ctx = e->ctx;
    const std::uint64_t arg = e->arg;
    const char *const kind = e->kind;
    const Tick when = e->when;
    const std::uint64_t flowFrom = e->flowFrom;
    std::function<void()> action;
    if (fn == nullptr)
        action = std::move(e->action);
    freeEntry(e);
    // Hand the captured origin to the firing action: the first span
    // it records closes the flow edge, and inheriting the origin as
    // the cursor keeps causality threaded through span-less
    // intermediary events (e.g. a chain of cpu.step events between a
    // DMA completion and the next ioctl).
    enterFlow(flowFrom);
    if (_profiler != nullptr) {
        _profiler->beginEvent(when, kind);
        if (fn != nullptr)
            fn(ctx, arg);
        else
            action();
        _profiler->endEvent();
    } else {
        if (fn != nullptr)
            fn(ctx, arg);
        else
            action();
    }
}

Tick
EventQueue::run(Tick until)
{
    while (true) {
        Tick next = nextTick();
        if (next == maxTick || next > until)
            break;
        // nextTick() reaped cancelled entries: the top is live, so
        // fire it without a second scan.
        fireTop();
    }
    if (until != maxTick && _curTick < until)
        _curTick = until;
    return _curTick;
}

void
EventQueue::checkDrained() const
{
    if (liveEvents != 0) {
        panic("EventQueue not drained: %zu live event(s) remain, "
              "next at tick %llu",
              liveEvents, (unsigned long long)nextTick());
    }
}

} // namespace genie
