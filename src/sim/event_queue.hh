/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue owns the global tick counter for one simulated system.
 * There is deliberately no global/singleton queue: each Soc instance
 * owns its own EventQueue so that design-space sweeps can run thousands
 * of independent simulations concurrently on different threads.
 *
 * THE ORDERING CONTRACT: events fire in the strict total order
 * (when ascending, then seq ascending), where seq is the schedule
 * order — equal-tick events fire FIFO. The pending set is one binary
 * min-heap (std::priority_queue) over arena entries keyed on exactly
 * that pair, so stats, traces and fingerprints are a pure function of
 * the schedule calls.
 *
 * Entry lifetime: entries live in an ObjectArena (sim/event_arena.hh)
 * — bump-allocated blocks with freelist recycling, no per-schedule
 * new/delete. An Entry is destroyed at exactly one of three points:
 * when it fires (step()), when a cancelled entry is lazily reaped at
 * the heap top (skipCancelled()), or in the destructor. EventIds
 * encode (slot, generation) into the arena so deschedule() is an O(1)
 * array probe, and allocatedEntries() exposes the arena's live count
 * so tests can prove the accounting closes under any
 * deschedule()/run() interleaving.
 *
 * One way in: schedule() has two overloads, a std::function action
 * and a raw function pointer + context word. The raw form skips
 * std::function construction, move and destruction entirely — the
 * devirtualized fast path of the kinds that fire most: accel.tick and
 * accel.nodeComplete (at most one of each per accelerator cycle),
 * cpu.step, bus.arbitrate and dram.kick. Both capture the ambient
 * flow cursor, and both take a mandatory kind tag. Relative delays
 * are written `curTick() + delta`.
 */

#ifndef GENIE_SIM_EVENT_QUEUE_HH
#define GENIE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/event_arena.hh"
#include "sim/types.hh"

namespace genie
{

class Tracer;
class StatGroup;
class StatRegistry;
class FaultInjector;

/**
 * Opaque handle identifying a scheduled event (for cancellation).
 * Encodes the arena (slot, generation) pair; a handle for a fired or
 * cancelled event goes stale (its slot's generation moves on) and
 * deschedule() on it is a safe no-op.
 */
using EventId = std::uint64_t;

/** Sentinel returned for "no event". */
constexpr EventId invalidEventId = 0;

/**
 * Host-side execution observer (Genie-Metrics self-profiling). The
 * queue calls beginEvent()/endEvent() around every fired action so an
 * implementation can attribute wall-clock time and event counts per
 * event kind. Declared here as an abstract hook so the simulation
 * kernel never depends on host clocks itself; the concrete
 * wall-clock implementation lives in src/metrics/profiler.hh.
 */
class EventProfiler
{
  public:
    virtual ~EventProfiler() = default;

    /** An event tagged @p kind (may be null = untagged) is about to
     * execute at simulated time @p when. */
    virtual void beginEvent(Tick when, const char *kind) = 0;

    /** The event begun last has finished executing. */
    virtual void endEvent() = 0;
};

/**
 * The discrete event queue: deterministic (when, seq) ordering, O(1)
 * cancellation, arena-pooled entries and a binary-heap pending set.
 */
class EventQueue
{
  public:
    /**
     * Raw-dispatch event handler: @p ctx is the scheduling component
     * (typically `this`), @p arg one payload word packed by the
     * schedule site. The devirtualized alternative to std::function
     * for hot kinds.
     */
    using RawEvent = void (*)(void *ctx, std::uint64_t arg);

    EventQueue() = default;
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p action to run at absolute time @p when. @p kind is
     * a static-string tag ("bus.deliver", "dram.tick", ...) naming
     * the owning component; the attached EventProfiler attributes
     * host time per kind, and null profiles as "(untagged)". The
     * string is not copied — pass a literal or a string that outlives
     * the event.
     *
     * The event captures the ambient flow cursor — the id of the span
     * most recently recorded in the currently executing event — as
     * its causal origin. When it fires, the origin becomes the pending
     * flow source, and the first span the action records closes a
     * flowFrom edge back to it (trace/tracer.hh). With tracing
     * disabled the cursor is permanently 0; recording is strictly
     * passive either way — traced results stay byte-identical to
     * untraced.
     * @return a handle usable with deschedule().
     */
    EventId schedule(Tick when, std::function<void()> action,
                     const char *kind);

    /**
     * Raw-dispatch schedule(): @p fn fires as fn(ctx, arg) with no
     * std::function anywhere on the path. Same ordering,
     * cancellation, flow capture and profiling as the std::function
     * overload — a site may be converted freely without changing
     * results.
     */
    EventId schedule(Tick when, RawEvent fn, void *ctx,
                     std::uint64_t arg, const char *kind);

    /** Cancel a previously scheduled event. Safe on fired events. */
    void deschedule(EventId id);

    /** True if no live events remain. */
    bool empty() const { return liveEvents == 0; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t size() const { return liveEvents; }

    /** Tick of the next live event, or maxTick if none. */
    Tick nextTick() const;

    /**
     * Run events until the queue is empty or @p until is reached
     * (events at exactly @p until are executed).
     * @return the final current tick.
     */
    Tick run(Tick until = maxTick);

    /** Execute at most one event. @return false if queue was empty. */
    bool step();

    /** Total number of events executed since construction. */
    std::uint64_t numExecuted() const { return executed; }

    /**
     * Arena-owned Entry allocations currently alive (live events plus
     * cancelled-but-unreaped ones). Debug/test hook for the entry
     * arena; always >= size().
     */
    std::size_t allocatedEntries() const { return arena.live(); }

    /**
     * Attach the event recorder for this queue's system (see
     * trace/tracer.hh). The queue does not own the Tracer; the Soc
     * that owns both keeps the Tracer alive for the queue's lifetime.
     * Null (the default) means tracing is disabled and emission sites
     * skip all work.
     */
    void setTracer(Tracer *t) { _tracer = t; }

    /** The attached Tracer, or null when tracing is disabled. */
    Tracer *tracer() const { return _tracer; }

    /**
     * Attach this system's StatRegistry (see sim/stats.hh). Like the
     * Tracer slot, the queue does not own it; it is the rendezvous
     * point through which components register their StatGroups at
     * construction without extra constructor plumbing. Null (the
     * default) makes registerStats() a no-op.
     */
    void setStatRegistry(StatRegistry *r) { _statRegistry = r; }

    /** The attached registry, or null. */
    StatRegistry *statRegistry() const { return _statRegistry; }

    /** Register @p group with the attached registry, if any. The
     * one-liner every SimObject constructor calls. */
    void registerStats(StatGroup &group);

    /**
     * Attach this system's fault campaign engine (see
     * fault/fault_injector.hh). Same rendezvous pattern as the Tracer
     * and StatRegistry slots: the queue does not own the injector,
     * and null (the default, and the only state in fault-free runs)
     * means every injection site skips all work after one pointer
     * test — a fault-free build and a zero-rate campaign execute the
     * identical instruction stream.
     */
    void setFaultInjector(FaultInjector *f) { _faultInjector = f; }

    /** The attached fault injector, or null when faults are off. */
    FaultInjector *faultInjector() const { return _faultInjector; }

    /**
     * Attach a host-side execution profiler; every fired event is
     * bracketed with beginEvent()/endEvent(). Null (the default)
     * disables profiling at the cost of one pointer test per event.
     * Observability only: the profiler must never mutate simulation
     * state, so profiled and unprofiled runs produce identical
     * results.
     */
    void setProfiler(EventProfiler *p) { _profiler = p; }

    /** The attached profiler, or null. */
    EventProfiler *profiler() const { return _profiler; }

    // ---- Ambient flow cursor (Genie-Scope causal links) ----
    //
    // The queue carries two span ids that thread causality between
    // events without the kernel depending on the trace library: the
    // *cursor* (span most recently recorded while the current event
    // executes) and the *pending origin* (the firing event's captured
    // flowFrom, consumed by the first span the action records). Both
    // are written only by the attached Tracer and by step(); they are
    // observability state, so the setters are const like the lazily
    // reaped heap.

    /** Span id the next schedule() call records as its origin. */
    std::uint64_t flowCursor() const { return _flowCursor; }

    /** Advance the cursor: @p spanId was just recorded in the
     * currently executing event (Tracer-only call). */
    void setFlowCursor(std::uint64_t spanId) const
    {
        _flowCursor = spanId;
    }

    /** The firing event's captured origin, or 0 once consumed. */
    std::uint64_t pendingFlowOrigin() const { return _pendingOrigin; }

    /** Consume the pending origin after recording its flow edge
     * (Tracer-only call). */
    void consumeFlowOrigin() const { _pendingOrigin = 0; }

    /**
     * Re-enter @p origin as the running action's captured origin, as
     * step() does before every action: an event that batches work
     * captured by several schedule sites (the datapath's completion
     * ring) calls it before each piece, so the traced flow edges are
     * those one event per piece would record. Without a Tracer both
     * ids stay 0 and this does nothing.
     */
    void
    enterFlow(std::uint64_t origin) const
    {
        if (_tracer != nullptr) {
            _pendingOrigin = origin;
            _flowCursor = origin;
        }
    }

    /**
     * Invariant check: panics if any live (scheduled, uncancelled,
     * unfired) event remains. Call after run() on a flow that must
     * drain completely; a leftover event is a leaked handshake or a
     * component that kept self-rescheduling past the end of the run.
     */
    void checkDrained() const;

  private:
    /**
     * One pending event. Layout is hot-path packed: the ordering key
     * (when, seq) leads so heap comparisons touch the first cache
     * line; the 32-byte std::function tail is only visited on the
     * non-raw dispatch path.
     */
    struct Entry
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        RawEvent fn = nullptr; ///< non-null => raw fast dispatch
        void *ctx = nullptr;
        std::uint64_t arg = 0;
        const char *kind = nullptr; ///< profiler attribution tag
        /** Causal origin span captured by schedule(); 0 = none. */
        std::uint64_t flowFrom = 0;
        std::uint32_t slot = 0; ///< arena slot owning this entry
        bool cancelled = false;
        std::function<void()> action; ///< empty on the raw path
    };

    /** Allocate + enqueue a blank entry keyed (when, nextSeq) with
     * the current flow cursor and mint its (slot, generation)
     * EventId. */
    Entry *enqueueEntry(Tick when, const char *kind, EventId &idOut);

    struct EntryCompare
    {
        bool
        operator()(const Entry *a, const Entry *b) const
        {
            if (a->when != b->when)
                return a->when > b->when;
            return a->seq > b->seq;
        }
    };

    // EventId <-> arena (slot, generation) packing. slot+1 keeps every
    // valid id distinct from invalidEventId.
    static EventId makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(slot + 1) << 32) | EventId(gen);
    }

    /** Pop cancelled entries off the top of the heap. */
    void skipCancelled() const;

    /** Destroy @p e's arena slot, keeping the live count honest. */
    void freeEntry(const Entry *e) const;

    Tick _curTick = 0;
    Tracer *_tracer = nullptr;
    StatRegistry *_statRegistry = nullptr;
    EventProfiler *_profiler = nullptr;
    FaultInjector *_faultInjector = nullptr;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::size_t liveEvents = 0;
    // Ambient flow state (see the accessor block above): written by
    // the attached Tracer through const handles, hence mutable.
    mutable std::uint64_t _flowCursor = 0;
    mutable std::uint64_t _pendingOrigin = 0;

    // Entry storage (see event_arena.hh): the heap holds arena-owned
    // pointers; cancellation marks the entry and the top scan lazily
    // destroys it. Mutable: lazy reaping happens from const queries
    // (nextTick).
    mutable ObjectArena<Entry> arena;
    mutable std::priority_queue<Entry *, std::vector<Entry *>,
                                EntryCompare> heap;
};

} // namespace genie

#endif // GENIE_SIM_EVENT_QUEUE_HH
