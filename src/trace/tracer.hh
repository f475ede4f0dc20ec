/**
 * @file
 * Genie-Trace: tick-stamped structured event tracing.
 *
 * Every SimObject can emit spans (begin/end or explicit-interval
 * "complete" records) and instant events into the Tracer owned by its
 * EventQueue. Emission is strictly passive — the Tracer never
 * schedules events or perturbs component state, so a traced run and
 * an untraced run of the same design point produce identical
 * SocResults. When tracing is disabled the EventQueue carries a null
 * Tracer pointer and every emission site reduces to one pointer test.
 *
 * Two sinks consume the recorded stream:
 *
 *  - writeChromeJson(): Chrome trace-event / Perfetto JSON, so any
 *    run can be opened in a timeline viewer (chrome://tracing or
 *    ui.perfetto.dev). Tracks map to components, categories to the
 *    activity classes below.
 *  - the in-memory query API: spans() collapses a category (or one
 *    named span kind) into an IntervalSet for set-algebra runtime
 *    breakdowns, and durations() summarizes span lengths — the
 *    substrate the figure benches and tests consume.
 *
 * Categories (one bit each, maskable from the CLI):
 *   flush     CPU cache flush / invalidate maintenance
 *   dma       DMA engine transactions, descriptor fetches, chunks
 *   bus       shared-bus packet occupancy
 *   cache     accelerator/CPU cache miss lifetimes (MSHR spans)
 *   dram      DRAM controller request service
 *   datapath  accelerator node issue..retire
 *   tlb       accelerator TLB page-walk spans
 *   spad      scratchpad bank-conflict instants
 *   iface     SoC-interface activity: ACP transactions, posted
 *             interrupts, command-queue drains
 */

#ifndef GENIE_TRACE_TRACER_HH
#define GENIE_TRACE_TRACER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/interval_set.hh"
#include "sim/types.hh"
#include "sim/thread_safety.hh"

namespace genie
{

/** Activity classes; each event carries exactly one. */
enum class TraceCategory : std::uint8_t
{
    Flush,
    Dma,
    Bus,
    Cache,
    Dram,
    Datapath,
    Tlb,
    Spad,
    Iface,
};

constexpr std::size_t numTraceCategories = 9;

/** One enabled-bit per TraceCategory. */
using TraceCategoryMask = std::uint32_t;

constexpr TraceCategoryMask
traceCategoryBit(TraceCategory c)
{
    return 1u << static_cast<unsigned>(c);
}

constexpr TraceCategoryMask allTraceCategories =
    (1u << numTraceCategories) - 1;

/** Stable lowercase category name (used in JSON and the CLI). */
const char *traceCategoryName(TraceCategory c);

/**
 * Parse a comma-separated category list ("dma,flush,datapath") into a
 * mask; "all" (or an empty string) selects every category. fatal() on
 * an unknown name.
 */
TraceCategoryMask parseTraceCategories(const std::string &csv);

/** Render @p mask as the canonical comma-separated list. */
std::string traceCategoriesToString(TraceCategoryMask mask);

/** Tracing knobs threaded through SocConfig. */
struct TraceConfig GENIE_THREAD_LOCAL_OK
{
    /** Master switch: when false no Tracer is constructed at all. */
    bool enabled = false;
    /** Which categories record events. */
    TraceCategoryMask categories = allTraceCategories;
    /** Chrome trace-event JSON output path; empty = in-memory only. */
    std::string outPath;
};

/** Handle for an open span. 0 means "not recorded" (category off);
 * end() on it is a no-op, so emission sites need no second check. */
using TraceSpanId = std::uint64_t;
constexpr TraceSpanId invalidTraceSpan = 0;

/**
 * One causal edge between two recorded spans (Genie-Scope): the
 * component that recorded span `from` scheduled the event in which
 * span `to` was recorded (EventQueue::schedule() captures the flow
 * cursor on every call). Since `from` is always recorded before `to`,
 * from < to and the flow set forms a DAG over span ids by
 * construction.
 */
struct FlowLink GENIE_THREAD_LOCAL_OK
{
    TraceSpanId from = 0;
    TraceSpanId to = 0;
};

/**
 * Read-only view of one recorded span, for analysis consumers
 * (src/scope). `id` is the 1-based record id flows refer to.
 */
struct SpanView GENIE_THREAD_LOCAL_OK
{
    TraceSpanId id = 0;
    Tick begin = 0;
    Tick end = 0;
    std::string_view track;
    std::string_view name;
    TraceCategory cat = TraceCategory::Flush;
    bool open = false;
};

/** Span-duration summary for one category (or one span name). */
struct TraceDurations GENIE_THREAD_LOCAL_OK
{
    std::uint64_t count = 0;
    Tick minTicks = 0;
    Tick maxTicks = 0;
    Tick totalTicks = 0;

    double
    meanTicks() const
    {
        return count > 0
                   ? static_cast<double>(totalTicks) /
                         static_cast<double>(count)
                   : 0.0;
    }
};

/**
 * The per-EventQueue event recorder. Single-threaded by construction
 * (one Tracer per EventQueue per Soc), so sweeps tracing thousands of
 * concurrent design points never contend or interleave.
 */
class Tracer GENIE_THREAD_LOCAL_OK
{
  public:
    explicit Tracer(const EventQueue &eq,
                    TraceCategoryMask mask = allTraceCategories);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** True if events of category @p c are being recorded. */
    bool
    wants(TraceCategory c) const
    {
        return (mask & traceCategoryBit(c)) != 0;
    }

    TraceCategoryMask categories() const { return mask; }

    /**
     * Open a span on @p track (the emitting component's name) at the
     * current tick. @return a handle for end(), or invalidTraceSpan
     * if the category is masked off.
     */
    TraceSpanId begin(TraceCategory c, std::string_view track,
                      std::string_view name);

    /** Close an open span at the current tick. No-op on
     * invalidTraceSpan. */
    void end(TraceSpanId id);

    /**
     * Record a span with an explicit [begin, end) interval — for
     * analytically scheduled activities whose end tick is known at
     * emission time (flush chunks, bus occupancy, DRAM service).
     */
    void complete(TraceCategory c, std::string_view track,
                  std::string_view name, Tick beginTick, Tick endTick);

    /** Record a zero-duration event at the current tick. */
    void instant(TraceCategory c, std::string_view track,
                 std::string_view name);

    // ---- In-memory query API ----

    /** Total recorded events (spans + instants). */
    std::size_t numEvents() const { return records.size(); }

    /** Spans opened by begin() and not yet closed by end(). */
    std::size_t openSpans() const { return openCount; }

    /** Union of all span intervals in @p c (instants excluded). */
    IntervalSet spans(TraceCategory c) const;

    /** Union of the span intervals in @p c named @p name. */
    IntervalSet spans(TraceCategory c, std::string_view name) const;

    /** Duration histogram inputs over all closed spans in @p c. */
    TraceDurations durations(TraceCategory c) const;

    /** Duration summary for closed spans in @p c named @p name. */
    TraceDurations durations(TraceCategory c,
                             std::string_view name) const;

    /** Number of instant events in @p c named @p name. */
    std::uint64_t instantCount(TraceCategory c,
                               std::string_view name) const;

    /**
     * Every recorded span (instants excluded) as analysis views, in
     * record order. The string_views alias the tracer's interned
     * pool and stay valid for its lifetime.
     */
    std::vector<SpanView> spanViews() const;

    /** Causal edges between spans, in recording order. */
    const std::vector<FlowLink> &flowLinks() const { return flows; }

    // ---- Sinks ----

    /** Serialize as Chrome trace-event JSON (Perfetto-compatible). */
    void writeChromeJson(std::ostream &os) const;

    /** Write the Chrome JSON to @p path; fatal() if unwritable. */
    void writeChromeJsonFile(const std::string &path) const;

  private:
    enum class Kind : std::uint8_t
    {
        Span,
        Instant,
    };

    struct Record
    {
        Tick begin = 0;
        Tick end = 0;
        std::uint32_t track = 0; ///< interned string index
        std::uint32_t name = 0;  ///< interned string index
        TraceCategory cat = TraceCategory::Flush;
        Kind kind = Kind::Span;
        bool open = false;
    };

    std::uint32_t intern(std::string_view s);

    /** Close a pending flow edge into span @p id (if the executing
     * event carries a consumable origin) and advance the ambient
     * cursor. Called by every span-recording entry point. */
    void noteSpanRecorded(TraceSpanId id);

    const EventQueue &eventq;
    TraceCategoryMask mask;

    std::vector<Record> records;
    std::vector<FlowLink> flows;
    /** Interned track/name strings; records index into this pool. */
    std::vector<std::string> strings;
    std::unordered_map<std::string, std::uint32_t> stringIndex;
    std::size_t openCount = 0;
};

/**
 * The tracer of @p eq if tracing is on and @p c is enabled, else
 * null. The one-line guard every emission site uses:
 *
 *   if (Tracer *t = tracerFor(eventq, TraceCategory::Dma))
 *       t->instant(TraceCategory::Dma, name(), "...");
 */
inline Tracer *
tracerFor(const EventQueue &eq, TraceCategory c)
{
    Tracer *t = eq.tracer();
    return (t != nullptr && t->wants(c)) ? t : nullptr;
}

} // namespace genie

#endif // GENIE_TRACE_TRACER_HH
