/**
 * @file
 * HostProfiler: wall-clock self-profiling of the simulation kernel.
 *
 * Attach one to an EventQueue (eq.setProfiler(&prof)) and every fired
 * event is timed on the host's monotonic clock and attributed to its
 * schedule-site kind tag ("bus.deliver", "dram.tick", ...; untagged
 * events pool under "(untagged)"). After a run the profiler answers:
 * where does the simulator itself spend host time, and how many
 * simulated events per second does it retire (MEPS = millions of
 * events/second). MEPS falls when one event does more work (the
 * datapath completes a whole cycle's nodes in one event), so compare
 * host time per node or per cycle across versions, as perfbench does.
 *
 * The profiler observes and never mutates simulation state, so
 * profiled and unprofiled runs produce identical simulated results.
 * Host-clock reads live only here, behind the EventProfiler hook —
 * the one sanctioned wall-clock site in the library (see the
 * determinism suppression in tools/genie_lint/suppressions.txt).
 */

#ifndef GENIE_METRICS_PROFILER_HH
#define GENIE_METRICS_PROFILER_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/thread_safety.hh"

namespace genie
{

/**
 * The sanctioned host-clock read (monotonic nanoseconds). Telemetry
 * callers (SweepEngine progress, bench harnesses) must use this
 * instead of touching std::chrono directly, so every wall-clock read
 * in the library funnels through one auditable site — and the
 * determinism lint rule stays tree-wide with a single suppression.
 * Host time read here must never feed back into simulated behavior.
 */
std::uint64_t profilerNowNs();

/**
 * HDR-style log-bucketed histogram of host latencies (ns). Each
 * power-of-two range [2^e, 2^(e+1)) splits into subBuckets linear
 * sub-buckets, and values below subBuckets get a bucket each, so the
 * buckets cover every uint64 value — nothing overflows — and a
 * bucket is at most 1/subBuckets of its lower edge wide.
 *
 * quantile(p) is the lower edge of the bucket holding rank
 * ceil(p * count). Every sample at or above that rank is at least
 * that large, so count * (1 - p) * quantile(p) <= sum() holds
 * exactly: a quantile never claims more time than its own total.
 */
class LatencyHistogram GENIE_THREAD_LOCAL_OK
{
  public:
    static constexpr unsigned subBits = 3;
    static constexpr unsigned subBuckets = 1u << subBits;
    static constexpr unsigned numBuckets =
        (64 - subBits + 1) * subBuckets;

    void sample(std::uint64_t ns);

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t max() const { return _max; }

    /** Lower edge of the bucket holding rank ceil(p * count), for p
     * in [0, 1]; 0 when empty. */
    std::uint64_t quantile(double p) const;
    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }

    static unsigned bucketOf(std::uint64_t ns);
    static std::uint64_t lowerEdge(unsigned bucket);

  private:
    std::array<std::uint64_t, numBuckets> counts{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _max = 0;
};

class HostProfiler GENIE_THREAD_LOCAL_OK : public EventProfiler
{
  public:
    /** Accumulated attribution for one event kind. */
    struct KindProfile
    {
        std::uint64_t events = 0;
        std::uint64_t wallNs = 0;
        /** Per-event handler latency histogram (ns), for the p50/p95
         * columns of report(). */
        LatencyHistogram latencyNs;
    };

    void beginEvent(Tick when, const char *kind) override;
    void endEvent() override;

    /** Events executed while attached. */
    std::uint64_t totalEvents() const { return _totalEvents; }

    /** Host nanoseconds spent inside event actions. */
    std::uint64_t totalWallNs() const { return _totalWallNs; }

    /** Simulated events retired per host second (0 before any
     * event completes). */
    double eventsPerSecond() const;

    /** eventsPerSecond() in millions (the MEPS headline). */
    double meps() const { return eventsPerSecond() / 1e6; }

    /** Attribution by kind tag; values sum exactly to totalEvents()
     * and totalWallNs(). */
    const std::map<std::string, KindProfile> &
    byKind() const
    {
        return kinds;
    }

    /** Kinds sorted by wall time, heaviest first. */
    std::vector<std::pair<std::string, KindProfile>> sorted() const;

    /** Human-readable table: kind, events, wall ms, share. */
    void report(std::ostream &os) const;

    void reset();

  private:
    std::map<std::string, KindProfile> kinds;
    /** Pointer-identity memo of the by-name lookup: kind tags are
     * static literals, so the same tag pointer recurs per site and
     * endEvent() resolves it with one hash probe (Genie-Turbo). */
    std::unordered_map<const char *, KindProfile *> kindCache;
    std::uint64_t _totalEvents = 0;
    std::uint64_t _totalWallNs = 0;

    // In-flight event state between beginEvent() and endEvent().
    std::uint64_t startNs = 0;
    const char *curKind = nullptr;
    bool inEvent = false;
};

} // namespace genie

#endif // GENIE_METRICS_PROFILER_HH
