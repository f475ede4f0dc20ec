/**
 * @file
 * SweepEngine: the work-stealing, memoizing, resumable sweep runner.
 *
 * The engine replaces the old static-partition thread pool with a
 * scheduler built for the paper-figure spaces:
 *
 *  - scheduling: design points are ordered longest-job-first by a
 *    config cost heuristic and dealt round-robin into per-thread
 *    deques; an idle worker pops its own deque from the front and
 *    steals from the back of a victim's, so one expensive cache-mode
 *    point never serializes the tail of a sweep.
 *  - memoization: every point is keyed by configCanonicalKey() and
 *    looked up in a ResultCache before simulating. The Fig. 6 and
 *    Fig. 8 DMA spaces overlap in their all-optimizations points, and
 *    explorer invocations repeat whole spaces; both dedupe to cache
 *    hits. Pass a shared cache in SweepOptions to dedupe across
 *    sweeps; otherwise the engine uses a private one.
 *  - checkpointing: with a journal path set, each freshly simulated
 *    point is appended (and flushed) as a `genie-sweep-1` JSON line;
 *    with a resume path set, the journal is preloaded into the cache
 *    so an interrupted sweep redoes only the missing points.
 *  - failure: a throw inside a worker never terminates the process
 *    and never silently drops the point. Failures are collected with
 *    the offending config attached and rethrown as one SweepError
 *    after the sweep (or reported in progress counters with
 *    continueOnError).
 *
 * Determinism: a design point's results depend only on its config
 * (each Soc owns its event queue), so sweep output is byte-identical
 * across thread counts, cold vs. warm caches, and interrupted-then-
 * resumed vs. uninterrupted runs — the golden-figure suite asserts
 * all three. Host time is read through profilerNowNs() only: two
 * reads around each fresh point's Soc::run(), for the MEPS report,
 * and the progress clock. No profiler is attached to a point, so no
 * event pays for timing. Host time never enters results or the
 * journal (the sweep-determinism lint rule).
 */

#ifndef GENIE_DSE_SWEEP_ENGINE_HH
#define GENIE_DSE_SWEEP_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/result_cache.hh"
#include "dse/sweep.hh"
#include "sim/stats.hh"
#include "sim/thread_safety.hh"

namespace genie
{

class ResultStore;

/** Live counters reported through SweepOptions::onProgress and
 * mirrored into the "sweep" StatGroup. */
struct SweepProgress GENIE_THREAD_LOCAL_OK
{
    std::size_t total = 0;  ///< points in the sweep
    std::size_t done = 0;   ///< freshly simulated
    std::size_t cached = 0; ///< served from the ResultCache/journal
    std::size_t failed = 0; ///< worker exceptions (see failures())
    /** Aggregate simulator throughput so far: millions of simulated
     * events retired per host-second spent inside Soc::run() of the
     * fresh points, summed over workers (0 until a point is fresh). */
    double meps = 0.0;

    // Live telemetry (populated only while a run is in flight; all
    // host-time-derived, so none of it ever enters results or the
    // journal).
    unsigned workers = 0; ///< worker threads in this run
    unsigned active = 0;  ///< workers currently simulating a point
    double elapsedSeconds = 0.0;  ///< host time since run() began
    double pointsPerSecond = 0.0; ///< completed points per second
    /** Estimated seconds to finish at the current rate (0 until the
     * rate is measurable). */
    double etaSeconds = 0.0;
    /** cached / (done + cached): how much of the sweep the result
     * cache and resume journal absorbed. */
    double cacheHitRate = 0.0;
    /** active / workers: the fraction of the pool doing useful work
     * (drops at the tail when deques drain). */
    double occupancy = 0.0;

    std::size_t completed() const { return done + cached + failed; }
    std::size_t
    remaining() const
    {
        std::size_t c = completed();
        return total > c ? total - c : 0;
    }
};

/** One design point whose simulation threw, with the offending
 * config attached. */
struct FailedPoint GENIE_THREAD_LOCAL_OK
{
    std::size_t index = 0; ///< position in the swept config vector
    SocConfig config;
    std::string message;
};

/** Thrown after the sweep when any worker failed (unless
 * SweepOptions::continueOnError). Carries every failure. */
class SweepError GENIE_THREAD_LOCAL_OK : public std::runtime_error
{
  public:
    SweepError(const std::string &what,
               std::vector<FailedPoint> failedPoints)
        : std::runtime_error(what), _failures(std::move(failedPoints))
    {}

    const std::vector<FailedPoint> &failures() const
    {
        return _failures;
    }

  private:
    std::vector<FailedPoint> _failures;
};

struct SweepOptions GENIE_SHARED_OK(written before run starts and
                                    read-only while workers exist)
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 0;

    /** Append a `genie-sweep-1` record per fresh simulation; "" =
     * no journal. Truncated unless it is also the resume path. */
    std::string journalPath;

    /** Preload this journal into the cache before sweeping; "" =
     * cold start. May equal journalPath (the restart case). */
    std::string resumePath;

    /** Stop cleanly after this many fresh simulations (0 = no
     * limit). Used to test and exercise interruption/resume. */
    std::size_t maxFreshPoints = 0;

    /** Collect failures in progress counters instead of throwing
     * SweepError after the sweep. */
    bool continueOnError = false;

    /** Share a cache across sweeps/invocations; null = private. */
    ResultCache *cache = nullptr;

    /**
     * Durable second tier behind the in-memory cache: on a cache
     * miss the engine consults the store (a store hit counts as
     * cached and is promoted into the cache), and every fresh
     * simulation is written through, so completed points survive the
     * process — the genie_serve crash-tolerance contract. The store
     * must be open; null = no persistence.
     */
    ResultStore *store = nullptr;

    /**
     * Cooperative stop: when the pointee becomes true (a signal
     * handler's drain request), workers stop dealing new points,
     * in-flight points finish and journal normally, and run()
     * returns with interrupted() set. Null = never stopped.
     */
    const std::atomic<bool> *stopRequested = nullptr;

    /** Called after every completed/cached/failed point. Invoked
     * under a lock: implementations need not be thread-safe. */
    std::function<void(const SweepProgress &)> onProgress;

    /** Minimum host nanoseconds between onProgress deliveries
     * (0 = report every point). Rate-limits terminal repaints on
     * cache-hot sweeps that retire thousands of points per second;
     * the final state of a run is always delivered. */
    std::uint64_t progressIntervalNs = 0;
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /**
     * Simulate every configuration; results return in @p configs
     * order regardless of scheduling. Throws SweepError if any
     * worker threw (unless continueOnError). The trace and DDDG are
     * shared read-only across workers.
     */
    std::vector<DesignPoint> run(const std::vector<SocConfig> &configs,
                                 const Trace &trace, const Dddg &dddg);

    /** Counters of the last run (live during a run). */
    SweepProgress progress() const;

    /** Failures of the last run (always populated, also with
     * continueOnError). */
    const std::vector<FailedPoint> &failures() const
    {
        return _failures;
    }

    /** True when maxFreshPoints or stopRequested stopped the last
     * run early. */
    bool interrupted() const { return _interrupted; }

    /** Points of the last run served from the durable ResultStore
     * (a subset of the cached count). */
    std::uint64_t storeHits() const { return _storeHits; }

    /** Corrupt interior journal lines skipped while resuming the
     * last run (see JournalLoadResult::corruptLines); nonzero means
     * disk corruption and the affected points were re-simulated. */
    std::size_t journalCorruptLines() const
    {
        return _journalCorruptLines;
    }

    /** Simulated events retired by the freshly simulated points of
     * the last run (each Soc's EventQueue::numExecuted(), summed);
     * cached and failed points add none. */
    std::uint64_t simulatedEvents() const { return _events; }

    /** Host nanoseconds inside Soc::run() of the freshly simulated
     * points, summed across workers; Soc construction and teardown
     * are excluded. At most threads x the sweep's wall time. */
    std::uint64_t hostWallNs() const { return _wallNs; }

    /** Aggregate MEPS of the last run. */
    double meps() const;

    /** Register the engine's "sweep" StatGroup (points_total/done/
     * cached/failed, events, meps) with @p registry. */
    void registerStats(StatRegistry &registry);

    /**
     * Relative host-cost heuristic for longest-job-first ordering.
     * Cache-mode points simulate the full coherence machinery and
     * cost several DMA points; within a mode, fewer lanes mean more
     * simulated compute cycles. Only the ordering matters.
     */
    static double configCost(const SocConfig &config);

  private:
    struct Impl;
    /** Set before workers spawn, reset after they join; workers reach
     * shared run state only through this pointer. */
    std::unique_ptr<Impl> impl GENIE_SHARED_OK(set before workers
                                               spawn and reset after
                                               the join);

    SweepOptions opts GENIE_SHARED_OK(written before run and
                                      read-only while workers exist);
    /** Stats are registered/written outside the worker phase; during
     * a run workers read only the pre-published points_total. */
    StatGroup statGroup GENIE_SHARED_OK(mutated only outside the
                                        worker phase){"sweep"};
    Stat *statTotal GENIE_SHARED_OK(bound in ctor; pointee written
                                    before workers spawn) = nullptr;
    Stat *statDone GENIE_SHARED_OK(bound in ctor; pointee written
                                   after workers join) = nullptr;
    Stat *statCached GENIE_SHARED_OK(bound in ctor; pointee written
                                     after workers join) = nullptr;
    Stat *statFailed GENIE_SHARED_OK(bound in ctor; pointee written
                                     after workers join) = nullptr;
    Stat *statEvents GENIE_SHARED_OK(bound in ctor; pointee written
                                     after workers join) = nullptr;
    Stat *statMeps GENIE_SHARED_OK(bound in ctor; pointee written
                                   after workers join) = nullptr;
    Stat *statStoreHits GENIE_SHARED_OK(bound in ctor; pointee
                                        written after workers
                                        join) = nullptr;
    Stat *statJournalCorrupt GENIE_SHARED_OK(bound in ctor; pointee
                                             written before workers
                                             spawn) = nullptr;

    /** Owner-thread mirrors of the last run, copied after the join. */
    std::vector<FailedPoint> _failures GENIE_THREAD_LOCAL_OK;
    bool _interrupted GENIE_THREAD_LOCAL_OK = false;
    std::uint64_t _events GENIE_THREAD_LOCAL_OK = 0;
    std::uint64_t _wallNs GENIE_THREAD_LOCAL_OK = 0;
    std::uint64_t _storeHits GENIE_THREAD_LOCAL_OK = 0;
    std::size_t _journalCorruptLines GENIE_THREAD_LOCAL_OK = 0;

    void publishStats();
};

} // namespace genie

#endif // GENIE_DSE_SWEEP_ENGINE_HH
