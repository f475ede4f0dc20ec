#include "sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/fingerprint.hh"
#include "core/soc.hh"
#include "dse/journal.hh"
#include "dse/result_store.hh"
#include "metrics/profiler.hh"
#include "sim/logging.hh"

namespace genie
{

/** Per-run scheduler and journal state, private to run(). */
struct SweepEngine::Impl
{
    // Inputs resolved for this run.
    /** Canonical key per index. */
    std::vector<std::string> keys GENIE_SHARED_OK(filled before
                                                  workers spawn and
                                                  read-only after);
    /** External or owned; the cache synchronizes internally. */
    ResultCache *cache GENIE_SHARED_OK(bound before workers spawn;
                                       pointee internally
                                       synchronized) = nullptr;
    ResultCache ownedCache GENIE_SHARED_OK(internally synchronized);

    // Work-stealing deques: the owner pops from the front, thieves
    // pop from the back, so a thief takes the victim's cheapest
    // remaining point and the owner keeps its expensive head.
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::size_t> items GENIE_GUARDED_BY(mutex);
    };
    std::vector<std::unique_ptr<WorkerQueue>> queues
        GENIE_SHARED_OK(sized and filled before workers spawn; the
                        elements lock themselves);

    // Shared counters.
    std::atomic<std::size_t> done GENIE_SHARED_OK(atomic){0};
    std::atomic<std::size_t> cachedHits GENIE_SHARED_OK(atomic){0};
    std::atomic<std::size_t> failed GENIE_SHARED_OK(atomic){0};
    std::atomic<std::size_t> freshStarted GENIE_SHARED_OK(atomic){0};
    std::atomic<std::size_t> storeHits GENIE_SHARED_OK(atomic){0};
    std::atomic<bool> stopped GENIE_SHARED_OK(atomic){false};
    std::atomic<std::uint64_t> events GENIE_SHARED_OK(atomic){0};
    std::atomic<std::uint64_t> wallNs GENIE_SHARED_OK(atomic){0};

    // Live-telemetry state (host-derived; never enters results).
    std::atomic<unsigned> activeWorkers GENIE_SHARED_OK(atomic){0};
    std::atomic<std::uint64_t> lastProgressNs
        GENIE_SHARED_OK(atomic){0};
    /** profilerNowNs() when run() started dispatching. */
    std::uint64_t startNs GENIE_SHARED_OK(set before workers spawn
                                          and read-only after) = 0;
    unsigned workerCount GENIE_SHARED_OK(set before workers spawn
                                         and read-only after) = 0;

    std::mutex failureMutex;
    std::vector<FailedPoint> failures GENIE_GUARDED_BY(failureMutex);

    std::mutex progressMutex; ///< serializes the user callback

    std::mutex journalMutex;
    std::ofstream journal GENIE_GUARDED_BY(journalMutex);
    /** Whether this run journals at all; the stream itself is only
     * touched under journalMutex. */
    bool journalEnabled GENIE_SHARED_OK(set before workers spawn and
                                        read-only after) = false;

    /** Pop the next index: own deque first, then steal. Returns
     * npos when every deque is empty. */
    std::size_t
    take(std::size_t self)
    {
        {
            WorkerQueue &own = *queues[self];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.items.empty()) {
                std::size_t i = own.items.front();
                own.items.pop_front();
                return i;
            }
        }
        for (std::size_t v = 0; v < queues.size(); ++v) {
            if (v == self)
                continue;
            WorkerQueue &victim = *queues[v];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.items.empty()) {
                std::size_t i = victim.items.back();
                victim.items.pop_back();
                return i;
            }
        }
        return static_cast<std::size_t>(-1);
    }
};

SweepEngine::SweepEngine(SweepOptions options)
    : opts(std::move(options))
{
    statTotal = &statGroup.add("points_total",
                               "design points in the sweep");
    statDone = &statGroup.add("points_done",
                              "points freshly simulated");
    statCached = &statGroup.add("points_cached",
                                "points served from the result cache");
    statFailed = &statGroup.add("points_failed",
                                "points whose simulation threw");
    statEvents = &statGroup.add("events",
                                "simulated events retired");
    statMeps = &statGroup.add(
        "meps", "aggregate simulated events per host second, "
                "in millions");
    statStoreHits = &statGroup.add(
        "store_hits", "points served from the durable result store");
    statJournalCorrupt = &statGroup.add(
        "journal_corrupt_lines",
        "corrupt interior journal lines skipped during resume");
}

SweepEngine::~SweepEngine() = default;

double
SweepEngine::configCost(const SocConfig &config)
{
    // Relative, not absolute: cache-mode points carry the coherence
    // protocol, MSHRs, and TLB walks (~4x a DMA point on the Fig. 8
    // spaces); within a mode the datapath dominates, and halving the
    // lanes roughly doubles the simulated compute cycles.
    double base = config.memType == MemInterface::Cache ? 4.0 : 1.0;
    double laneFactor =
        16.0 / static_cast<double>(std::max(1u, config.lanes));
    return base * (1.0 + laneFactor);
}

SweepProgress
SweepEngine::progress() const
{
    SweepProgress p;
    p.total = statTotal ? static_cast<std::size_t>(
                              statTotal->value())
                        : 0;
    if (impl) {
        p.done = impl->done.load();
        p.cached = impl->cachedHits.load();
        p.failed = impl->failed.load();
        std::uint64_t ns = impl->wallNs.load();
        p.meps = ns > 0 ? static_cast<double>(impl->events.load()) *
                              1e3 / static_cast<double>(ns)
                        : 0.0;
        p.workers = impl->workerCount;
        p.active = impl->activeWorkers.load();
        std::uint64_t now = profilerNowNs();
        std::uint64_t elapsed =
            now > impl->startNs ? now - impl->startNs : 0;
        p.elapsedSeconds = static_cast<double>(elapsed) * 1e-9;
        std::size_t completed = p.completed();
        if (elapsed > 0 && completed > 0) {
            p.pointsPerSecond = static_cast<double>(completed) /
                                p.elapsedSeconds;
            p.etaSeconds = static_cast<double>(p.remaining()) /
                           p.pointsPerSecond;
        }
        std::size_t resolved = p.done + p.cached;
        p.cacheHitRate =
            resolved > 0 ? static_cast<double>(p.cached) /
                               static_cast<double>(resolved)
                         : 0.0;
        p.occupancy = p.workers > 0
                          ? static_cast<double>(p.active) /
                                static_cast<double>(p.workers)
                          : 0.0;
    } else {
        p.done = static_cast<std::size_t>(statDone->value());
        p.cached = static_cast<std::size_t>(statCached->value());
        p.failed = static_cast<std::size_t>(statFailed->value());
        p.meps = statMeps->value();
    }
    return p;
}

double
SweepEngine::meps() const
{
    return _wallNs > 0 ? static_cast<double>(_events) * 1e3 /
                             static_cast<double>(_wallNs)
                       : 0.0;
}

void
SweepEngine::registerStats(StatRegistry &registry)
{
    registry.registerGroup(statGroup);
}

void
SweepEngine::publishStats()
{
    *statDone = static_cast<double>(impl->done.load());
    *statCached = static_cast<double>(impl->cachedHits.load());
    *statFailed = static_cast<double>(impl->failed.load());
    *statEvents = static_cast<double>(impl->events.load());
    *statMeps = meps();
    *statStoreHits = static_cast<double>(impl->storeHits.load());
    *statJournalCorrupt =
        static_cast<double>(_journalCorruptLines);
}

std::vector<DesignPoint>
SweepEngine::run(const std::vector<SocConfig> &configs,
                 const Trace &trace, const Dddg &dddg)
{
    std::vector<DesignPoint> points(configs.size());
    _failures.clear();
    _interrupted = false;
    _events = 0;
    _wallNs = 0;
    _storeHits = 0;
    _journalCorruptLines = 0;

    impl = std::make_unique<Impl>();
    Impl &st = *impl;
    *statTotal = static_cast<double>(configs.size());

    st.cache = opts.cache ? opts.cache : &st.ownedCache;

    // Resume: preload every journaled point into the cache. Points
    // of other spaces/workloads cost a map entry and nothing else —
    // keys only hit when the config truly matches. Interior corrupt
    // lines (real disk corruption, not a torn tail) are counted and
    // surfaced: the loader warns, and the count lands in the
    // journal_corrupt_lines stat and journalCorruptLines().
    if (!opts.resumePath.empty()) {
        JournalLoadResult loaded =
            loadJournalChecked(opts.resumePath);
        for (auto &rec : loaded.records)
            st.cache->insert(rec.key, rec.results);
        _journalCorruptLines = loaded.corruptLines;
    }

    // Journal: append when restarting onto the same file, otherwise
    // start a fresh one with the schema header.
    if (!opts.journalPath.empty()) {
        bool appending = opts.journalPath == opts.resumePath &&
                         std::ifstream(opts.journalPath).good();
        std::lock_guard<std::mutex> lock(st.journalMutex);
        st.journal.open(opts.journalPath,
                        appending ? std::ios::app : std::ios::trunc);
        if (!st.journal) {
            fatal("sweep journal %s: cannot open for writing",
                  opts.journalPath.c_str());
        }
        if (!appending)
            st.journal << journalHeaderLine() << std::flush;
        st.journalEnabled = true;
    }

    st.keys.resize(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        points[i].config = configs[i];
        st.keys[i] = configCanonicalKey(configs[i]);
    }

    unsigned threads = opts.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 4;
    }
    threads = std::max<unsigned>(
        1, std::min<unsigned>(threads, static_cast<unsigned>(
                                           configs.size())));
    if (configs.empty())
        threads = 1;

    // Longest-job-first: sort by descending cost (stable tiebreak on
    // index keeps the deal deterministic), then deal round-robin so
    // every worker starts with a heavy point and keeps a cost-sorted
    // deque for thieves to take from the cheap end.
    std::vector<std::size_t> order(configs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return configCost(configs[a]) >
                                configCost(configs[b]);
                     });
    st.workerCount = threads;
    st.startNs = profilerNowNs();
    st.queues.resize(threads);
    for (unsigned t = 0; t < threads; ++t)
        st.queues[t] = std::make_unique<Impl::WorkerQueue>();
    for (std::size_t n = 0; n < order.size(); ++n) {
        Impl::WorkerQueue &q = *st.queues[n % threads];
        std::lock_guard<std::mutex> lock(q.mutex);
        q.items.push_back(order[n]);
    }

    auto reportProgress = [&](bool force) {
        if (!opts.onProgress)
            return;
        if (!force && opts.progressIntervalNs != 0) {
            // Rate limit: only the worker that wins the CAS on the
            // last-delivery stamp reports; losers skip (their point
            // is covered by a later snapshot — the post-join forced
            // delivery guarantees the final state always lands).
            std::uint64_t now = profilerNowNs();
            std::uint64_t last = st.lastProgressNs.load();
            if (now - last < opts.progressIntervalNs ||
                !st.lastProgressNs.compare_exchange_strong(last,
                                                           now)) {
                return;
            }
        }
        // Snapshot inside the lock: taking it outside lets two
        // workers deliver reordered snapshots, so a callback could
        // observe counters going backwards.
        std::lock_guard<std::mutex> lock(st.progressMutex);
        opts.onProgress(progress());
    };

    auto process = [&](std::size_t i) {
        SocResults cachedResults;
        if (st.cache->lookup(st.keys[i], cachedResults)) {
            points[i].results = cachedResults;
            st.cachedHits.fetch_add(1);
            reportProgress(false);
            return;
        }
        // Durable tier: a store hit is promoted into the in-memory
        // cache (so repeats stay cheap even if the store later
        // evicts or quarantines the record) and counts as cached.
        if (opts.store &&
            opts.store->lookup(st.keys[i], cachedResults)) {
            points[i].results = cachedResults;
            st.cache->insert(st.keys[i], cachedResults);
            st.storeHits.fetch_add(1);
            st.cachedHits.fetch_add(1);
            reportProgress(false);
            return;
        }
        // Drain check sits just before the expensive part: a stop
        // requested mid-queue keeps already-popped cached points
        // flowing but starts no new simulation.
        if (opts.stopRequested && opts.stopRequested->load()) {
            st.stopped.store(true);
            return;
        }
        if (opts.maxFreshPoints != 0 &&
            st.freshStarted.fetch_add(1) >= opts.maxFreshPoints) {
            st.stopped.store(true);
            return;
        }
        try {
            // Two clock reads bracket run() alone: no per-event hook,
            // and Soc construction and teardown stay outside.
            Soc soc(configs[i], trace, dddg);
            std::uint64_t t0 = profilerNowNs();
            points[i].results = soc.run();
            st.wallNs.fetch_add(profilerNowNs() - t0);
            st.events.fetch_add(soc.eventQueue().numExecuted());
        } catch (const std::exception &e) {
            // Scope the lock to the push_back: reportProgress runs
            // the user callback, and calling out under failureMutex
            // imposes a lock order (failureMutex before
            // progressMutex) on every other path and deadlocks any
            // callback that reaches back into failure state.
            {
                std::lock_guard<std::mutex> lock(st.failureMutex);
                st.failures.push_back({i, configs[i], e.what()});
            }
            st.failed.fetch_add(1);
            reportProgress(false);
            return;
        }
        st.cache->insert(st.keys[i], points[i].results);
        // Write-through: the point is durable the moment it
        // completes, so a killed process loses at most what was
        // still in flight.
        if (opts.store) {
            opts.store->insert(st.keys[i],
                               configFingerprint(configs[i]),
                               points[i].results);
        }
        if (st.journalEnabled) {
            std::string line = journalRecordLine(
                st.keys[i], configFingerprint(configs[i]),
                points[i].results);
            std::lock_guard<std::mutex> lock(st.journalMutex);
            st.journal << line << std::flush;
        }
        st.done.fetch_add(1);
        reportProgress(false);
    };

    auto worker = [&](std::size_t self) {
        while (!st.stopped.load()) {
            if (opts.stopRequested && opts.stopRequested->load()) {
                st.stopped.store(true);
                break;
            }
            std::size_t i = st.take(self);
            if (i == static_cast<std::size_t>(-1))
                break;
            st.activeWorkers.fetch_add(1);
            process(i);
            st.activeWorkers.fetch_sub(1);
        }
    };

    if (threads == 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker, t);
        for (auto &t : pool)
            t.join();
    }

    // With rate limiting on, the limiter may have eaten the last
    // per-point snapshot; deliver the final counters. (Without it,
    // every point already delivered — callers count on exactly one
    // callback per point.)
    if (opts.progressIntervalNs != 0)
        reportProgress(true);

    _interrupted = st.stopped.load();
    _events = st.events.load();
    _wallNs = st.wallNs.load();
    _storeHits = st.storeHits.load();
    {
        // The join is a happens-before edge, but take the lock
        // anyway: it keeps the guarded-by contract provable and
        // costs nothing post-join.
        std::lock_guard<std::mutex> lock(st.failureMutex);
        _failures = st.failures;
    }
    std::sort(_failures.begin(), _failures.end(),
              [](const FailedPoint &a, const FailedPoint &b) {
                  return a.index < b.index;
              });
    publishStats();
    if (st.journalEnabled) {
        std::lock_guard<std::mutex> lock(st.journalMutex);
        st.journal.close();
    }
    impl.reset();

    if (!_failures.empty() && !opts.continueOnError) {
        const FailedPoint &first = _failures.front();
        throw SweepError(
            format("sweep: %zu of %zu design points failed; first: "
                   "point %zu [%s]: %s",
                   _failures.size(), configs.size(), first.index,
                   configCanonicalKey(first.config).c_str(),
                   first.message.c_str()),
            _failures);
    }
    return points;
}

} // namespace genie
