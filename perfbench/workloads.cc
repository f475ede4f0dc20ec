/**
 * @file
 * The four benchmark workloads and the metrics derived from them.
 *
 * Each workload is a closed loop: one client issues the next design
 * point (or sweep) only after the previous one returned. A run
 * repeats seed-sampled rounds until --seconds have passed; round r of
 * seed s always holds the same points. Untraced runs report the
 * end-to-end metrics; traced runs alternate an untraced and a traced
 * copy of each round and report the per-layer metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "accel/dddg.hh"
#include "core/soc.hh"
#include "dse/result_cache.hh"
#include "dse/result_store.hh"
#include "dse/sweep_engine.hh"
#include "metrics/profiler.hh"
#include "perf.hh"
#include "scope/span_dag.hh"
#include "sim/random.hh"
#include "workloads/workload.hh"

namespace genie::perf
{
namespace
{

namespace fs = std::filesystem;

/** A kernel's trace, DDDG and reference checksum, built once. */
struct Kernel
{
    std::string name;
    WorkloadOutput out;
    std::unique_ptr<Dddg> dddg;
};

struct PointRef
{
    std::string kernel;
    SocConfig config;
};

/** What one round measured (host time unless noted). */
struct Round
{
    std::uint64_t wallNs = 0;
    std::vector<double> latencyMs; ///< per point served
    std::uint64_t correct = 0;     ///< points ending correct
    /** Host ns simulating fresh points (Soc::run, the sweep engine's
     * in-event time, or runDesign re-simulations). */
    std::uint64_t simNs = 0;
    std::uint64_t simNodes = 0;  ///< DDDG nodes of those points
    std::uint64_t simCycles = 0; ///< their accelerator cycles
    std::uint64_t traceEvents = 0; ///< Genie-Trace records (explain)
    // SweepEngine (sweep workloads).
    std::uint64_t sweepWallNs = 0;
    std::uint64_t sweepBusyNs = 0;
    std::uint64_t simulated = 0;
    std::uint64_t cached = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t replayNs = 0;
    std::uint64_t replayPoints = 0;
    std::vector<PointRef> points; ///< every point served, in order
};

bool
checksumOk(double got, double reference)
{
    return std::abs(got - reference) <= std::abs(reference) * 1e-9 + 1e-9;
}

Rng
roundRng(std::uint64_t seed, unsigned round)
{
    Rng mix(seed ^ (0x632be59bd9b4e019ull * (round + 1ull)));
    return Rng(mix.next());
}

template <class T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/** @p k distinct elements of @p pool, in draw order. */
std::vector<SocConfig>
sample(std::vector<SocConfig> pool, std::size_t k, Rng &rng)
{
    k = std::min(k, pool.size());
    for (std::size_t i = 0; i < k; ++i)
        std::swap(pool[i], pool[i + rng.below(pool.size() - i)]);
    pool.resize(k);
    return pool;
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Spreads the client's serial work over every CPU it may run on.
 * The scheduler keeps a lone thread on one CPU for long stretches,
 * and on a shared VM each virtual CPU's speed drifts on its own
 * (measured here: ±15% over seconds, uncorrelated across CPUs), so a
 * single-threaded stream would inherit one CPU's drift. Pinning each
 * client-side simulation to the next CPU in turn averages it out.
 * Threads inherit the mask, so the full mask is restored before any
 * SweepEngine spawns workers.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all);
        if (sched_getaffinity(0, sizeof(all), &all) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &all))
                    cpus.push_back(c);
            }
        }
    }

    /** Pin the calling thread to the next CPU. */
    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

    /** Let the calling thread (and threads it spawns) run anywhere. */
    void
    release()
    {
        if (cpus.size() >= 2)
            sched_setaffinity(0, sizeof(all), &all);
    }

  private:
    cpu_set_t all;
    std::vector<int> cpus;
    std::size_t turn = 0;
};

// ---------------------------------------------------------------
// Workload base
// ---------------------------------------------------------------

class BenchWorkload
{
  public:
    explicit BenchWorkload(const RunOptions &opts)
        : opts(opts), checker(expected)
    {}
    virtual ~BenchWorkload() = default;
    BenchWorkload(const BenchWorkload &) = delete;
    BenchWorkload &operator=(const BenchWorkload &) = delete;

    /** Worker threads the workload simulates on. */
    virtual unsigned threads() const { return 1; }
    /** Rounds come in whole multiples of this (kernel rotations). */
    virtual unsigned roundMultiple() const { return 1; }
    /** True when Genie-Trace is on for every point. */
    virtual bool explains() const { return false; }
    /** True when points are simulated inside SweepEngine, out of the
     * client's sight. */
    virtual bool sweeps() const { return false; }

    /** Everything before the timed phase; repeatable. */
    void
    setup(SpanLog *log, int parent)
    {
        cpu.next();
        std::string error;
        expected = Expected();
        if (!expected.load(opts.expectedPath, error))
            throw std::runtime_error(error);
        references.clear();
        for (const auto &k : figure8Workloads())
            references[k] = makeWorkload(k)->reference();
        setupMore(log, parent);
        cpu.release();
    }

    virtual void round(unsigned r, SpanLog *log, int parent,
                       Round &out) = 0;

    /** The kernels the workload simulates. */
    virtual std::vector<std::string> kernelNames() const
    {
        return figure8Workloads();
    }

    /** One untimed point per kernel, so the timed rounds start with
     * code, allocator and page cache warm. */
    void
    warmUp()
    {
        for (const auto &name : kernelNames()) {
            const Kernel &k = kernel(name);
            runDesign(dmaSpace(32).front(), k.out.trace, *k.dddg);
        }
    }

    /** Trace and DDDG of @p name, built on first use. */
    const Kernel &
    kernel(const std::string &name, SpanLog *log = nullptr,
           int parent = -1)
    {
        auto &slot = kernels[name];
        if (!slot) {
            slot = std::make_unique<Kernel>();
            slot->name = name;
            Timed b(log, "workloads.build", parent);
            slot->out = makeWorkload(name)->build();
            b.stop();
            if (!checksumOk(slot->out.checksum, references.at(name)))
                ++checksumFailures;
            Timed d(log, "accel.dddg", parent);
            slot->dddg = std::make_unique<Dddg>(slot->out.trace);
            d.stop();
        }
        return *slot;
    }

    Checker &check() { return checker; }
    std::uint64_t checksumErrors() const { return checksumFailures; }

  protected:
    virtual void setupMore(SpanLog *, int) {}

    /** Serve @p configs of @p k through one SweepEngine::run and
     * check every point. */
    void sweep(const Kernel &k, const std::vector<SocConfig> &configs,
               ResultCache *cache, ResultStore *store, SpanLog *log,
               int parent, Round &out);

    const RunOptions &opts;
    Expected expected;
    Checker checker;
    std::map<std::string, double> references;
    std::map<std::string, std::unique_ptr<Kernel>> kernels;
    std::uint64_t checksumFailures = 0;
    CpuRotation cpu;
};

void
BenchWorkload::sweep(const Kernel &k,
                     const std::vector<SocConfig> &configs,
                     ResultCache *cache, ResultStore *store,
                     SpanLog *log, int parent, Round &out)
{
    SweepOptions so;
    so.threads = opts.threads;
    so.cache = cache;
    so.store = store;
    so.continueOnError = true;
    SweepEngine engine(so);
    cpu.release();
    Timed s(log, "dse.sweep", parent);
    std::vector<DesignPoint> points =
        engine.run(configs, k.out.trace, *k.dddg);
    std::uint64_t wallNs = s.stop();

    SweepProgress progress = engine.progress();
    out.sweepWallNs += wallNs;
    out.sweepBusyNs += engine.hostWallNs();
    out.simulated += progress.done;
    out.cached += progress.cached;
    out.storeHits += engine.storeHits();
    out.simNs += engine.hostWallNs();
    const std::uint64_t nodes = k.out.trace.ops.size();
    out.simNodes += progress.done * nodes;
    // The engine does not say which points were fresh. Every sweep
    // here is all fresh or all served, so scaling the cycles of all
    // its points by the fresh share is exact.
    std::uint64_t cycles = 0;
    for (const auto &p : points)
        cycles += p.results.accelCycles;
    if (!points.empty())
        out.simCycles += cycles * progress.done / points.size();

    std::set<std::size_t> threw;
    for (const auto &f : engine.failures())
        threw.insert(f.index);
    const double amortizedMs =
        static_cast<double>(wallNs) / 1e6 /
        static_cast<double>(std::max<std::size_t>(1, configs.size()));
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const SocResults *served =
            threw.count(i) ? nullptr : &points[i].results;
        std::uint64_t resimNs = 0;
        SocResults fixed;
        bool ok = checker.check(
            k.name, configs[i], served,
            [&] {
                cpu.next();
                Timed rs(log, "core.run_design", parent);
                SocResults r = runDesign(configs[i], k.out.trace, *k.dddg);
                rs.stop();
                return r;
            },
            resimNs, &fixed);
        if (resimNs > 0) {
            out.simNs += resimNs;
            out.simNodes += nodes;
            out.simCycles += fixed.accelCycles;
        }
        out.correct += ok;
        out.latencyMs.push_back(amortizedMs +
                                static_cast<double>(resimNs) / 1e6);
        out.points.push_back({k.name, configs[i]});
    }
    cpu.release();
}

// ---------------------------------------------------------------
// point-dma / point-explain
// ---------------------------------------------------------------

/** A seed-sampled stream of single points on the Figure 8 kernels,
 * each paying build, DDDG, Soc construction, run and teardown like a
 * genie_run invocation; with explain, Genie-Trace records every
 * category and blameRun runs on each point (genie_run --report). */
class PointWorkload : public BenchWorkload
{
  public:
    PointWorkload(const RunOptions &opts, bool explain)
        : BenchWorkload(opts), explain(explain)
    {}

    bool explains() const override { return explain; }

    void
    round(unsigned r, SpanLog *log, int parent, Round &out) override
    {
        // Every round covers the whole space (per-point host cost
        // swings 2x with the lane and partition counts, so a partial
        // sample would make rounds unequal); the seed picks the order.
        Rng rng = roundRng(opts.seed, r);
        std::vector<PointRef> points;
        for (const auto &k : figure8Workloads()) {
            for (const auto &c : dmaSpace(32))
                points.push_back({k, c});
        }
        shuffle(points, rng);
        for (const auto &p : points)
            serve(p, log, parent, out);
    }

  private:
    void serve(const PointRef &p, SpanLog *log, int parent, Round &out);

    bool explain;
};

void
PointWorkload::serve(const PointRef &p, SpanLog *log, int parent,
                     Round &out)
{
    cpu.next();
    Timed point(log, "bench.point", parent);
    const int pid = point.id();

    Timed b(log, "workloads.build", pid);
    WorkloadOutput built = makeWorkload(p.kernel)->build();
    b.stop();
    if (!checksumOk(built.checksum, references.at(p.kernel)))
        ++checksumFailures;

    Timed d(log, "accel.dddg", pid);
    Dddg dddg(built.trace);
    d.stop();

    SocConfig config = p.config;
    config.tracing.enabled = explain;
    std::optional<SocResults> served;
    std::uint64_t runNs = 0;
    try {
        Timed c(log, "core.soc_ctor", pid);
        auto soc = std::make_unique<Soc>(config, built.trace, dddg);
        c.stop();
        Timed run(log, "core.run", pid);
        SocResults results = soc->run();
        runNs = run.stop();
        if (explain) {
            Timed bl(log, "scope.blame", pid);
            [[maybe_unused]] BlameReport blame =
                blameRun(*soc->tracer());
            bl.stop();
            out.traceEvents += soc->tracer()->numEvents();
        }
        Timed dt(log, "core.soc_dtor", pid);
        soc.reset();
        dt.stop();
        served = results;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "genie_perf: %s %s threw: %s\n",
                     p.kernel.c_str(), pointName(p.config).c_str(),
                     e.what());
    }
    const std::uint64_t latencyNs = point.stop();

    std::uint64_t resimNs = 0;
    bool ok = checker.check(
        p.kernel, p.config, served ? &*served : nullptr,
        [&] {
            Timed rs(log, "core.run_design", parent);
            SocResults r = runDesign(p.config, built.trace, dddg);
            rs.stop();
            return r;
        },
        resimNs);
    out.correct += ok;
    out.latencyMs.push_back(static_cast<double>(latencyNs + resimNs) /
                            1e6);
    if (served) {
        out.simNs += runNs;
        out.simNodes += built.trace.ops.size();
        out.simCycles += served->accelCycles;
    }
    out.points.push_back(p);
}

// ---------------------------------------------------------------
// sweep-cache
// ---------------------------------------------------------------

/** SweepEngine over a seed-sampled slice of the Figure 8 cache space,
 * one sweep per kernel, private cache: every point is fresh. */
class SweepCacheWorkload : public BenchWorkload
{
  public:
    using BenchWorkload::BenchWorkload;

    unsigned threads() const override { return opts.threads; }
    bool sweeps() const override { return true; }

    void
    round(unsigned r, SpanLog *log, int parent, Round &out) override
    {
        Rng rng = roundRng(opts.seed, r);
        std::vector<std::string> order = figure8Workloads();
        shuffle(order, rng);
        const std::vector<SocConfig> space = cacheSpace(32);
        for (const auto &name : order) {
            // Stratified by lane count, the axis host cost follows.
            std::vector<SocConfig> configs;
            for (unsigned lanes : {1u, 2u, 4u, 8u, 16u}) {
                std::vector<SocConfig> pool;
                for (const auto &c : space) {
                    if (c.lanes == lanes)
                        pool.push_back(c);
                }
                for (auto &c : sample(std::move(pool), 6, rng))
                    configs.push_back(std::move(c));
            }
            sweep(kernel(name), configs, nullptr, nullptr, log, parent,
                  out);
        }
    }

  protected:
    void
    setupMore(SpanLog *log, int parent) override
    {
        kernels.clear();
        for (const auto &name : kernelNames())
            kernel(name, log, parent);
    }
};

// ---------------------------------------------------------------
// regen-shared
// ---------------------------------------------------------------

/**
 * The figure-09-then-figure-10 sequence through one ResultCache and
 * one ResultStore shared across kernels, then a replay of everything
 * from the reopened store with an empty cache. Round r rotates the
 * seed's kernel order by r, so every kernel leads once per rotation.
 */
class RegenWorkload : public BenchWorkload
{
  public:
    explicit RegenWorkload(const RunOptions &opts) : BenchWorkload(opts)
    {
        Rng rng(opts.seed);
        order = regenKernels();
        shuffle(order, rng);
    }

    ~RegenWorkload() override
    {
        std::error_code ignored;
        fs::remove_all(storeRoot(), ignored);
    }

    unsigned threads() const override { return opts.threads; }
    bool sweeps() const override { return true; }
    unsigned roundMultiple() const override { return order.size(); }
    std::vector<std::string> kernelNames() const override
    {
        return order;
    }

    void
    round(unsigned r, SpanLog *log, int parent, Round &out) override
    {
        std::vector<std::string> ks = order;
        std::rotate(ks.begin(), ks.begin() + r % ks.size(), ks.end());
        // One slice per rotation, stratified by lane count (the axis
        // host cost follows): one point per lane value and space.
        Rng rng = roundRng(opts.seed, r / roundMultiple());
        const std::vector<SocConfig> isolated =
            perLane(isolatedSpace(), rng);
        const std::vector<SocConfig> dma32 = perLane(dmaSpace(32), rng);
        const std::vector<SocConfig> cache32 =
            perLane(cacheSpace(32), rng);
        const std::vector<SocConfig> cache64 =
            perLane(cacheSpace(64), rng);
        const std::vector<SocConfig> dma64 = perLane(dmaSpace(64), rng);
        const std::vector<const std::vector<SocConfig> *> fig09 = {
            &isolated, &dma32, &cache32, &cache64};
        const std::vector<const std::vector<SocConfig> *> fig10 = {
            &isolated, &dma32, &cache32, &cache64, &dma64};
        std::string dir = storeDir(storeSeq++);
        if (!fs::exists(dir))
            fs::create_directories(dir);
        {
            ResultCache cache;
            ResultStore store;
            Timed o(log, "dse.store_open", parent);
            store.open(dir);
            o.stop();
            for (const auto *fig : {&fig09, &fig10}) {
                for (const auto &name : ks) {
                    for (const auto *space : *fig)
                        sweep(kernel(name), *space, &cache, &store, log,
                              parent, out);
                }
            }
        }
        Timed replay(log, "dse.replay", parent);
        ResultCache cache;
        ResultStore store;
        Timed o(log, "dse.store_open", replay.id());
        store.open(dir);
        o.stop();
        for (const auto &name : ks) {
            for (const auto *space : fig10) {
                sweep(kernel(name), *space, &cache, &store, log,
                      replay.id(), out);
                out.replayPoints += space->size();
            }
        }
        out.replayNs += replay.stop();
    }

  protected:
    void
    setupMore(SpanLog *log, int parent) override
    {
        kernels.clear();
        for (const auto &name : kernelNames())
            kernel(name, log, parent);
        fs::remove_all(storeRoot());
        for (unsigned i = 0; i < preparedStores; ++i)
            fs::create_directories(storeDir(i));
        storeSeq = 0;
    }

  private:
    std::string storeRoot() const { return opts.outDir + "/stores"; }
    std::string
    storeDir(unsigned i) const
    {
        return storeRoot() + "/r" + std::to_string(i);
    }

    /** One seed-picked config of @p space per lane count. */
    static std::vector<SocConfig>
    perLane(const std::vector<SocConfig> &space, Rng &rng)
    {
        std::vector<SocConfig> out;
        for (unsigned lanes : DesignSpace::laneValues()) {
            std::vector<SocConfig> pool;
            for (const auto &c : space) {
                if (c.lanes == lanes)
                    pool.push_back(c);
            }
            if (!pool.empty())
                out.push_back(pool[rng.below(pool.size())]);
        }
        return out;
    }

    static constexpr unsigned preparedStores = 32;
    std::vector<std::string> order;
    unsigned storeSeq = 0;
};

std::unique_ptr<BenchWorkload>
makeBenchWorkload(const RunOptions &opts)
{
    if (opts.workload == "point-dma")
        return std::make_unique<PointWorkload>(opts, false);
    if (opts.workload == "point-explain")
        return std::make_unique<PointWorkload>(opts, true);
    if (opts.workload == "sweep-cache")
        return std::make_unique<SweepCacheWorkload>(opts);
    if (opts.workload == "regen-shared")
        return std::make_unique<RegenWorkload>(opts);
    throw std::invalid_argument("unknown workload " + opts.workload);
}

// ---------------------------------------------------------------
// Untimed passes of traced runs
// ---------------------------------------------------------------

/** Registry counts of simulated points (exact for a seed). */
struct SimCounts
{
    double events = 0, cycles = 0, busPackets = 0, cacheAccesses = 0,
           cacheHits = 0, cacheMisses = 0, dramAccesses = 0, dmaBytes = 0;

    static SimCounts
    read(Soc &soc)
    {
        const StatRegistry &reg = soc.statRegistry();
        SimCounts c;
        c.events = static_cast<double>(soc.eventQueue().numExecuted());
        c.cycles = reg.get("accel.datapath.cycles");
        c.busPackets = reg.get("system.bus.packets");
        c.cacheAccesses =
            reg.get("accel.cache.reads") + reg.get("accel.cache.writes");
        c.cacheHits = reg.get("accel.cache.hits");
        c.cacheMisses = reg.get("accel.cache.misses");
        c.dramAccesses =
            reg.get("system.dram.reads") + reg.get("system.dram.writes");
        c.dmaBytes = reg.get("system.dma.bytes");
        return c;
    }

    void
    operator+=(const SimCounts &o)
    {
        events += o.events;
        cycles += o.cycles;
        busPackets += o.busPackets;
        cacheAccesses += o.cacheAccesses;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        dramAccesses += o.dramAccesses;
        dmaBytes += o.dmaBytes;
    }
};

/** Simulated counts and host phase times of the distinct points of
 * one round, re-simulated with a bare Soc read after run(). */
struct StatsPass
{
    std::size_t points = 0;
    SimCounts sim;
    double ctorNs = 0, runNs = 0, dtorNs = 0;
    double traceNodes = 0, dddgEdges = 0;
    bool allMatch = true;
};

std::vector<PointRef>
distinctPoints(const std::vector<PointRef> &points)
{
    std::set<std::pair<std::string, std::string>> seen;
    std::vector<PointRef> out;
    for (const auto &p : points) {
        if (seen.insert({p.kernel, pointName(p.config)}).second)
            out.push_back(p);
    }
    return out;
}

StatsPass
statsPass(BenchWorkload &w, const std::vector<PointRef> &points,
          SpanLog &log, bool recordPhases)
{
    std::vector<const Kernel *> ks;
    for (const auto &p : points)
        ks.push_back(&w.kernel(p.kernel));
    struct One
    {
        std::uint64_t t[4] = {0, 0, 0, 0};
        SimCounts sim;
        bool match = false;
    };
    std::vector<One> res(points.size());
    parallelFor(points.size(), w.threads(), [&](std::size_t i) {
        const Kernel &k = *ks[i];
        One &o = res[i];
        o.t[0] = nowNs();
        auto soc = std::make_unique<Soc>(points[i].config, k.out.trace,
                                         *k.dddg);
        o.t[1] = nowNs();
        SocResults r = soc->run();
        o.t[2] = nowNs();
        o.sim = SimCounts::read(*soc);
        soc.reset();
        o.t[3] = nowNs();
        o.match = w.check().matches(points[i].kernel, points[i].config, r);
    });

    StatsPass s;
    s.points = points.size();
    std::uint64_t first = ~0ull, last = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const One &o = res[i];
        s.sim += o.sim;
        s.ctorNs += static_cast<double>(o.t[1] - o.t[0]);
        s.runNs += static_cast<double>(o.t[2] - o.t[1]);
        s.dtorNs += static_cast<double>(o.t[3] - o.t[2]);
        s.traceNodes += static_cast<double>(ks[i]->out.trace.ops.size());
        s.dddgEdges += static_cast<double>(ks[i]->dddg->numEdges());
        s.allMatch = s.allMatch && o.match;
        first = std::min(first, o.t[0]);
        last = std::max(last, o.t[3]);
    }
    if (recordPhases && !points.empty()) {
        int parent = log.add("bench.stats_pass", -1, first, last);
        for (const One &o : res) {
            log.add("core.soc_ctor", parent, o.t[0], o.t[1], 1);
            log.add("core.run", parent, o.t[1], o.t[2], 1);
            log.add("core.soc_dtor", parent, o.t[2], o.t[3], 1);
        }
    }
    return s;
}

/** Host cost of an attached HostProfiler: the same points run bare
 * and profiled, alternating which goes first. */
double
profilerOverhead(BenchWorkload &w, const std::vector<PointRef> &points)
{
    const std::size_t n = std::min<std::size_t>(points.size(), 6);
    std::uint64_t bare = 0, profiled = 0;
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t i = 0; i < n; ++i) {
            const Kernel &k = w.kernel(points[i].kernel);
            for (int leg = 0; leg < 2; ++leg) {
                bool withProfiler = (leg + rep) % 2 == 1;
                Soc soc(points[i].config, k.out.trace, *k.dddg);
                HostProfiler prof;
                if (withProfiler)
                    soc.eventQueue().setProfiler(&prof);
                std::uint64_t t0 = nowNs();
                soc.run();
                std::uint64_t ns = nowNs() - t0;
                (withProfiler ? profiled : bare) += ns;
            }
        }
    }
    return ratio(static_cast<double>(profiled), static_cast<double>(bare));
}

double
peakRssMb()
{
    struct rusage ru
    {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {
        "point-dma", "sweep-cache", "regen-shared", "point-explain"};
    return names;
}

Report
runBenchmark(const RunOptions &opts)
{
    std::unique_ptr<BenchWorkload> w = makeBenchWorkload(opts);
    fs::create_directories(opts.outDir);
    SpanLog log;
    SpanLog *traceLog = opts.trace ? &log : nullptr;

    // Set-up, repeated so its median is steady.
    std::vector<double> setupS;
    for (int i = 0; i < (opts.trace ? 1 : 8); ++i) {
        Timed s(traceLog, "bench.setup");
        w->setup(traceLog, s.id());
        setupS.push_back(static_cast<double>(s.stop()) / 1e9);
    }

    w->warmUp();

    // Timed phase: whole rounds until the time is up.
    std::vector<Round> rounds, traced;
    const std::uint64_t start = nowNs();
    const auto budgetNs = static_cast<std::uint64_t>(opts.seconds * 1e9);
    unsigned r = 0;
    do {
        Round plain;
        Timed t(nullptr, "bench.round");
        w->round(r, nullptr, -1, plain);
        plain.wallNs = t.stop();
        rounds.push_back(std::move(plain));
        if (opts.trace) {
            Round tr;
            Timed tt(traceLog, "bench.round");
            w->round(r, traceLog, tt.id(), tr);
            tr.wallNs = tt.stop();
            traced.push_back(std::move(tr));
        }
        ++r;
    } while (nowNs() - start < budgetNs ||
             (!opts.trace && r % w->roundMultiple() != 0));

    std::fprintf(stderr, "round wall ms:");
    for (const auto &rd : rounds)
        std::fprintf(stderr, " %.1f", static_cast<double>(rd.wallNs) / 1e6);
    std::fprintf(stderr, "\n");

    Report rep;
    rep.counts = w->check().counts();
    rep.threads = w->threads();
    auto add = [&](const char *name, double value, const char *unit) {
        rep.metrics.push_back({name, value, unit});
    };

    if (!opts.trace) {
        // wall_s: the median over whole rotations of the mean round.
        std::vector<double> walls, latency;
        const unsigned group = w->roundMultiple();
        for (std::size_t i = 0; i + group <= rounds.size(); i += group) {
            double sum = 0;
            for (unsigned j = 0; j < group; ++j)
                sum += static_cast<double>(rounds[i + j].wallNs) / 1e9;
            walls.push_back(sum / group);
        }
        double wallSum = 0, correct = 0, simNs = 0, nodes = 0, cycles = 0;
        for (const auto &rd : rounds) {
            wallSum += static_cast<double>(rd.wallNs) / 1e9;
            correct += static_cast<double>(rd.correct);
            simNs += static_cast<double>(rd.simNs);
            nodes += static_cast<double>(rd.simNodes);
            cycles += static_cast<double>(rd.simCycles);
            latency.insert(latency.end(), rd.latencyMs.begin(),
                           rd.latencyMs.end());
        }
        add("wall_s", median(walls), "s");
        add("points_per_s", ratio(correct, wallSum), "1/s");
        add("point_ms_p50", quantile(latency, 0.5), "ms");
        add("point_ms_p90", quantile(latency, 0.9), "ms");
        add("host_ns_per_node", ratio(simNs, nodes), "ns");
        add("host_ns_per_accel_cycle", ratio(simNs, cycles), "ns");
        add("setup_s", median(setupS), "s");
        add("peak_rss_mb", peakRssMb(), "MB");
        add("correct_ratio",
            1.0 - ratio(static_cast<double>(rep.counts.failed),
                        static_cast<double>(rep.counts.attempted)),
            "ratio");
    } else {
        const bool sweeps = w->sweeps();
        const std::vector<PointRef> points =
            distinctPoints(traced.front().points);
        StatsPass st = statsPass(*w, points, log, sweeps);
        double profRatio = profilerOverhead(*w, points);
        const double n = static_cast<double>(std::max<std::size_t>(
            1, st.points));

        auto medMs = [&](const char *span) {
            return median(log.durationsMs(span));
        };
        double tracedWall = 0, plainWall = 0, sweepWall = 0, busy = 0,
               replayNs = 0, replayPts = 0, traceEvents = 0,
               tracedPoints = 0;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            tracedWall += static_cast<double>(traced[i].wallNs);
            plainWall += static_cast<double>(rounds[i].wallNs);
            sweepWall += static_cast<double>(traced[i].sweepWallNs);
            busy += static_cast<double>(traced[i].sweepBusyNs);
            replayNs += static_cast<double>(traced[i].replayNs);
            replayPts += static_cast<double>(traced[i].replayPoints);
            traceEvents += static_cast<double>(traced[i].traceEvents);
            tracedPoints += static_cast<double>(traced[i].points.size());
        }
        double runSum = 0, pointSum = 0;
        if (sweeps) {
            runSum = st.runNs;
            pointSum = st.ctorNs + st.runNs + st.dtorNs;
        } else {
            for (double v : log.durationsMs("core.run"))
                runSum += v;
            for (double v : log.durationsMs("bench.point"))
                pointSum += v;
        }
        const Round &r0 = traced.front();

        add("workloads.build_ms", medMs("workloads.build"), "ms");
        add("workloads.trace_nodes", st.traceNodes / n, "count");
        add("accel.dddg_ms", medMs("accel.dddg"), "ms");
        add("accel.dddg_edges", st.dddgEdges / n, "count");
        add("accel.cycles", st.sim.cycles / n, "cycles");
        add("core.soc_ctor_ms", medMs("core.soc_ctor"), "ms");
        add("core.run_ms", medMs("core.run"), "ms");
        add("core.soc_dtor_ms", medMs("core.soc_dtor"), "ms");
        add("core.run_share", ratio(runSum, pointSum), "ratio");
        add("sim.events", st.sim.events / n, "count");
        add("sim.ns_per_event", ratio(st.runNs, st.sim.events), "ns");
        add("mem.bus_packets", st.sim.busPackets / n, "count");
        add("mem.cache_accesses", st.sim.cacheAccesses / n, "count");
        add("mem.cache_miss_ratio",
            ratio(st.sim.cacheMisses, st.sim.cacheHits + st.sim.cacheMisses),
            "ratio");
        add("mem.dram_accesses", st.sim.dramAccesses / n, "count");
        add("dma.bytes", st.sim.dmaBytes / n, "bytes");
        add("dse.worker_busy_ratio",
            ratio(busy, w->threads() * sweepWall), "ratio");
        add("dse.sweep_ms", medMs("dse.sweep"), "ms");
        add("dse.points_simulated", static_cast<double>(r0.simulated),
            "count");
        add("dse.points_cached", static_cast<double>(r0.cached), "count");
        add("dse.cache_hit_ratio",
            ratio(static_cast<double>(r0.cached),
                  static_cast<double>(r0.simulated + r0.cached)),
            "ratio");
        add("dse.store_hits", static_cast<double>(r0.storeHits), "count");
        add("dse.store_open_ms", medMs("dse.store_open"), "ms");
        add("dse.replay_ms", medMs("dse.replay"), "ms");
        add("dse.replay_us_per_point", ratio(replayNs / 1e3, replayPts),
            "us");
        add("metrics.profiler_overhead_ratio", profRatio, "ratio");
        add("trace.traced_run_ms", w->explains() ? medMs("core.run") : 0.0,
            "ms");
        add("trace.spans", ratio(traceEvents, tracedPoints), "count");
        add("scope.blame_ms", medMs("scope.blame"), "ms");
        add("bench.trace_overhead_ratio", ratio(tracedWall, plainWall),
            "ratio");
        add("bench.points_attempted",
            static_cast<double>(rep.counts.attempted), "count");
        add("bench.points_failed", static_cast<double>(rep.counts.failed),
            "count");
        add("bench.failed_ratio",
            ratio(static_cast<double>(rep.counts.failed),
                  static_cast<double>(rep.counts.attempted)),
            "ratio");

        rep.correct = rep.correct && st.allMatch;
        rep.spansPath = opts.outDir + "/spans-" + opts.workload + "-seed" +
                        std::to_string(opts.seed) + ".json";
        if (!log.writeJson(rep.spansPath))
            throw std::runtime_error("cannot write " + rep.spansPath);
        std::fprintf(stderr, "layer self time (ms, traced run):\n");
        for (const auto &[layer, ms] : log.layerSelfMs())
            std::fprintf(stderr, "  %-10s %12.3f\n", layer.c_str(), ms);
    }

    rep.correct = rep.correct && w->checksumErrors() == 0 &&
                  rep.counts.unrecovered == 0;
    return rep;
}

} // namespace genie::perf
