/**
 * @file
 * genie_perf: the repository benchmark (see BENCHMARK.md).
 *
 * genie_perf links the Genie libraries and times calls into each
 * layer's public functions from outside: Workload::build(), the Dddg
 * constructor, the Soc constructor/run()/destructor, SweepEngine::run,
 * ResultStore::open and blameRun. Four closed-loop workloads (one
 * client that issues the next point or sweep only after the previous
 * one returns) are sampled from fixed Figure 3 spaces by a seed.
 *
 * This header holds what main.cc, the workloads and the self-test
 * share: the span log (traced runs), the expected-result table and
 * the checker that does the failure accounting.
 */

#ifndef GENIE_PERFBENCH_PERF_HH
#define GENIE_PERFBENCH_PERF_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/soc_config.hh"

namespace genie::perf
{

/** Host monotonic clock, nanoseconds. */
std::uint64_t nowNs();

// ---------------------------------------------------------------
// Spans (traced runs only)
// ---------------------------------------------------------------

/** One timed call: name, host interval, and the span that caused it
 * (-1 for a root). */
struct Span
{
    std::string name;
    std::uint64_t beginNs = 0;
    std::uint64_t endNs = 0;
    int parent = -1;
    unsigned thread = 0; ///< 0 = the client thread
};

/** In-memory span log, written out when the run ends. Owned and
 * appended to by the client thread only. */
class SpanLog
{
  public:
    int open(const char *name, int parent, std::uint64_t beginNs);
    void close(int id, std::uint64_t endNs);
    int add(const char *name, int parent, std::uint64_t beginNs,
            std::uint64_t endNs, unsigned thread = 0);

    /** Durations (ms) of every closed span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Self time per layer (the span name up to its first dot), ms:
     * each span's duration minus the part of its interval that its
     * children cover. */
    std::map<std::string, double> layerSelfMs() const;

    /** Chrome trace-event JSON (opens in ui.perfetto.dev), with the
     * parent index and per-layer self times attached. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> _spans;
};

/**
 * Times one call. Always measures (the end-to-end numbers need the
 * durations); records a span only when @p log is non-null, so an
 * untraced run pays two clock reads and nothing else.
 */
class Timed
{
  public:
    Timed(SpanLog *log, const char *name, int parent = -1)
        : log(log), begin(nowNs())
    {
        if (log)
            _id = log->open(name, parent, begin);
    }

    /** End the span; returns its duration in ns. */
    std::uint64_t
    stop()
    {
        std::uint64_t end = nowNs();
        if (log)
            log->close(_id, end);
        return end - begin;
    }

    int id() const { return _id; }

  private:
    SpanLog *log;
    std::uint64_t begin;
    int _id = -1;
};

// ---------------------------------------------------------------
// Expected results and the checker
// ---------------------------------------------------------------

/** Stable benchmark-side name of a design point in the fixed spaces
 * ("i.4.8", "d32.4.8", "c32.4.16.64.2.4"); "" outside them. Kept
 * independent of configCanonicalKey so a key change in the program
 * cannot invalidate the expected table. */
std::string pointName(const SocConfig &config);

/** FNV-1a 64 of resultsJson(@p results): equal iff every field of
 * the two SocResults serializes identically (doubles round-trip). */
std::uint64_t resultsHash(const SocResults &results);

/** Expected results recorded from uncached runs, keyed by kernel and
 * pointName (schema `genie-perf-expected-1`). */
class Expected
{
  public:
    bool load(const std::string &path, std::string &error);
    bool write(const std::string &path) const;

    void add(const std::string &kernel, const std::string &point,
             std::uint64_t hash);
    /** Null when the point was never recorded. */
    const std::uint64_t *find(const std::string &kernel,
                              const std::string &point) const;
    std::size_t size() const;

  private:
    std::map<std::string, std::map<std::string, std::uint64_t>> table;
};

/** Failure accounting over every point a run serves. */
struct CheckCounts
{
    std::uint64_t attempted = 0;
    /** Points whose first served result threw, stalled, or differed
     * from the expected result. */
    std::uint64_t failed = 0;
    /** Failed points simulated again with runDesign. */
    std::uint64_t resimulated = 0;
    /** Points still wrong after re-simulation. */
    std::uint64_t unrecovered = 0;
};

class Checker
{
  public:
    explicit Checker(const Expected &expected) : expected(expected) {}

    /** True iff @p results equals the expected result of the point. */
    bool matches(const std::string &kernel, const SocConfig &config,
                 const SocResults &results) const;

    /**
     * Account one served point. @p served is null when serving threw.
     * A wrong, stalled or missing result counts as failed and is
     * re-simulated through @p resimulate, whose host time is returned
     * in @p resimNs and whose result must then match.
     * @return true when the point ends holding a correct result.
     */
    bool check(const std::string &kernel, const SocConfig &config,
               const SocResults *served,
               const std::function<SocResults()> &resimulate,
               std::uint64_t &resimNs,
               SocResults *resimulated = nullptr);

    const CheckCounts &counts() const { return _counts; }

  private:
    const Expected &expected;
    CheckCounts _counts;
};

// ---------------------------------------------------------------
// The fixed spaces the seed samples from
// ---------------------------------------------------------------

/** The isolated space (Figure 3 lanes x partitions, compute only). */
std::vector<SocConfig> isolatedSpace();
/** The DMA-optimized space: pipelined + triggered, lanes and
 * partitions in {4, 8, 16}. */
std::vector<SocConfig> dmaSpace(unsigned busBits);
/** The Figure 8 cache space sliced to 4-way, 32/64 B lines. */
std::vector<SocConfig> cacheSpace(unsigned busBits);

/** The kernels regen-shared runs the figure-09/10 sequence over. */
std::vector<std::string> regenKernels();

/** Every (kernel, config) whose expected result the table holds. */
std::vector<std::pair<std::string, SocConfig>> expectedDomain();

/** Run @p fn(i) for i in [0, n) on @p threads threads; rethrows the
 * first exception after every thread has joined. */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 4; ///< sweep and pass worker threads
    std::string outDir;   ///< stores and span files
    std::string expectedPath;
};

struct Report
{
    bool correct = true;
    CheckCounts counts;
    unsigned threads = 1; ///< threads the workload ran on
    std::vector<Metric> metrics;
    std::string spansPath; ///< written by traced runs
};

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string> &benchWorkloads();

/** Run one workload per @p opts; fatal errors throw. */
Report runBenchmark(const RunOptions &opts);

} // namespace genie::perf

#endif // GENIE_PERFBENCH_PERF_HH
