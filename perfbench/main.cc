/**
 * @file
 * genie_perf: command line of the repository benchmark.
 *
 *   genie_perf --workload point-dma --seed 1 --seconds 15 --trace 0 \
 *              [--expected perfbench/expected.txt] \
 *              [--out .bench_build/perfbench-out]
 *   genie_perf --record-expected perfbench/expected.txt
 *
 * A run prints a host record, one line per metric (name, value, unit,
 * points attempted and failed), and as its last line one JSON object
 * with the keys correct, attempted, failed and metrics. --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones.
 * --record-expected simulates every point of the fixed spaces
 * uncached and writes the expected-result table. Sweeps and passes
 * run on min(4, nproc) threads.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "accel/dddg.hh"
#include "core/soc.hh"
#include "perf.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;
using namespace genie::perf;

int
usage()
{
    std::fprintf(stderr,
                 "usage: genie_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "                  [--expected FILE] [--out DIR]\n"
                 "       genie_perf --record-expected FILE\n"
                 "workloads:");
    for (const auto &w : benchWorkloads())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0';
}

int
recordExpected(const std::string &path, unsigned threads)
{
    auto domain = expectedDomain();
    std::map<std::string, std::unique_ptr<WorkloadOutput>> traces;
    std::map<std::string, std::unique_ptr<Dddg>> dddgs;
    for (const auto &[kernel, config] : domain) {
        if (!traces.count(kernel)) {
            traces[kernel] = std::make_unique<WorkloadOutput>(
                makeWorkload(kernel)->build());
            dddgs[kernel] =
                std::make_unique<Dddg>(traces[kernel]->trace);
        }
    }
    Expected table;
    std::mutex tableMutex;
    parallelFor(domain.size(), threads, [&](std::size_t i) {
        const auto &[kernel, config] = domain[i];
        SocResults r =
            runDesign(config, traces.at(kernel)->trace, *dddgs.at(kernel));
        if (r.stalled)
            throw std::runtime_error("stalled: " + pointName(config));
        std::lock_guard<std::mutex> g(tableMutex);
        table.add(kernel, pointName(config), resultsHash(r));
    });
    if (table.size() != domain.size() || !table.write(path)) {
        std::fprintf(stderr, "genie_perf: cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("recorded %zu expected results in %s\n", table.size(),
                path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    opts.expectedPath = "perfbench/expected.txt";
    opts.outDir = ".bench_build/perfbench-out";
    opts.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::string recordPath;
    double seed = -1, seconds = -1, trace = -1;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const char *value = argv[++i];
        double number = 0;
        if (arg == "--workload") {
            opts.workload = value;
        } else if (arg == "--expected") {
            opts.expectedPath = value;
        } else if (arg == "--out") {
            opts.outDir = value;
        } else if (arg == "--record-expected") {
            recordPath = value;
        } else if (parseNumber(value, number) && number >= 0) {
            if (arg == "--seed")
                seed = number;
            else if (arg == "--seconds")
                seconds = number;
            else if (arg == "--trace")
                trace = number;
            else
                return usage();
        } else {
            return usage();
        }
    }

    try {
        if (!recordPath.empty())
            return recordExpected(recordPath, opts.threads);
        if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
            std::find(benchWorkloads().begin(), benchWorkloads().end(),
                      opts.workload) == benchWorkloads().end())
            return usage();
        opts.seed = static_cast<std::uint64_t>(seed);
        opts.seconds = seconds;
        opts.trace = trace == 1;

        Report rep = runBenchmark(opts);

        long nproc = sysconf(_SC_NPROCESSORS_ONLN);
        std::printf("host {\"nproc\": %ld, \"build_type\": \"%s\", "
                    "\"threads\": %u, \"seed\": %llu, \"workload\": "
                    "\"%s\", \"seconds\": %g, \"trace\": %d}\n",
                    nproc, GENIE_PERF_BUILD_TYPE, rep.threads,
                    static_cast<unsigned long long>(opts.seed),
                    opts.workload.c_str(), opts.seconds, opts.trace ? 1 : 0);
        if (!rep.spansPath.empty())
            std::printf("spans %s\n", rep.spansPath.c_str());
        for (const auto &m : rep.metrics) {
            std::printf("metric %-32s %16.6f %-6s points_attempted=%llu "
                        "points_failed=%llu\n",
                        m.name.c_str(), m.value, m.unit.c_str(),
                        static_cast<unsigned long long>(rep.counts.attempted),
                        static_cast<unsigned long long>(rep.counts.failed));
        }

        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    rep.correct ? "true" : "false",
                    static_cast<unsigned long long>(rep.counts.attempted),
                    static_cast<unsigned long long>(rep.counts.unrecovered));
        for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
            const auto &m = rep.metrics[i];
            std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("}}\n");
        // The result line carries the verdict (correct/failed).
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "genie_perf: %s\n", e.what());
        return 1;
    }
}
