/**
 * @file
 * Self-test of the benchmark's failure accounting and span math.
 *
 *   genie_perf_selftest --expected perfbench/expected.txt --out DIR
 *
 * Feeds the checker results it must reject: another kernel's result
 * for the same config (what a cross-kernel cache or store hit serves),
 * a stalled result, a thrown point, and a re-simulation that is still
 * wrong. Each must count as failed, be re-simulated, and end correct
 * exactly when the re-simulation is. Then drives the real defect: two
 * kernels swept through one ResultStore, every served point checked.
 * Exits 0 when every assertion holds.
 */

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "accel/dddg.hh"
#include "core/soc.hh"
#include "dse/result_cache.hh"
#include "dse/result_store.hh"
#include "dse/sweep_engine.hh"
#include "perf.hh"
#include "workloads/workload.hh"

namespace
{

using namespace genie;
using namespace genie::perf;

int failures = 0;

void
expect(bool cond, const char *what)
{
    std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
    if (!cond)
        ++failures;
}

struct Prepared
{
    WorkloadOutput out;
    Dddg dddg;

    explicit Prepared(const std::string &name)
        : out(makeWorkload(name)->build()), dddg(out.trace)
    {}
};

void
checkerAccounting(const Expected &expected)
{
    const std::string a = regenKernels()[0], b = regenKernels()[1];
    Prepared pa(a), pb(b);
    const SocConfig config = dmaSpace(32).front();
    const SocResults resA = runDesign(config, pa.out.trace, pa.dddg);
    const SocResults resB = runDesign(config, pb.out.trace, pb.dddg);
    expect(resultsHash(resA) != resultsHash(resB),
           "the two kernels' results differ for the same config");

    Checker checker(expected);
    int resims = 0;
    auto resimB = [&] {
        ++resims;
        return runDesign(config, pb.out.trace, pb.dddg);
    };
    std::uint64_t resimNs = 0;

    bool ok = checker.check(b, config, &resB, resimB, resimNs);
    expect(ok && checker.counts().failed == 0 && resims == 0,
           "a correct result passes without re-simulation");

    ok = checker.check(b, config, &resA, resimB, resimNs);
    expect(ok && checker.counts().failed == 1 && resims == 1 &&
               resimNs > 0,
           "a cross-kernel result counts as failed and is re-simulated");

    SocResults stalled = resB;
    stalled.stalled = true;
    ok = checker.check(b, config, &stalled, resimB, resimNs);
    expect(ok && checker.counts().failed == 2 && resims == 2,
           "a stalled result counts as failed");

    ok = checker.check(b, config, nullptr, resimB, resimNs);
    expect(ok && checker.counts().failed == 3 && resims == 3,
           "a point that threw counts as failed");

    ok = checker.check(b, config, &resA, [&] { return resA; }, resimNs);
    expect(!ok && checker.counts().unrecovered == 1,
           "a re-simulation that is still wrong is unrecovered");

    ok = checker.check(
        b, config, &resA,
        []() -> SocResults { throw std::runtime_error("boom"); },
        resimNs);
    expect(!ok && checker.counts().unrecovered == 2,
           "a re-simulation that throws is unrecovered");
    expect(checker.counts().attempted == 6 &&
               checker.counts().resimulated == 5,
           "attempted and resimulated counts add up");
}

void
sharedStore(const Expected &expected, const std::string &outDir)
{
    const std::string a = regenKernels()[0], b = regenKernels()[1];
    Prepared pa(a), pb(b);
    const std::vector<SocConfig> configs = dmaSpace(32);
    const std::string dir = outDir + "/shared-store";
    std::filesystem::remove_all(dir);

    ResultCache cache;
    ResultStore store;
    store.open(dir);
    SweepOptions so;
    so.cache = &cache;
    so.store = &store;
    so.threads = 2;
    std::vector<DesignPoint> first =
        SweepEngine(so).run(configs, pa.out.trace, pa.dddg);
    std::vector<DesignPoint> second =
        SweepEngine(so).run(configs, pb.out.trace, pb.dddg);

    Checker checker(expected);
    std::size_t wrongServes = 0, endCorrect = 0;
    std::uint64_t resimNs = 0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        wrongServes +=
            resultsHash(second[i].results) == resultsHash(first[i].results);
        endCorrect += checker.check(
            b, configs[i], &second[i].results,
            [&] { return runDesign(configs[i], pb.out.trace, pb.dddg); },
            resimNs);
    }
    expect(endCorrect == configs.size(),
           "every point of the second kernel ends correct");
    std::printf("shared store: %zu of %zu points of %s were served %s's "
                "results\n",
                wrongServes, configs.size(), b.c_str(), a.c_str());
    expect(checker.counts().failed == wrongServes,
           "every cross-kernel serve is counted as failed");
    expect(checker.counts().resimulated == wrongServes,
           "every cross-kernel serve is re-simulated");
    std::filesystem::remove_all(dir);
}

void
spanSelfTime()
{
    SpanLog log;
    int root = log.add("bench.round", -1, 0, 100);
    log.add("core.run", root, 10, 40, 1);
    log.add("core.run", root, 30, 60, 2);
    auto self = log.layerSelfMs();
    expect(self["bench"] == 50.0 / 1e6 && self["core"] == 60.0 / 1e6,
           "self time subtracts the union of overlapping children");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string expectedPath = "perfbench/expected.txt";
    std::string outDir = ".bench_build/perfbench-out";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string arg = argv[i];
        if (arg == "--expected")
            expectedPath = argv[i + 1];
        else if (arg == "--out")
            outDir = argv[i + 1];
    }
    Expected expected;
    std::string error;
    if (!expected.load(expectedPath, error)) {
        std::fprintf(stderr, "genie_perf_selftest: %s\n", error.c_str());
        return 1;
    }
    std::filesystem::create_directories(outDir);
    checkerAccounting(expected);
    sharedStore(expected, outDir);
    spanSelfTime();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED",
                failures);
    return failures ? 1 : 0;
}
