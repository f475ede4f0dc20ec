/**
 * @file
 * Datapath issue goldens: design points chosen to stress every corner
 * of the datapath issue logic, each pinned to checked-in results.
 *
 * For every case the golden (tests/golden/datapath_issue.txt) holds
 *  - the frozen resultsJson() body of an untraced run,
 *  - the value of every scalar stat of that run (stats registered
 *    after the golden was captured are not in the file and are not
 *    checked),
 *  - an FNV-1a 64-bit hash of the Chrome JSON of the same point run
 *    with every trace category on (the record order of the tracer is
 *    part of the contract, bank-conflict instants included).
 *
 * The cases cover bank conflicts with DMA-triggered and untriggered
 * loads (also with four lanes per partition), ready lists longer than
 * the issue window (one lane on a long kernel), the unpipelined
 * divider, perfect memory, cache mode with TLB misses and port/MSHR
 * rejections, private scratchpad arrays in cache mode, the ACP port, a
 * per-array interface override, and a seeded fault campaign.
 *
 * Capture newly added cases with
 *
 *   GENIE_ISSUE_GOLDEN_WRITE=1 ./build/tests/test_issue_golden
 *
 * which appends the lines of every case missing from the file and
 * leaves existing lines byte-identical. To recapture a case after an
 * intentional model change, delete its lines first.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "accel/dddg.hh"
#include "core/config_parse.hh"
#include "core/soc.hh"
#include "dse/journal.hh"
#include "trace/tracer.hh"
#include "workloads/workload.hh"

#ifndef GENIE_GOLDEN_DIR
#error "tests/CMakeLists.txt must define GENIE_GOLDEN_DIR"
#endif

namespace genie
{
namespace
{

const std::string goldenPath =
    std::string(GENIE_GOLDEN_DIR) + "/datapath_issue.txt";

struct IssueCase
{
    const char *name;
    const char *workload;
    const char *options;
};

const IssueCase issueCases[] = {
    {"dma-triggered-p1", "stencil-stencil2d",
     "mem=dma lanes=4 partitions=1 pipelined=1 triggered=1"},
    {"dma-untriggered-p1", "stencil-stencil2d",
     "mem=dma lanes=4 partitions=1"},
    {"dma-opt-p8", "stencil-stencil2d",
     "mem=dma lanes=8 partitions=8 pipelined=1 triggered=1"},
    {"lanes1-long", "gemm-ncubed", "mem=dma lanes=1 partitions=4"},
    {"divider", "md-knn",
     "mem=dma lanes=4 partitions=2 pipelined=1 triggered=1"},
    {"perfect-mem", "spmv-crs",
     "mem=dma lanes=4 partitions=1 perfect_mem=1"},
    {"cache-tlb-rejects", "spmv-crs",
     "mem=cache lanes=8 cache_kb=2 cache_ports=1 cache_mshrs=2 "
     "tlb_entries=2"},
    {"cache-knn", "md-knn",
     "mem=cache lanes=4 cache_kb=16 cache_ports=2"},
    {"cache-private-spad", "nw-nw",
     "mem=cache lanes=4 cache_kb=4 cache_ports=1"},
    {"acp", "stencil-stencil2d", "mem_type=acp lanes=4 partitions=2"},
    {"array-override", "stencil-stencil2d",
     "mem=dma lanes=4 partitions=2 pipelined=1 triggered=1 "
     "mem_type.orig=acp"},
    {"faults", "stencil-stencil2d",
     "mem=dma lanes=4 partitions=4 pipelined=1 triggered=1 "
     "fault_seed=7 fault_dram_read=0.02 fault_dma_beat=0.05"},
    {"conflicts-l16p4", "stencil-stencil3d",
     "mem=dma lanes=16 partitions=4 pipelined=1 triggered=1"},
};

/** gtest prints the case name instead of the struct's bytes. */
void
PrintTo(const IssueCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<std::string>
splitOptions(const char *options)
{
    std::vector<std::string> out;
    std::istringstream iss(options);
    std::string tok;
    while (iss >> tok)
        out.push_back(tok);
    return out;
}

/** An output stream buffer that only hashes (FNV-1a, 64 bit) what is
 * written, so multi-megabyte traces never sit in memory. */
class FnvBuf : public std::streambuf
{
  public:
    std::uint64_t hash = 0xcbf29ce484222325ull;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (c != traits_type::eof())
            mix(static_cast<unsigned char>(c));
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            mix(static_cast<unsigned char>(s[i]));
        return n;
    }

  private:
    void
    mix(unsigned char byte)
    {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
};

/** Everything the golden pins for one case. */
struct Observed
{
    std::string results;
    std::map<std::string, std::string> stats;
    std::string traceHash;
};

std::string
formatValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Observed
observe(const IssueCase &c)
{
    Trace trace = makeWorkload(c.workload)->build().trace;
    Dddg dddg(trace);
    SocConfig cfg = parseConfig(splitOptions(c.options));

    Observed o;
    {
        Soc soc(cfg, trace, dddg);
        o.results = resultsJson(soc.run());
        const StatRegistry &reg = soc.statRegistry();
        for (const std::string &path : reg.scalarPaths())
            o.stats[path] = formatValue(reg.get(path));
    }

    cfg.tracing.enabled = true;
    cfg.tracing.categories = allTraceCategories;
    Soc traced(cfg, trace, dddg);
    std::string tracedResults = resultsJson(traced.run());
    EXPECT_EQ(tracedResults, o.results)
        << c.name << ": tracing perturbed the results";
    FnvBuf buf;
    std::ostream os(&buf);
    traced.tracer()->writeChromeJson(os);
    os.flush();
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, buf.hash);
    o.traceHash = hex;
    return o;
}

/**
 * Golden file format, one record per line:
 *   results <case> <resultsJson body>
 *   trace <case> <fnv1a64 hex>
 *   stat <case> <path> <value>
 */
struct Golden
{
    std::map<std::string, Observed> cases;
};

Golden
loadGolden()
{
    Golden g;
    std::ifstream in(goldenPath);
    EXPECT_TRUE(in.good()) << "missing golden file " << goldenPath;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kind, name;
        ls >> kind >> name;
        Observed &o = g.cases[name];
        if (kind == "results") {
            ls >> std::ws;
            std::getline(ls, o.results);
        } else if (kind == "trace") {
            ls >> o.traceHash;
        } else if (kind == "stat") {
            std::string path, value;
            ls >> path >> value;
            o.stats[path] = value;
        } else {
            ADD_FAILURE() << "bad golden line: " << line;
        }
    }
    return g;
}

/** Append the cases missing from the golden file. */
void
writeGolden()
{
    const bool exists = std::ifstream(goldenPath).good();
    const Golden old = exists ? loadGolden() : Golden{};
    std::ofstream out(goldenPath, std::ios::app);
    if (!exists)
        out << "# Datapath issue goldens (tests/test_issue_golden.cc).\n";
    for (const IssueCase &c : issueCases) {
        if (old.cases.count(c.name))
            continue;
        Observed o = observe(c);
        out << "results " << c.name << ' ' << o.results << '\n';
        out << "trace " << c.name << ' ' << o.traceHash << '\n';
        for (const auto &[path, value] : o.stats)
            out << "stat " << c.name << ' ' << path << ' ' << value
                << '\n';
    }
}

class IssueGolden : public ::testing::TestWithParam<IssueCase>
{
};

TEST_P(IssueGolden, MatchesCheckedInResultsStatsAndTrace)
{
    static const Golden golden = [] {
        if (std::getenv("GENIE_ISSUE_GOLDEN_WRITE") != nullptr)
            writeGolden();
        return loadGolden();
    }();
    const IssueCase &c = GetParam();
    auto it = golden.cases.find(c.name);
    ASSERT_NE(it, golden.cases.end()) << "no golden for " << c.name;
    const Observed &want = it->second;

    Observed got = observe(c);
    EXPECT_EQ(got.results, want.results) << c.name;
    EXPECT_EQ(got.traceHash, want.traceHash)
        << c.name << ": traced-run JSON changed";
    ASSERT_FALSE(want.stats.empty()) << c.name;
    for (const auto &[path, value] : want.stats) {
        auto s = got.stats.find(path);
        ASSERT_NE(s, got.stats.end())
            << c.name << ": stat " << path << " disappeared";
        EXPECT_EQ(s->second, value) << c.name << ": stat " << path;
    }
}

std::string
caseName(const ::testing::TestParamInfo<IssueCase> &info)
{
    std::string s = info.param.name;
    for (char &ch : s) {
        if (ch == '-')
            ch = '_';
    }
    return s;
}

INSTANTIATE_TEST_SUITE_P(DatapathIssue, IssueGolden,
                         ::testing::ValuesIn(issueCases), caseName);

} // namespace
} // namespace genie
