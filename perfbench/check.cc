/**
 * @file
 * Span log, expected-result table, checker and the fixed spaces.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "dse/journal.hh"
#include "dse/sweep.hh"
#include "perf.hh"
#include "workloads/workload.hh"

namespace genie::perf
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------

int
SpanLog::open(const char *name, int parent, std::uint64_t beginNs)
{
    _spans.push_back({name, beginNs, beginNs, parent, 0});
    return static_cast<int>(_spans.size() - 1);
}

void
SpanLog::close(int id, std::uint64_t endNs)
{
    _spans[static_cast<std::size_t>(id)].endNs = endNs;
}

int
SpanLog::add(const char *name, int parent, std::uint64_t beginNs,
             std::uint64_t endNs, unsigned thread)
{
    _spans.push_back({name, beginNs, endNs, parent, thread});
    return static_cast<int>(_spans.size() - 1);
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &s : _spans) {
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.beginNs) /
                          1e6);
    }
    return out;
}

std::map<std::string, double>
SpanLog::layerSelfMs() const
{
    std::vector<std::vector<std::size_t>> children(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        if (_spans[i].parent >= 0)
            children[static_cast<std::size_t>(_spans[i].parent)]
                .push_back(i);
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        // Union of the children's intervals clipped to this span
        // (children on worker threads may overlap each other).
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        for (std::size_t c : children[i]) {
            iv.emplace_back(std::max(_spans[c].beginNs, s.beginNs),
                            std::min(_spans[c].endNs, s.endNs));
        }
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0, reach = s.beginNs;
        for (const auto &[b, e] : iv) {
            std::uint64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] +=
            static_cast<double>(s.endNs - s.beginNs - covered) / 1e6;
    }
    return self;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::uint64_t origin = _spans.empty() ? 0 : _spans.front().beginNs;
    for (const auto &s : _spans)
        origin = std::min(origin, s.beginNs);
    os << "{\"traceEvents\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                      s.name.c_str(), s.thread,
                      static_cast<double>(s.beginNs - origin) / 1e3,
                      static_cast<double>(s.endNs - s.beginNs) / 1e3, i,
                      s.parent, i + 1 < _spans.size() ? "," : "");
        os << buf;
    }
    os << "], \"layerSelfMs\": {";
    bool first = true;
    for (const auto &[layer, ms] : layerSelfMs()) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6f",
                      first ? "" : ", ", layer.c_str(), ms);
        os << buf;
        first = false;
    }
    os << "}}\n";
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------
// Expected results
// ---------------------------------------------------------------

std::string
pointName(const SocConfig &c)
{
    char buf[96];
    if (c.memType == MemInterface::Cache) {
        std::snprintf(buf, sizeof(buf), "c%u.%u.%u.%u.%u.%u",
                      c.busWidthBits, c.lanes, c.cache.sizeBytes / 1024,
                      c.cache.lineBytes, c.cache.ports, c.cache.assoc);
    } else if (c.isolated) {
        std::snprintf(buf, sizeof(buf), "i.%u.%u", c.lanes,
                      c.spadPartitions);
    } else if (c.dma.pipelined && c.dma.triggeredCompute) {
        std::snprintf(buf, sizeof(buf), "d%u.%u.%u", c.busWidthBits,
                      c.lanes, c.spadPartitions);
    } else {
        return "";
    }
    return buf;
}

std::uint64_t
resultsHash(const SocResults &results)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : resultsJson(results)) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
Expected::load(const std::string &path, std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot read " + path;
        return false;
    }
    std::string line, kernel;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        if (line.front() == '[' && line.back() == ']') {
            kernel = line.substr(1, line.size() - 2);
            continue;
        }
        std::istringstream ls(line);
        std::string point, hex;
        if (kernel.empty() || !(ls >> point >> hex) || hex.size() != 16) {
            error = path + ":" + std::to_string(lineNo) + ": malformed";
            return false;
        }
        add(kernel, point, std::stoull(hex, nullptr, 16));
    }
    return true;
}

bool
Expected::write(const std::string &path) const
{
    std::ofstream os(path);
    os << "# genie-perf-expected-1: fnv1a64(resultsJson(SocResults)) "
          "per design point,\n# recorded from uncached runDesign "
          "calls by `genie_perf --record-expected`.\n";
    char buf[32];
    for (const auto &[kernel, points] : table) {
        os << "[" << kernel << "]\n";
        for (const auto &[point, hash] : points) {
            std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
            os << point << " " << buf << "\n";
        }
    }
    return static_cast<bool>(os);
}

void
Expected::add(const std::string &kernel, const std::string &point,
              std::uint64_t hash)
{
    table[kernel][point] = hash;
}

const std::uint64_t *
Expected::find(const std::string &kernel, const std::string &point) const
{
    auto k = table.find(kernel);
    if (k == table.end())
        return nullptr;
    auto p = k->second.find(point);
    return p == k->second.end() ? nullptr : &p->second;
}

std::size_t
Expected::size() const
{
    std::size_t n = 0;
    for (const auto &[kernel, points] : table)
        n += points.size();
    return n;
}

bool
Checker::matches(const std::string &kernel, const SocConfig &config,
                 const SocResults &results) const
{
    const std::uint64_t *want =
        expected.find(kernel, pointName(config));
    return want && !results.stalled && resultsHash(results) == *want;
}

bool
Checker::check(const std::string &kernel, const SocConfig &config,
               const SocResults *served,
               const std::function<SocResults()> &resimulate,
               std::uint64_t &resimNs, SocResults *resimulated)
{
    ++_counts.attempted;
    resimNs = 0;
    if (served && matches(kernel, config, *served))
        return true;
    ++_counts.failed;
    ++_counts.resimulated;
    std::uint64_t t0 = nowNs();
    bool ok = false;
    try {
        SocResults fresh = resimulate();
        ok = matches(kernel, config, fresh);
        if (resimulated)
            *resimulated = fresh;
    } catch (const std::exception &) {
        ok = false;
    }
    resimNs = nowNs() - t0;
    if (!ok) {
        ++_counts.unrecovered;
        std::fprintf(stderr, "genie_perf: %s %s has no correct result\n",
                     kernel.c_str(), pointName(config).c_str());
    }
    return ok;
}

// ---------------------------------------------------------------
// Spaces
// ---------------------------------------------------------------

namespace
{

bool
in(unsigned v, std::initializer_list<unsigned> set)
{
    return std::find(set.begin(), set.end(), v) != set.end();
}

} // namespace

std::vector<SocConfig>
isolatedSpace()
{
    return DesignSpace::isolated(SocConfig{});
}

std::vector<SocConfig>
dmaSpace(unsigned busBits)
{
    SocConfig base;
    base.busWidthBits = busBits;
    std::vector<SocConfig> out;
    for (auto &c : DesignSpace::dma(base)) {
        if (in(c.lanes, {4, 8, 16}) && in(c.spadPartitions, {4, 8, 16}))
            out.push_back(std::move(c));
    }
    return out;
}

std::vector<SocConfig>
cacheSpace(unsigned busBits)
{
    SocConfig base;
    base.busWidthBits = busBits;
    std::vector<SocConfig> out;
    for (auto &c : DesignSpace::cache(base)) {
        if (c.cache.assoc == 4 && in(c.cache.lineBytes, {32, 64}))
            out.push_back(std::move(c));
    }
    return out;
}

std::vector<std::string>
regenKernels()
{
    return {"fft-transpose", "spmv-crs", "md-knn"};
}

std::vector<std::pair<std::string, SocConfig>>
expectedDomain()
{
    std::vector<std::pair<std::string, SocConfig>> out;
    for (const auto &k : figure8Workloads()) {
        for (auto &c : dmaSpace(32))
            out.emplace_back(k, std::move(c));
        for (auto &c : cacheSpace(32))
            out.emplace_back(k, std::move(c));
    }
    for (const auto &k : regenKernels()) {
        for (auto &c : isolatedSpace())
            out.emplace_back(k, std::move(c));
        for (auto &c : dmaSpace(64))
            out.emplace_back(k, std::move(c));
        for (auto &c : cacheSpace(64))
            out.emplace_back(k, std::move(c));
    }
    return out;
}

void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    auto worker = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace genie::perf
