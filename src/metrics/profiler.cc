#include "profiler.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>

#include "sim/logging.hh"

namespace genie
{

std::uint64_t
profilerNowNs()
{
    // The one sanctioned host-clock read in the library: profiling
    // and telemetry attribution only, never fed back into simulated
    // behavior.
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

std::uint64_t
nowNs()
{
    return profilerNowNs();
}

} // namespace

unsigned
LatencyHistogram::bucketOf(std::uint64_t ns)
{
    if (ns < subBuckets)
        return static_cast<unsigned>(ns);
    unsigned e = 63 - static_cast<unsigned>(std::countl_zero(ns));
    unsigned sub = static_cast<unsigned>(ns >> (e - subBits)) &
                   (subBuckets - 1);
    return (e - subBits + 1) * subBuckets + sub;
}

std::uint64_t
LatencyHistogram::lowerEdge(unsigned bucket)
{
    if (bucket < subBuckets)
        return bucket;
    unsigned e = bucket / subBuckets + subBits - 1;
    std::uint64_t sub = bucket % subBuckets;
    return (subBuckets + sub) << (e - subBits);
}

void
LatencyHistogram::sample(std::uint64_t ns)
{
    counts[bucketOf(ns)] += 1;
    _count += 1;
    _sum += ns;
    _max = std::max(_max, ns);
}

std::uint64_t
LatencyHistogram::quantile(double p) const
{
    if (_count == 0)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(_count)));
    rank = std::clamp<std::uint64_t>(rank, 1, _count);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < numBuckets; ++b) {
        seen += counts[b];
        if (seen >= rank)
            return lowerEdge(b);
    }
    return lowerEdge(bucketOf(_max));
}

void
HostProfiler::beginEvent(Tick when, const char *kind)
{
    (void)when;
    curKind = kind;
    inEvent = true;
    startNs = nowNs();
}

void
HostProfiler::endEvent()
{
    std::uint64_t end = nowNs();
    GENIE_ASSERT(inEvent, "profiler endEvent without beginEvent");
    inEvent = false;
    std::uint64_t ns = end >= startNs ? end - startNs : 0;

    // Kind-table fast path (Genie-Turbo): schedule sites pass static
    // string literals, so the pointer identity of `curKind` memoizes
    // the by-name lookup — one flat hash probe per event instead of a
    // string construction plus red-black-tree walk. Two distinct
    // pointers with equal text simply memoize the same by-name node
    // (std::map nodes are pointer-stable), so attribution output is
    // unchanged.
    KindProfile *kp;
    auto cached = kindCache.find(curKind);
    if (cached != kindCache.end()) {
        kp = cached->second;
    } else {
        auto it = kinds.try_emplace(
            curKind != nullptr ? curKind : "(untagged)").first;
        kp = &it->second;
        kindCache.emplace(curKind, kp);
    }
    KindProfile &k = *kp;
    k.events += 1;
    k.wallNs += ns;
    k.latencyNs.sample(ns);
    _totalEvents += 1;
    _totalWallNs += ns;
}

double
HostProfiler::eventsPerSecond() const
{
    if (_totalWallNs == 0)
        return 0.0;
    return static_cast<double>(_totalEvents) /
           (static_cast<double>(_totalWallNs) * 1e-9);
}

std::vector<std::pair<std::string, HostProfiler::KindProfile>>
HostProfiler::sorted() const
{
    std::vector<std::pair<std::string, KindProfile>> out(
        kinds.begin(), kinds.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         return a.second.wallNs > b.second.wallNs;
                     });
    return out;
}

void
HostProfiler::report(std::ostream &os) const
{
    os << format("%-28s %12s %12s %7s %9s %9s\n", "event kind",
                 "events", "wall ms", "share", "p50 ns", "p95 ns");
    for (const auto &[kind, k] : sorted()) {
        double share =
            _totalWallNs > 0
                ? 100.0 * static_cast<double>(k.wallNs) /
                      static_cast<double>(_totalWallNs)
                : 0.0;
        os << format("%-28s %12llu %12.3f %6.1f%% %9.0f %9.0f\n",
                     kind.c_str(), (unsigned long long)k.events,
                     static_cast<double>(k.wallNs) * 1e-6, share,
                     static_cast<double>(k.latencyNs.p50()),
                     static_cast<double>(k.latencyNs.p95()));
    }
    os << format("total: %llu events, %.3f ms, %.2f M events/s\n",
                 (unsigned long long)_totalEvents,
                 static_cast<double>(_totalWallNs) * 1e-6, meps());
}

void
HostProfiler::reset()
{
    kinds.clear();
    kindCache.clear();
    _totalEvents = 0;
    _totalWallNs = 0;
    inEvent = false;
    curKind = nullptr;
    startNs = 0;
}

} // namespace genie
