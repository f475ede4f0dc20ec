#include "sampler.hh"

#include "sim/logging.hh"

namespace genie
{

MetricsSampler::MetricsSampler(EventQueue &eq,
                               const StatRegistry &registry_,
                               Params p)
    : eventq(eq), registry(registry_), params(p)
{
    if (params.period == 0)
        fatal("metrics sampler period must be non-zero");
    if (params.capacity == 0)
        fatal("metrics sampler capacity must be non-zero");
}

void
MetricsSampler::track(const std::string &path)
{
    GENIE_ASSERT(!started, "track() after start()");
    const Stat *s = registry.lookup(path);
    if (s == nullptr)
        fatal("metrics sampler: unknown stat path '%s'", path.c_str());
    _paths.push_back(path);
    tracked.push_back(s);
    series.emplace_back();
}

void
MetricsSampler::trackAllScalars()
{
    for (const std::string &path : registry.scalarPaths())
        track(path);
}

void
MetricsSampler::start()
{
    GENIE_ASSERT(!started, "sampler started twice");
    started = true;
    eventq.schedule(eventq.curTick() + params.period,
                    [this] { sample(); }, "metrics.sample");
}

void
MetricsSampler::sample()
{
    _ticks.push_back(eventq.curTick());
    for (std::size_t s = 0; s < tracked.size(); ++s)
        series[s].push_back(tracked[s]->value());
    ++taken;

    if (_ticks.size() > params.capacity) {
        _ticks.pop_front();
        for (auto &vs : series)
            vs.pop_front();
        ++dropped;
    }

    // Our own event has already fired, so a non-empty queue means the
    // simulation is still making progress; rescheduling then — and
    // only then — keeps run()'s drain-to-empty termination intact.
    if (!eventq.empty()) {
        eventq.schedule(eventq.curTick() + params.period,
                        [this] { sample(); }, "metrics.sample");
    }
}

} // namespace genie
