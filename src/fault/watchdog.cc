#include "watchdog.hh"

namespace genie
{

Watchdog::Watchdog(std::string name_, EventQueue &eq, Params p)
    : SimObject(std::move(name_)), eventq(eq), params(p),
      statChecks(stats().add("checks",
                             "forward-progress checks performed")),
      statStalls(stats().add("stalls", "stalls detected (aborts run)"))
{
    if (params.interval == 0)
        fatal("%s: watchdog interval must be > 0 ticks",
              name().c_str());
    eq.registerStats(stats());
}

Watchdog::~Watchdog() = default;

void
Watchdog::addProgressSource(std::string label,
                            std::function<std::uint64_t()> counter)
{
    sources.push_back({std::move(label), std::move(counter)});
}

void
Watchdog::addDiagnostic(std::string label,
                        std::function<std::string()> render)
{
    diagnostics.push_back({std::move(label), std::move(render)});
}

void
Watchdog::arm()
{
    GENIE_ASSERT(!_armed, "%s: arm() while already armed",
                 name().c_str());
    _armed = true;
    lastProgress = totalProgress();
    pendingCheck = eventq.schedule(eventq.curTick() + params.interval,
                                   [this] { check(); }, "watchdog.check");
}

void
Watchdog::disarm()
{
    if (!_armed)
        return;
    _armed = false;
    if (pendingCheck != invalidEventId) {
        eventq.deschedule(pendingCheck);
        pendingCheck = invalidEventId;
    }
}

std::uint64_t
Watchdog::totalProgress() const
{
    std::uint64_t sum = 0;
    for (const auto &s : sources)
        sum += s.counter();
    return sum;
}

std::string
Watchdog::diagnose() const
{
    std::string out = format(
        "%s: no forward progress for %llu ticks (tick %llu)\n",
        name().c_str(), (unsigned long long)params.interval,
        (unsigned long long)eventq.curTick());
    out += "  progress counters (all frozen for one interval):\n";
    for (const auto &s : sources) {
        out += format("    %-24s %llu\n", s.label.c_str(),
                      (unsigned long long)s.counter());
    }
    out += format("  event queue: %zu live event(s), head at tick "
                  "%llu\n",
                  eventq.size(),
                  (unsigned long long)eventq.nextTick());
    for (const auto &d : diagnostics) {
        out += format("  %s: %s\n", d.label.c_str(),
                      d.render().c_str());
    }
    return out;
}

void
Watchdog::check()
{
    pendingCheck = invalidEventId;
    if (!_armed)
        return;
    ++numChecks;
    statChecks += 1;

    std::uint64_t progress = totalProgress();
    if (progress == lastProgress) {
        statStalls += 1;
        std::string diagnosis = diagnose();
        warn("%s", diagnosis.c_str());
        _armed = false;
        throw SimulationStalledError(diagnosis);
    }

    lastProgress = progress;
    pendingCheck = eventq.schedule(eventq.curTick() + params.interval,
                                   [this] { check(); }, "watchdog.check");
}

} // namespace genie
