/**
 * @file
 * Clock domains and the Clocked mixin.
 *
 * A ClockDomain converts between a local cycle count and global ticks.
 * Clocked objects (caches, buses, datapaths, ...) schedule their work on
 * their own clock edges, mirroring gem5's ClockedObject.
 */

#ifndef GENIE_SIM_CLOCKED_HH
#define GENIE_SIM_CLOCKED_HH

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace genie
{

/** A clock domain: a period in ticks. */
class ClockDomain
{
  public:
    explicit ClockDomain(Tick period)
        : _period(period)
    {
        if (period == 0)
            fatal("clock domain period must be non-zero");
    }

    static ClockDomain fromMhz(std::uint64_t mhz)
    {
        return ClockDomain(periodFromMhz(mhz));
    }

    Tick period() const { return _period; }

    double frequencyMhz() const
    {
        return 1e6 / static_cast<double>(_period);
    }

  private:
    Tick _period;
};

/**
 * Mixin giving an object a clock and convenient cycle/tick conversion.
 * All clocks are assumed aligned at tick 0.
 */
class Clocked
{
  public:
    Clocked(EventQueue &eq, ClockDomain domain)
        : eventq(eq), clock(domain)
    {}

    Tick clockPeriod() const { return clock.period(); }

    /** Current time, in whole local cycles (floor). */
    Cycles curCycle() const { return eventq.curTick() / clock.period(); }

    /** Ticks corresponding to @p cycles of this clock. */
    Tick cyclesToTicks(Cycles cycles) const
    {
        return cycles * clock.period();
    }

    /** Whole cycles covering @p ticks (ceiling). */
    Cycles ticksToCycles(Tick ticks) const
    {
        return divCeil(ticks, clock.period());
    }

    /**
     * Absolute tick of the next clock edge at least @p cycles ahead.
     * clockEdge(0) is the current tick if exactly on an edge, else the
     * next edge.
     */
    Tick
    clockEdge(Cycles cycles = 0) const
    {
        Tick now = eventq.curTick();
        Tick edge = divCeil(now, clock.period()) * clock.period();
        return edge + cycles * clock.period();
    }

    EventQueue &eventQueue() { return eventq; }
    const EventQueue &eventQueue() const { return eventq; }

    /** Schedule @p action on the clock edge @p cycles ahead, tagged
     * @p kind; same flow capture as EventQueue::schedule(). */
    EventId
    scheduleCycles(Cycles cycles, std::function<void()> action,
                   const char *kind)
    {
        return eventq.schedule(clockEdge(cycles), std::move(action),
                               kind);
    }

    /** Raw-dispatch scheduleCycles(): fires fn(ctx, arg) with no
     * std::function on the path. */
    EventId
    scheduleCycles(Cycles cycles, EventQueue::RawEvent fn, void *ctx,
                   std::uint64_t arg, const char *kind)
    {
        return eventq.schedule(clockEdge(cycles), fn, ctx, arg, kind);
    }

  protected:
    EventQueue &eventq;
    ClockDomain clock;
};

} // namespace genie

#endif // GENIE_SIM_CLOCKED_HH
