#include "interrupt_line.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

InterruptLine::InterruptLine(std::string name, EventQueue &eq,
                             ClockDomain domain, Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      statPosts(stats().add("posts", "interrupts posted")),
      statDelivered(stats().add("delivered", "interrupts delivered")),
      statDropped(stats().add(
          "dropped", "posts lost to injected drops (re-posted)")),
      // The upper bound is clamped so a zero latency still builds a
      // valid distribution and reaches the fatal() below instead of
      // panicking inside the stats layer.
      statLatency(stats().addDistribution(
          "latencyNs", "post-to-delivery latency (ns)",
          0.0,
          std::max(1.0, 4.0 * static_cast<double>(p.deliveryLatency) /
                            static_cast<double>(tickPerNs)),
          16))
{
    if (params.deliveryLatency == 0)
        fatal("interrupt delivery latency must be non-zero");
    eq.registerStats(stats());
}

void
InterruptLine::post()
{
    ++statPosts;
    ++pendingCount;
    if (Tracer *t = tracerFor(eventq, TraceCategory::Iface))
        t->instant(TraceCategory::Iface, name(), "irqPost");
    attemptDelivery(eventq.curTick(), 0);
}

void
InterruptLine::attemptDelivery(Tick postTick, unsigned attempt)
{
    if (FaultInjector *fi = eventq.faultInjector();
        fi && fi->shouldFault(FaultSite::IrqDrop)) {
        ++statDropped;
        if (attempt >= faultMaxRetries(eventq)) {
            fatal("%s: interrupt still dropped after %u re-posts — "
                  "the driver would sleep forever; lower "
                  "fault_irq_drop or raise fault_retries",
                  name().c_str(), attempt);
        }
        // Re-post after bounded exponential backoff; the latency
        // distribution absorbs the extra wait.
        scheduleCycles(
            static_cast<Cycles>(faultBackoffCycles(eventq, attempt)),
            [this, postTick, attempt] {
                attemptDelivery(postTick, attempt + 1);
            },
            "iface.irqRetry");
        return;
    }
    eventq.schedule(eventq.curTick() + params.deliveryLatency,
                    [this, postTick] { deliver(postTick); },
                    "iface.irqDeliver");
}

void
InterruptLine::deliver(Tick postTick)
{
    GENIE_ASSERT(pendingCount > 0, "interrupt delivery underflow");
    --pendingCount;
    ++statDelivered;
    statLatency.sample(
        static_cast<double>(eventq.curTick() - postTick) /
        static_cast<double>(tickPerNs));
    if (Tracer *t = tracerFor(eventq, TraceCategory::Iface))
        t->instant(TraceCategory::Iface, name(), "irqDeliver");
    if (handler)
        handler();
}

} // namespace genie
