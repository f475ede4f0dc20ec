#include "driver_cpu.hh"

#include "sim/logging.hh"

namespace genie
{

DriverCpu::DriverCpu(std::string name, EventQueue &eq, ClockDomain domain,
                     FlushEngine &flushEngine_, IoctlRegistry &registry_,
                     Params p)
    : SimObject(std::move(name)), Clocked(eq, domain), params(p),
      flushEngine(flushEngine_), registry(registry_),
      statOps(stats().add("ops", "driver ops executed")),
      statSpinTicks(stats().add("spinTicks",
                                "ticks spent spin-waiting")),
      statIoctls(stats().add("ioctls", "ioctl invocations issued"))
{
    eq.registerStats(stats());
}

void
DriverCpu::run(std::vector<DriverOp> prog, std::function<void()> done)
{
    GENIE_ASSERT(!running, "driver CPU already running a program");
    program = std::move(prog);
    onDone = std::move(done);
    pc = 0;
    running = true;
    flagSet = false;
    waitingOnFlag = false;
    intrPending = false;
    waitingOnIntr = false;
    eventq.schedule(eventq.curTick(), stepEvent, this, 0, "cpu.step");
}

void
DriverCpu::setCompletionSink(std::function<void()> sink)
{
    completionSink = std::move(sink);
}

void
DriverCpu::signalFlag()
{
    flagSet = true;
    if (waitingOnFlag) {
        waitingOnFlag = false;
        statSpinTicks += static_cast<double>(
            eventq.curTick() - spinStart + params.spinNoticeLatency);
        // The flag was consumed by the pending SpinWait.
        flagSet = false;
        eventq.schedule(eventq.curTick() + params.spinNoticeLatency,
                        stepEvent, this, 0, "cpu.step");
    }
}

void
DriverCpu::raiseInterrupt()
{
    intrPending = true;
    if (waitingOnIntr) {
        waitingOnIntr = false;
        // The interrupt was consumed by the pending IntrWait. The
        // wakeup latency was already charged by the InterruptLine,
        // and a sleeping CPU burns no spin ticks.
        intrPending = false;
        eventq.schedule(eventq.curTick(), stepEvent, this, 0, "cpu.step");
    }
}

void
DriverCpu::stepEvent(void *self, std::uint64_t)
{
    static_cast<DriverCpu *>(self)->step();
}

void
DriverCpu::step()
{
    if (pc >= program.size()) {
        running = false;
        if (onDone)
            onDone();
        return;
    }

    DriverOp &op = program[pc++];
    ++statOps;
    auto next = [this] { step(); };

    switch (op.kind) {
      case DriverOp::Kind::FlushRange:
        // Whole-program flushes are not chunked here; pipelined DMA
        // drives the flush engine directly with page-sized chunks.
        flushEngine.startFlush(op.bytes, op.bytes ? op.bytes : 1,
                               nullptr, next);
        break;
      case DriverOp::Kind::InvalidateRange:
        flushEngine.startInvalidate(op.bytes, next);
        break;
      case DriverOp::Kind::Compute:
        scheduleCycles(op.cycles, stepEvent, this, 0, "cpu.compute");
        break;
      case DriverOp::Kind::Ioctl: {
        std::uint32_t command = op.command;
        ++statIoctls;
        scheduleCycles(params.ioctlCycles,
                       [](void *c, std::uint64_t cmd) {
            auto *self = static_cast<DriverCpu *>(c);
            auto command = static_cast<std::uint32_t>(cmd);
            // The device runs concurrently with the CPU; the driver
            // returns from ioctl immediately after starting it.
            // Completion routes through the configured sink (e.g. an
            // InterruptLine) or, by default, the coherent spin flag.
            self->registry.ioctl(aladdinFd, command, [self] {
                if (self->completionSink)
                    self->completionSink();
                else
                    self->signalFlag();
            });
            self->step();
        }, this, command, "cpu.ioctl");
        break;
      }
      case DriverOp::Kind::SpinWait:
        if (flagSet) {
            flagSet = false;
            eventq.schedule(eventq.curTick(), stepEvent, this, 0, "cpu.step");
        } else {
            spinStart = eventq.curTick();
            waitingOnFlag = true;
        }
        break;
      case DriverOp::Kind::IntrWait:
        if (intrPending) {
            intrPending = false;
            eventq.schedule(eventq.curTick(), stepEvent, this, 0, "cpu.step");
        } else {
            waitingOnIntr = true;
        }
        break;
      case DriverOp::Kind::Mfence:
        scheduleCycles(params.mfenceCycles, stepEvent, this, 0, "cpu.mfence");
        break;
      case DriverOp::Kind::Call:
        if (op.callback)
            op.callback();
        eventq.schedule(eventq.curTick(), stepEvent, this, 0, "cpu.step");
        break;
    }
}

} // namespace genie
