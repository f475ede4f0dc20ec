/**
 * @file
 * The driver CPU.
 *
 * The paper runs gem5 in syscall-emulation mode with a validated ARM
 * A9 CPU model; the CPU's role in every experiment is the software
 * offload flow: flush caches, program the DMA engine, invoke the
 * accelerator via ioctl, then wait for completion. Genie substitutes
 * a timed driver program — a sequence of DriverOps executed
 * sequentially, each charged its characterized latency — which
 * reproduces exactly the CPU-side costs the paper accounts for
 * (84 ns/line flushes, 71 ns/line invalidates, DMA setup, ioctl entry,
 * and the coherence-notice latency of the spin loop).
 *
 * Completion has two waiting styles (Genie-Iface completion modes):
 * SpinWait polls a coherent status flag, charging every waited tick
 * to spinTicks plus the coherence notice latency; IntrWait sleeps
 * until an InterruptLine delivery calls raiseInterrupt(), charging
 * no spin time at all — the wakeup latency is modeled by the line,
 * not the CPU.
 */

#ifndef GENIE_CPU_DRIVER_CPU_HH
#define GENIE_CPU_DRIVER_CPU_HH

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "cpu/ioctl.hh"
#include "dma/flush_model.hh"
#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace genie
{

/** One step of the driver program. */
struct DriverOp
{
    enum class Kind : std::uint8_t
    {
        /** Flush @p bytes of input data from private caches. */
        FlushRange,
        /** Invalidate @p bytes of the output region. */
        InvalidateRange,
        /** Spend @p cycles of CPU work (setup, data generation...). */
        Compute,
        /** ioctl(aladdinFd, command): start an accelerator. */
        Ioctl,
        /** Spin until the accelerator's completion flag is seen. */
        SpinWait,
        /** Sleep until an interrupt is delivered (no spin time). */
        IntrWait,
        /** Full memory fence (drains; modeled as fixed latency). */
        Mfence,
        /** Run a user callback (no simulated time). */
        Call,
    };

    Kind kind;
    std::uint64_t bytes = 0;
    Cycles cycles = 0;
    std::uint32_t command = 0;
    std::function<void()> callback;
};

class DriverCpu : public SimObject, public Clocked
{
  public:
    struct Params
    {
        /** ioctl entry/exit overhead, CPU cycles. */
        Cycles ioctlCycles = 150;
        /** mfence drain cost, CPU cycles. */
        Cycles mfenceCycles = 30;
        /** Latency from the accelerator's flag write to the spinning
         * CPU observing it through coherence. */
        Tick spinNoticeLatency = 100 * tickPerNs;
    };

    DriverCpu(std::string name, EventQueue &eq, ClockDomain domain,
              FlushEngine &flushEngine, IoctlRegistry &registry,
              Params params);

    /** Execute @p program; @p onDone fires after the last op. */
    void run(std::vector<DriverOp> program, std::function<void()> onDone);

    /**
     * The accelerator-side completion signal: writing the shared flag.
     * A pending SpinWait completes spinNoticeLatency later.
     */
    void signalFlag();

    /**
     * Interrupt delivery (called by the InterruptLine handler): a
     * pending IntrWait completes immediately — the delivery latency
     * was already paid on the line — and no spin time is charged.
     */
    void raiseInterrupt();

    /**
     * Route device completions somewhere other than signalFlag()
     * (e.g. into an InterruptLine). Ioctl ops pass @p sink to the
     * registry as the completion callback; unset, completions write
     * the spin flag directly.
     */
    void setCompletionSink(std::function<void()> sink);

    bool idle() const { return !running; }

  private:
    void step();
    /** Raw-dispatch trampoline for the cpu.* events that run step(). */
    static void stepEvent(void *self, std::uint64_t);

    Params params;
    FlushEngine &flushEngine;
    IoctlRegistry &registry;

    std::vector<DriverOp> program;
    std::size_t pc = 0;
    bool running = false;
    bool flagSet = false;
    bool waitingOnFlag = false;
    bool intrPending = false;
    bool waitingOnIntr = false;
    Tick spinStart = 0;
    std::function<void()> onDone;
    std::function<void()> completionSink;

    Stat &statOps;
    Stat &statSpinTicks;
    Stat &statIoctls;
};

} // namespace genie

#endif // GENIE_CPU_DRIVER_CPU_HH
