#include "scratchpad.hh"

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

Scratchpad::Scratchpad(std::string name, EventQueue &eq,
                       ClockDomain domain)
    : SimObject(std::move(name)), Clocked(eq, domain),
      statReads(stats().add("reads", "scratchpad word reads")),
      statWrites(stats().add("writes", "scratchpad word writes")),
      statConflicts(stats().add("conflicts",
                                "accesses retried due to bank conflicts"))
{
    eq.registerStats(stats());
}

int
Scratchpad::addArray(const ArrayConfig &cfg)
{
    if (cfg.partitions == 0 || cfg.portsPerPartition == 0)
        fatal("scratchpad array '%s' needs >=1 partition and port",
              cfg.name.c_str());
    ArrayState st;
    st.cfg = cfg;
    st.used.assign(cfg.partitions, 0);
    arrays.push_back(std::move(st));
    return static_cast<int>(arrays.size() - 1);
}

bool
Scratchpad::tryAccess(int arrayId, Addr offset, bool isWrite)
{
    return tryAccessBank(arrayId, bankOf(arrayId, offset), isWrite);
}

unsigned
Scratchpad::bankOf(int arrayId, Addr offset) const
{
    const ArrayConfig &cfg = arrayConfig(arrayId);
    return static_cast<unsigned>((offset / cfg.wordBytes) %
                                 cfg.partitions);
}

bool
Scratchpad::tryAccessBank(int arrayId, unsigned bank, bool isWrite)
{
    GENIE_ASSERT(arrayId >= 0 &&
                     static_cast<std::size_t>(arrayId) < arrays.size(),
                 "bad scratchpad array id %d", arrayId);
    ArrayState &st = arrays[static_cast<std::size_t>(arrayId)];
    GENIE_ASSERT(bank < st.used.size(), "bad scratchpad bank %u", bank);

    if (st.stampTick != eventq.curTick()) {
        st.stampTick = eventq.curTick();
        Cycles now = curCycle();
        if (st.stamp != now) {
            st.stamp = now;
            std::fill(st.used.begin(), st.used.end(), 0);
        }
    }

    if (st.used[bank] >= st.cfg.portsPerPartition) {
        ++statConflicts;
        if (Tracer *t = tracerFor(eventq, TraceCategory::Spad))
            t->instant(TraceCategory::Spad, name(), "conflict");
        return false;
    }
    ++st.used[bank];
    if (isWrite) {
        ++statWrites;
        ++st.writes;
    } else {
        ++statReads;
        ++st.reads;
    }
    return true;
}

bool
Scratchpad::bankFree(int arrayId, unsigned bank) const
{
    const ArrayState &st = arrays[static_cast<std::size_t>(arrayId)];
    // Counters from an earlier cycle are stale: every port is free.
    if (st.stampTick != eventq.curTick() && st.stamp != curCycle())
        return true;
    return st.used[bank] < st.cfg.portsPerPartition;
}

void
Scratchpad::addConflicts(std::uint64_t n)
{
    statConflicts += static_cast<double>(n);
    if (Tracer *t = tracerFor(eventq, TraceCategory::Spad)) {
        for (std::uint64_t i = 0; i < n; ++i)
            t->instant(TraceCategory::Spad, name(), "conflict");
    }
}

std::uint64_t
Scratchpad::arrayReads(int arrayId) const
{
    return arrays[static_cast<std::size_t>(arrayId)].reads;
}

std::uint64_t
Scratchpad::arrayWrites(int arrayId) const
{
    return arrays[static_cast<std::size_t>(arrayId)].writes;
}

const Scratchpad::ArrayConfig &
Scratchpad::arrayConfig(int arrayId) const
{
    GENIE_ASSERT(arrayId >= 0 &&
                     static_cast<std::size_t>(arrayId) < arrays.size(),
                 "bad scratchpad array id %d", arrayId);
    return arrays[static_cast<std::size_t>(arrayId)].cfg;
}

std::uint64_t
Scratchpad::totalBytes() const
{
    std::uint64_t total = 0;
    for (const auto &a : arrays)
        total += a.cfg.sizeBytes;
    return total;
}

unsigned
Scratchpad::peakAccessesPerCycle() const
{
    unsigned total = 0;
    for (const auto &a : arrays)
        total += a.cfg.partitions * a.cfg.portsPerPartition;
    return total;
}

} // namespace genie
