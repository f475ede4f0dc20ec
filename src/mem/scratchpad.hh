/**
 * @file
 * Partitioned accelerator scratchpads.
 *
 * Each workload array mapped to local memory becomes one scratchpad
 * that can be partitioned into smaller banks (cyclic partitioning on
 * the word index) to increase memory bandwidth to the datapath lanes —
 * the paper's "scratchpad partitioning" design parameter. Every
 * partition accepts a limited number of accesses per accelerator cycle
 * (its ports); bank conflicts are resolved by the datapath retrying in
 * the next cycle.
 */

#ifndef GENIE_MEM_SCRATCHPAD_HH
#define GENIE_MEM_SCRATCHPAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/clocked.hh"
#include "sim/sim_object.hh"

namespace genie
{

class Scratchpad : public SimObject, public Clocked
{
  public:
    struct ArrayConfig
    {
        std::string name;
        std::uint64_t sizeBytes = 0;
        unsigned wordBytes = 4;
        unsigned partitions = 1;
        /** Read/write ports per partition per cycle. */
        unsigned portsPerPartition = 1;
    };

    Scratchpad(std::string name, EventQueue &eq, ClockDomain domain);

    /** Register an array; @return its array id. */
    int addArray(const ArrayConfig &cfg);

    /**
     * Try to perform an access in the current cycle.
     * @return true if a partition port was granted (data available
     * next cycle); false on a bank conflict.
     */
    bool tryAccess(int arrayId, Addr offset, bool isWrite);

    /** The partition that holds the word at @p offset. */
    unsigned bankOf(int arrayId, Addr offset) const;

    /** tryAccess() on a partition given by bankOf(). */
    bool tryAccessBank(int arrayId, unsigned bank, bool isWrite);

    /** Whether partition @p bank of @p arrayId has a port left this
     * cycle, i.e. tryAccessBank() would grant it. */
    bool bankFree(int arrayId, unsigned bank) const;

    /**
     * Count @p n failed tryAccessBank() calls at once: the caller
     * found their partitions without a free port (bankFree()). Each
     * records its `conflict` instant, so a caller that lets no other
     * record fall between them keeps the trace of @p n calls.
     */
    void addConflicts(std::uint64_t n);

    const ArrayConfig &arrayConfig(int arrayId) const;
    std::size_t numArrays() const { return arrays.size(); }

    /** Total bytes across all arrays (the SRAM sizing input). */
    std::uint64_t totalBytes() const;

    /** Peak words per cycle across all partitions (bandwidth input). */
    unsigned peakAccessesPerCycle() const;

    double reads() const { return statReads.value(); }
    double writes() const { return statWrites.value(); }
    double conflicts() const { return statConflicts.value(); }

    /** Per-array access counts (the power model needs per-bank sizes). */
    std::uint64_t arrayReads(int arrayId) const;
    std::uint64_t arrayWrites(int arrayId) const;

  private:
    struct ArrayState
    {
        ArrayConfig cfg;
        /** Per-partition usage counters, reset each cycle. */
        std::vector<unsigned> used;
        Cycles stamp = 0;
        /** Tick of the last access: accesses on one clock edge skip
         * the cycle computation. */
        Tick stampTick = maxTick;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    std::vector<ArrayState> arrays;

    Stat &statReads;
    Stat &statWrites;
    Stat &statConflicts;
};

} // namespace genie

#endif // GENIE_MEM_SCRATCHPAD_HH
