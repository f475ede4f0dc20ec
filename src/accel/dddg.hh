/**
 * @file
 * The dynamic data dependence graph (DDDG).
 *
 * Vertices are the trace's dynamic ops; edges are true dependences:
 * the register dependences recorded by the trace builder plus memory
 * dependences inferred from trace addresses (a load depends on the
 * most recent earlier store that wrote any byte it reads), exactly the
 * dataflow representation Aladdin schedules (Section III-B).
 */

#ifndef GENIE_ACCEL_DDDG_HH
#define GENIE_ACCEL_DDDG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "accel/trace.hh"

namespace genie
{

class Dddg
{
  public:
    explicit Dddg(const Trace &trace);

    std::size_t numNodes() const { return parentCount.size(); }
    std::size_t numEdges() const { return childIds.size(); }

    /** Consumers of node @p n (register + memory dependents), in
     * increasing order without duplicates. */
    std::span<const NodeId> children(NodeId n) const
    {
        return {childIds.data() + childStart[n],
                childIds.data() + childStart[n + 1]};
    }

    /** Number of producers node @p n waits for. */
    std::uint32_t parents(NodeId n) const { return parentCount[n]; }

    /** Number of memory-dependence edges inferred from addresses. */
    std::size_t numMemoryEdges() const { return memEdges; }

    /**
     * Length of the longest dependence chain, weighted by op latency.
     * This is the resource-unconstrained lower bound on compute
     * cycles; the analytic validation model (Figure 4) uses it.
     */
    std::uint64_t criticalPathCycles(const Trace &trace) const;

  private:
    /** Children in compressed sparse row form: node n's children are
     * childIds[childStart[n] .. childStart[n + 1]). */
    std::vector<std::uint32_t> childStart;
    std::vector<NodeId> childIds;
    std::vector<std::uint32_t> parentCount;
    std::size_t memEdges = 0;
};

} // namespace genie

#endif // GENIE_ACCEL_DDDG_HH
