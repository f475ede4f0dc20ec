#include "dddg.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace genie
{

Dddg::Dddg(const Trace &trace)
{
    const std::size_t n = trace.ops.size();
    parentCount.assign(n, 0);

    // Last store covering each word of each array (invalidNode if
    // none). Word granularity (4 bytes) bounds the table size;
    // accesses are word aligned in all workloads.
    constexpr unsigned wordGran = 4;
    std::vector<std::vector<NodeId>> lastWriter(trace.arrays.size());
    for (std::size_t a = 0; a < trace.arrays.size(); ++a)
        lastWriter[a].assign(divCeil(trace.arrays[a].sizeBytes, wordGran),
                             invalidNode);
    auto writerOf = [&](int arrayId, Addr byteAddr) -> NodeId & {
        auto arr = static_cast<std::size_t>(
            static_cast<std::uint16_t>(arrayId));
        if (arr >= lastWriter.size())
            lastWriter.resize(arr + 1);
        std::vector<NodeId> &words = lastWriter[arr];
        auto w = static_cast<std::size_t>(byteAddr / wordGran);
        if (w >= words.size())
            words.resize(w + 1, invalidNode);
        return words[w];
    };

    // Edges are discovered in increasing consumer order; duplicates
    // (an op depending on one producer through several inputs, e.g.
    // x*x) are dropped when the rows are built.
    std::vector<std::pair<NodeId, NodeId>> edges;
    edges.reserve(2 * n);
    auto addEdge = [&](NodeId from, NodeId to) {
        GENIE_ASSERT(from < to, "DDDG edge must go forward");
        edges.emplace_back(from, to);
    };

    for (NodeId i = 0; i < n; ++i) {
        const TraceOp &op = trace.ops[i];
        for (NodeId d : op.deps)
            addEdge(d, i);

        if (op.op == Opcode::Load) {
            // True (RAW) memory dependences.
            NodeId lastDep = invalidNode;
            for (Addr a = alignDown(op.offset, wordGran);
                 a < op.offset + op.size; a += wordGran) {
                NodeId writer = writerOf(op.arrayId, a);
                if (writer != invalidNode && writer != lastDep) {
                    addEdge(writer, i);
                    ++memEdges;
                    lastDep = writer;
                }
            }
        } else if (op.op == Opcode::Store) {
            for (Addr a = alignDown(op.offset, wordGran);
                 a < op.offset + op.size; a += wordGran) {
                writerOf(op.arrayId, a) = i;
            }
        }
    }

    // Counting sort by producer. It is stable, so each row comes out
    // in increasing consumer order and duplicates sit side by side.
    std::vector<std::uint32_t> fill(n + 1, 0);
    for (const auto &e : edges)
        ++fill[e.first + 1];
    for (std::size_t i = 0; i < n; ++i)
        fill[i + 1] += fill[i];
    std::vector<NodeId> sorted(edges.size());
    for (const auto &e : edges)
        sorted[fill[e.first]++] = e.second;

    childStart.assign(n + 1, 0);
    childIds.reserve(sorted.size());
    std::size_t at = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t end = fill[i]; at < end; ++at) {
            if (childIds.size() == childStart[i] ||
                childIds.back() != sorted[at]) {
                childIds.push_back(sorted[at]);
                ++parentCount[sorted[at]];
            }
        }
        childStart[i + 1] = static_cast<std::uint32_t>(childIds.size());
    }
}

std::uint64_t
Dddg::criticalPathCycles(const Trace &trace) const
{
    std::vector<std::uint64_t> depth(numNodes(), 0);
    std::uint64_t best = 0;
    for (NodeId i = 0; i < numNodes(); ++i) {
        std::uint64_t finish =
            depth[i] + latencyOf(trace.ops[i].op);
        best = std::max(best, finish);
        for (NodeId c : children(i))
            depth[c] = std::max(depth[c], finish);
    }
    return best;
}

} // namespace genie
