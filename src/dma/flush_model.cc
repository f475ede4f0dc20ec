#include "flush_model.hh"

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace genie
{

FlushEngine::FlushEngine(std::string name, EventQueue &eq, Params p)
    : SimObject(std::move(name)), params(p), eventq(eq),
      statLinesFlushed(stats().add("linesFlushed",
                                   "cache lines flushed")),
      statLinesInvalidated(stats().add("linesInvalidated",
                                       "cache lines invalidated"))
{
    if (params.lineBytes == 0)
        fatal("flush engine line size must be non-zero");
    eq.registerStats(stats());
}

Tick
FlushEngine::flushLatency(std::uint64_t bytes) const
{
    return divCeil(bytes, params.lineBytes) * params.flushPerLine;
}

Tick
FlushEngine::invalidateLatency(std::uint64_t bytes) const
{
    return divCeil(bytes, params.lineBytes) * params.invalidatePerLine;
}

std::size_t
FlushEngine::startFlush(std::uint64_t totalBytes,
                        std::uint64_t chunkBytes, ChunkCallback onChunk,
                        DoneCallback onDone)
{
    GENIE_ASSERT(chunkBytes > 0, "flush chunk size must be non-zero");
    std::size_t chunks =
        totalBytes == 0 ? 0 : static_cast<std::size_t>(
                                  divCeil(totalBytes, chunkBytes));
    Tick start = std::max(eventq.curTick(), freeAt);
    if (chunks == 0) {
        eventq.schedule(start, [onDone] {
            if (onDone)
                onDone();
        }, "flush.done");
        return 0;
    }

    active = true;
    Tracer *tracer = tracerFor(eventq, TraceCategory::Flush);
    Tick t = start;
    std::uint64_t remaining = totalBytes;
    for (std::size_t c = 0; c < chunks; ++c) {
        std::uint64_t bytes = std::min<std::uint64_t>(remaining,
                                                      chunkBytes);
        remaining -= bytes;
        std::uint64_t lines = divCeil(bytes, params.lineBytes);
        Tick chunkStart = t;
        t += lines * params.flushPerLine;
        if (tracer) {
            tracer->complete(TraceCategory::Flush, name(), "flush",
                             chunkStart, t);
        }
        statLinesFlushed += static_cast<double>(lines);
        bool last = c + 1 == chunks;
        eventq.schedule(t, [this, c, last, onChunk, onDone] {
            if (onChunk)
                onChunk(c);
            if (last) {
                active = false;
                if (onDone)
                    onDone();
            }
        }, "flush.chunk");
    }
    busy.add(start, t);
    freeAt = t;
    return chunks;
}

void
FlushEngine::startFlushChunks(
    const std::vector<std::uint64_t> &chunkBytes, ChunkCallback onChunk,
    DoneCallback onDone)
{
    Tick start = std::max(eventq.curTick(), freeAt);
    if (chunkBytes.empty()) {
        eventq.schedule(start, [onDone] {
            if (onDone)
                onDone();
        }, "flush.done");
        return;
    }
    active = true;
    Tracer *tracer = tracerFor(eventq, TraceCategory::Flush);
    Tick t = start;
    for (std::size_t c = 0; c < chunkBytes.size(); ++c) {
        std::uint64_t lines = divCeil(chunkBytes[c], params.lineBytes);
        Tick chunkStart = t;
        t += lines * params.flushPerLine;
        if (tracer) {
            tracer->complete(TraceCategory::Flush, name(), "flush",
                             chunkStart, t);
        }
        statLinesFlushed += static_cast<double>(lines);
        bool last = c + 1 == chunkBytes.size();
        eventq.schedule(t, [this, c, last, onChunk, onDone] {
            if (onChunk)
                onChunk(c);
            if (last) {
                active = false;
                if (onDone)
                    onDone();
            }
        }, "flush.chunk");
    }
    busy.add(start, t);
    freeAt = t;
}

void
FlushEngine::startInvalidate(std::uint64_t totalBytes,
                             DoneCallback onDone)
{
    Tick start = std::max(eventq.curTick(), freeAt);
    std::uint64_t lines = divCeil(totalBytes, params.lineBytes);
    statLinesInvalidated += static_cast<double>(lines);
    Tick end = start + lines * params.invalidatePerLine;
    if (Tracer *t = tracerFor(eventq, TraceCategory::Flush)) {
        t->complete(TraceCategory::Flush, name(), "invalidate", start,
                    end);
    }
    busy.add(start, end);
    freeAt = end;
    active = true;
    eventq.schedule(end, [this, onDone] {
        active = false;
        if (onDone)
            onDone();
    }, "flush.invalidate");
}

} // namespace genie
