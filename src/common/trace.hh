/**
 * @file
 * Zero-overhead-when-off event tracer emitting Chrome trace_event
 * JSON (loadable in Perfetto / chrome://tracing).
 *
 * The tracer is a process-wide capture facility for *one* simulated
 * system at a time: components record duration events (a refresh
 * window, a DMA burst, a CP transaction), instant events (a REF edge,
 * a detector false-fire, a bus conflict) and counter series (queue
 * occupancy, bytes per window) onto named tracks. Every record call
 * is guarded by a single global-bool test, so with tracing disabled
 * the instrumentation costs one predicted-not-taken branch — the
 * simulated behaviour is identical either way (the tracer only
 * observes; determinism_test asserts byte-identical stats with
 * tracing on vs. off).
 *
 * Time: simulation ticks are picoseconds; the Chrome format's `ts` /
 * `dur` fields are microseconds, so values are emitted as fractional
 * microseconds with picosecond resolution.
 *
 * Capture is bounded (kDefaultMaxEvents unless start() is given a
 * cap); events past the cap are counted and the drop total is
 * reported at stop() so a truncated trace is never mistaken for a
 * complete one. Record calls are serialized under one mutex and
 * stop() canonicalizes track numbering and record order, so a
 * deterministic simulation writes a byte-identical trace file for
 * every --threads >= 1. The capture is still per-process:
 * enable it for one simulated system at a time (the parallel sweep
 * runner never enables it).
 */

#ifndef NVDIMMC_COMMON_TRACE_HH
#define NVDIMMC_COMMON_TRACE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace nvdimmc::trace
{

namespace detail
{

extern bool gEnabled;

void recordDuration(const char* track, const char* name, Tick start,
                    Tick end);
void recordInstant(const char* track, const char* name, Tick at);
void recordCounter(const char* track, const char* series, Tick at,
                   double value);
void recordAsync(const char* track, const char* name, Tick at,
                 std::uint64_t id, bool begin);
void recordFlow(const char* track, const char* name, Tick at,
                std::uint64_t id, int step);

} // namespace detail

/** Default events-retained cap; later records are dropped+counted.
 *  Override per capture via start(path, maxEvents). */
constexpr std::uint64_t kDefaultMaxEvents = 1u << 22;

/** Is a capture active? The one branch paid on every record call. */
inline bool enabled() { return detail::gEnabled; }

/**
 * Begin capturing; events buffer in memory and are written to
 * @p path as Chrome trace JSON by stop(). Starting while already
 * active restarts the capture (prior buffered events are discarded).
 * @param maxEvents capture cap; records past it are dropped+counted
 *        (long multi-channel runs overflow the default).
 */
void start(std::string path,
           std::uint64_t maxEvents = kDefaultMaxEvents);

/**
 * Finalize: write the JSON file and disable capture.
 * @return true if the file was written successfully (false if no
 *         capture was active or the file could not be written).
 */
bool stop();

/** Events currently buffered (for tests). */
std::uint64_t eventCount();

/** Events dropped because the capture hit its cap. */
std::uint64_t droppedCount();

/** The active capture's event cap (0 if no capture). */
std::uint64_t maxEvents();

/** A completed span [start, end) on @p track. */
inline void
duration(const char* track, const char* name, Tick start, Tick end)
{
    if (enabled())
        detail::recordDuration(track, name, start, end);
}

/** A point event on @p track at tick @p at. */
inline void
instant(const char* track, const char* name, Tick at)
{
    if (enabled())
        detail::recordInstant(track, name, at);
}

/** One sample of counter series "track.series" at tick @p at. */
inline void
counter(const char* track, const char* series, Tick at, double value)
{
    if (enabled())
        detail::recordCounter(track, series, at, value);
}

/** @name Async (overlapping) events, paired by @p id.
 * Rendered by Perfetto as nestable async lanes (ph "b"/"e", category
 * "span"): unlike duration events they may overlap on one track, so
 * concurrent request spans each get their own lane. */
/** @{ */
inline void
asyncBegin(const char* track, const char* name, Tick at,
           std::uint64_t id)
{
    if (enabled())
        detail::recordAsync(track, name, at, id, true);
}

inline void
asyncEnd(const char* track, const char* name, Tick at,
         std::uint64_t id)
{
    if (enabled())
        detail::recordAsync(track, name, at, id, false);
}
/** @} */

/** @name Flow events (ph "s"/"t"/"f"), paired by @p id.
 * A flow binds to the enclosing slice on its track at @p at and draws
 * Perfetto arrows start -> steps -> end, stitching one request's
 * slices across tracks into a single causal lane. */
/** @{ */
inline void
flowStart(const char* track, const char* name, Tick at,
          std::uint64_t id)
{
    if (enabled())
        detail::recordFlow(track, name, at, id, 0);
}

inline void
flowStep(const char* track, const char* name, Tick at,
         std::uint64_t id)
{
    if (enabled())
        detail::recordFlow(track, name, at, id, 1);
}

inline void
flowEnd(const char* track, const char* name, Tick at,
        std::uint64_t id)
{
    if (enabled())
        detail::recordFlow(track, name, at, id, 2);
}
/** @} */

} // namespace nvdimmc::trace

#endif // NVDIMMC_COMMON_TRACE_HH
