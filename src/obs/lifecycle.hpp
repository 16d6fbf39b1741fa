/**
 * @file
 * The one teardown sequence of the observability sinks, and the one
 * artifact writer they all use (docs/observability.md "Lifecycle").
 *
 * flushAll() writes every configured artifact in a fixed order: the
 * telemetry publisher's final snapshot, then metrics, profile and
 * sancheck (paths re-read from the environment), then the trace and
 * the log.  Its three callers are the driver's fault path,
 * resetDriver, and the one process-exit handler, which first runs the
 * driver's teardown (stop and join the stream service).
 */
#ifndef NVBIT_OBS_LIFECYCLE_HPP
#define NVBIT_OBS_LIFECYCLE_HPP

#include <string>
#include <string_view>

namespace nvbit::obs {

/** Which of the three callers is flushing.  A fault leaves the
 *  publisher, trace and log running; only exit disables trace/log. */
enum class FlushReason { Fault, Reset, Exit };

/** Write every configured artifact, in the fixed order above. */
void flushAll(FlushReason why);

/**
 * Register the process-exit handler (once; later calls only update
 * @p teardown).  @p teardown, when non-null, runs before the exit
 * flush; the driver passes its stream-service stop.
 */
void armExitFlush(void (*teardown)() = nullptr);

/**
 * Replace @p path with @p bytes via `<path>.tmp` and a rename, so a
 * reader never sees a torn file.  All writers share one mutex, so two
 * tenants faulting at once never interleave.  False on I/O failure.
 */
bool writeArtifact(const std::string &path, std::string_view bytes);

/** @p s as a quoted, escaped JSON string literal. */
std::string jsonQuote(std::string_view s);

} // namespace nvbit::obs

#endif // NVBIT_OBS_LIFECYCLE_HPP
