#include "obs/lifecycle.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/publisher.hpp"
#include "obs/sanitizer.hpp"
#include "obs/trace.hpp"

namespace nvbit::obs {

namespace {

// Namespace-scope and constant-initialised: both are usable from the
// exit handler whatever order static destructors ran in.
std::mutex g_artifact_mu;
std::atomic<void (*)()> g_exit_teardown{nullptr};

/** Write a snapshot sink's JSON to @p path (its variable's value at
 *  flush time); serialise nothing when the variable is unset. */
template <class Json>
void
writeSnapshot(const char *path, Json &&json)
{
    if (path == nullptr || path[0] == '\0')
        return;
    if (!writeArtifact(path, json()))
        std::fprintf(stderr, "nvbit-sim: cannot write %s\n", path);
}

void
onProcessExit()
{
    if (void (*teardown)() = g_exit_teardown.load())
        teardown();
    flushAll(FlushReason::Exit);
}

} // namespace

std::string
jsonQuote(std::string_view s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

bool
writeArtifact(const std::string &path, std::string_view bytes)
{
    std::lock_guard<std::mutex> lk(g_artifact_mu);
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0)
        return true;
    std::remove(tmp.c_str());
    return false;
}

void
flushAll(FlushReason why)
{
    // The publisher goes first: its collector samples driver state
    // that a reset is about to tear down.  A fault leaves it running
    // (other tenants continue) and only writes a snapshot now.
    TelemetryPublisher &pub = TelemetryPublisher::instance();
    if (why == FlushReason::Fault)
        pub.snapshot();
    else
        pub.stop();
    writeSnapshot(std::getenv("NVBIT_SIM_METRICS"),
                  [] { return MetricsRegistry::instance().toJson(); });
    writeSnapshot(std::getenv("NVBIT_SIM_PROFILE"),
                  [] { return Profiler::instance().toJson(); });
    writeSnapshot(std::getenv("NVBIT_SIM_SANCHECK_REPORT"),
                  [] { return Sanitizer::instance().toJson(); });
    // Trace and log keep collecting after a fault or a reset (later
    // phases may still emit); only process exit disables them.
    if (why == FlushReason::Exit) {
        Tracer::instance().disableAndFlush();
        StructuredLog::instance().disableAndFlush();
    } else {
        Tracer::instance().flushSnapshot();
        StructuredLog::instance().flush();
    }
}

void
armExitFlush(void (*teardown)())
{
    static const bool armed = std::atexit(onProcessExit) == 0;
    (void)armed;
    if (teardown != nullptr)
        g_exit_teardown.store(teardown);
}

} // namespace nvbit::obs
