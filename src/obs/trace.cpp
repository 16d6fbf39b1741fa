#include "obs/trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/timer.hpp"
#include "obs/lifecycle.hpp"

namespace nvbit::obs {

TraceArg
argU64(std::string_view key, uint64_t value)
{
    return {std::string(key), std::to_string(value)};
}

TraceArg
argStr(std::string_view key, std::string_view value)
{
    return {std::string(key), jsonQuote(value)};
}

Tracer &
Tracer::instance()
{
    static Tracer *tracer = new Tracer();
    return *tracer;
}

Tracer::Tracer()
{
    if (const char *path = std::getenv("NVBIT_SIM_TRACE"))
        enableToFile(path);
}

void
Tracer::enableToFile(std::string path)
{
    std::lock_guard<std::mutex> lk(mu_);
    path_ = std::move(path);
    epoch_ns_ = nowNs();
    events_.clear();
    named_threads_.clear();
    named_processes_.clear();
    enabled_.store(true, std::memory_order_relaxed);
    emitProcessNames();
}

uint64_t
Tracer::nowUs() const
{
    if (!enabled())
        return 0;
    return (nowNs() - epoch_ns_) / 1000;
}

void
Tracer::emitProcessNames()
{
    // Called with mu_ held, right after enabling.
    auto meta = [&](int pid, int tid, const char *what,
                    const char *name) {
        Event ev{'M', pid, tid, 0, 0, what, "__metadata", ""};
        ev.args_json = "{\"name\": " + jsonQuote(name) + "}";
        events_.push_back(std::move(ev));
    };
    meta(kHostPid, 0, "process_name", "host");
    meta(kDevicePid, 0, "process_name", "gpu");
    meta(kHostPid, kHostApiTid, "thread_name", "driver-api");
    meta(kHostPid, kHostJitTid, "thread_name", "nvbit-jit");
    named_threads_.insert({kHostPid, kHostApiTid});
    named_threads_.insert({kHostPid, kHostJitTid});
    named_processes_.insert(kHostPid);
    named_processes_.insert(kDevicePid);
}

void
Tracer::nameProcess(int pid, std::string_view name)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (!named_processes_.insert(pid).second)
        return;
    Event ev{'M', pid, 0, 0, 0, "process_name", "__metadata", ""};
    ev.args_json = "{\"name\": " + jsonQuote(name) + "}";
    events_.push_back(std::move(ev));
}

void
Tracer::nameThread(int pid, int tid, std::string_view name)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    if (!named_threads_.insert({pid, tid}).second)
        return;
    Event ev{'M', pid, tid, 0, 0, "thread_name", "__metadata", ""};
    ev.args_json = "{\"name\": " + jsonQuote(name) + "}";
    events_.push_back(std::move(ev));
}

void
Tracer::push(Event ev)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return; // raced with disableAndFlush
    events_.push_back(std::move(ev));
}

void
Tracer::complete(int pid, int tid, std::string_view name,
                 std::string_view cat, uint64_t ts_us, uint64_t dur_us,
                 std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    Event ev{'X', pid, tid, ts_us, dur_us,
             std::string(name), std::string(cat), ""};
    if (!args.empty()) {
        std::ostringstream os;
        os << "{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                os << ", ";
            os << jsonQuote(args[i].first) << ": " << args[i].second;
        }
        os << "}";
        ev.args_json = os.str();
    }
    push(std::move(ev));
}

void
Tracer::instant(int pid, int tid, std::string_view name,
                std::string_view cat, uint64_t ts_us,
                std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    Event ev{'i', pid, tid, ts_us, 0,
             std::string(name), std::string(cat), ""};
    if (!args.empty()) {
        std::ostringstream os;
        os << "{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                os << ", ";
            os << jsonQuote(args[i].first) << ": " << args[i].second;
        }
        os << "}";
        ev.args_json = os.str();
    }
    push(std::move(ev));
}

void
Tracer::flowEvent(char ph, int pid, int tid, std::string_view name,
                  std::string_view cat, uint64_t ts_us, uint64_t id,
                  std::vector<TraceArg> args)
{
    if (!enabled() || id == 0)
        return;
    Event ev{ph, pid, tid, ts_us, 0,
             std::string(name), std::string(cat), "", id};
    if (!args.empty()) {
        std::ostringstream os;
        os << "{";
        for (size_t i = 0; i < args.size(); ++i) {
            if (i)
                os << ", ";
            os << jsonQuote(args[i].first) << ": " << args[i].second;
        }
        os << "}";
        ev.args_json = os.str();
    }
    push(std::move(ev));
}

void
Tracer::flowBegin(int pid, int tid, std::string_view name,
                  std::string_view cat, uint64_t ts_us, uint64_t id,
                  std::vector<TraceArg> args)
{
    flowEvent('s', pid, tid, name, cat, ts_us, id, std::move(args));
}

void
Tracer::flowStep(int pid, int tid, std::string_view name,
                 std::string_view cat, uint64_t ts_us, uint64_t id,
                 std::vector<TraceArg> args)
{
    flowEvent('t', pid, tid, name, cat, ts_us, id, std::move(args));
}

void
Tracer::flowEnd(int pid, int tid, std::string_view name,
                std::string_view cat, uint64_t ts_us, uint64_t id,
                std::vector<TraceArg> args)
{
    flowEvent('f', pid, tid, name, cat, ts_us, id, std::move(args));
}

std::string
Tracer::encode(const Event &ev)
{
    std::ostringstream os;
    os << "{\"ph\": \"" << ev.ph << "\", \"pid\": " << ev.pid
       << ", \"tid\": " << ev.tid << ", \"ts\": " << ev.ts;
    if (ev.ph == 'X')
        os << ", \"dur\": " << ev.dur;
    if (ev.ph == 'i')
        os << ", \"s\": \"g\"";
    if (ev.ph == 's' || ev.ph == 't' || ev.ph == 'f') {
        os << ", \"id\": " << ev.flow_id;
        if (ev.ph == 'f')
            os << ", \"bp\": \"e\"";
    }
    os << ", \"name\": " << jsonQuote(ev.name)
       << ", \"cat\": " << jsonQuote(ev.cat);
    if (!ev.args_json.empty())
        os << ", \"args\": " << ev.args_json;
    os << "}";
    return os.str();
}

std::string
Tracer::jsonLocked() const
{
    std::string out = "{\"traceEvents\": [";
    for (size_t i = 0; i < events_.size(); ++i) {
        out += i ? ",\n" : "\n";
        out += encode(events_[i]);
    }
    out += "\n]}\n";
    return out;
}

std::string
Tracer::disableAndFlush()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    enabled_.store(false, std::memory_order_relaxed);
    std::string path = path_;
    writeArtifact(path_, jsonLocked());
    events_.clear();
    named_threads_.clear();
    named_processes_.clear();
    path_.clear();
    return path;
}

std::string
Tracer::flushSnapshot()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    writeArtifact(path_, jsonLocked());
    return path_;
}

} // namespace nvbit::obs
