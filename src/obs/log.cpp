#include "obs/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/timer.hpp"
#include "obs/lifecycle.hpp"

namespace nvbit::obs {

namespace {

LogLevel
parseLevel(const char *s)
{
    if (s == nullptr)
        return LogLevel::Info;
    if (std::strcmp(s, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(s, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(s, "error") == 0)
        return LogLevel::Error;
    return LogLevel::Info;
}

} // namespace

std::string_view
logLevelName(LogLevel lv)
{
    switch (lv) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "info";
}

StructuredLog &
StructuredLog::instance()
{
    static StructuredLog *log = new StructuredLog();
    return *log;
}

StructuredLog::StructuredLog()
{
    const char *path = std::getenv("NVBIT_SIM_LOG");
    if (path != nullptr && path[0] != '\0')
        enableToFile(path, parseLevel(std::getenv("NVBIT_SIM_LOG_LEVEL")));
}

void
StructuredLog::enableToFile(std::string path, LogLevel min)
{
    std::lock_guard<std::mutex> lk(mu_);
    path_ = std::move(path);
    epoch_ns_ = nowNs();
    ring_.clear();
    dropped_ = 0;
    min_level_.store(static_cast<int>(min), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
StructuredLog::log(LogLevel lv, std::string_view component,
                   std::string_view msg, std::vector<LogField> fields)
{
    if (!enabled(lv))
        return;
    Record rec;
    rec.lv = lv;
    rec.component.assign(component);
    rec.msg.assign(msg);
    rec.fields = std::move(fields);
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return; // raced with disableAndFlush
    // Timestamp under mu_: epoch_ns_ is written by enableToFile()
    // under the same lock, and the relaxed enabled_ fast path above
    // establishes no happens-before with it.
    rec.ts_us = (nowNs() - epoch_ns_) / 1000;
    ring_.push_back(std::move(rec));
    while (ring_.size() > kRingCap) {
        ring_.pop_front();
        ++dropped_;
    }
}

std::string
StructuredLog::jsonlLocked() const
{
    std::ostringstream os;
    for (const Record &r : ring_) {
        os << "{\"ts_us\": " << r.ts_us << ", \"level\": \""
           << logLevelName(r.lv) << "\", \"component\": "
           << jsonQuote(r.component) << ", \"msg\": " << jsonQuote(r.msg);
        for (const LogField &fl : r.fields)
            os << ", " << jsonQuote(fl.first) << ": " << jsonQuote(fl.second);
        os << "}\n";
    }
    if (dropped_ != 0)
        os << "{\"level\": \"warn\", \"component\": \"log\", "
              "\"msg\": \"ring overflow\", \"dropped\": "
           << dropped_ << "}\n";
    return os.str();
}

std::string
StructuredLog::flush()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    writeArtifact(path_, jsonlLocked());
    return path_;
}

std::string
StructuredLog::disableAndFlush()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!enabled_.load(std::memory_order_relaxed))
        return "";
    enabled_.store(false, std::memory_order_relaxed);
    std::string path = path_;
    writeArtifact(path_, jsonlLocked());
    ring_.clear();
    dropped_ = 0;
    path_.clear();
    return path;
}

size_t
StructuredLog::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.size();
}

uint64_t
StructuredLog::dropped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return dropped_;
}

} // namespace nvbit::obs
