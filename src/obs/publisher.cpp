#include "obs/publisher.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/lifecycle.hpp"
#include "obs/metrics.hpp"

namespace nvbit::obs {

namespace {

constexpr const char kUnixPrefix[] = "unix:";

/** Socket-mode poll granularity: bounds how long stop() can wait for
 *  the thread to notice the flag, independent of the scrape period. */
constexpr int kSocketPollMs = 50;

} // namespace

TelemetryPublisher &
TelemetryPublisher::instance()
{
    static TelemetryPublisher *pub = new TelemetryPublisher();
    return *pub;
}

void
TelemetryPublisher::setCollector(Collector c)
{
    std::lock_guard<std::mutex> lk(mu_);
    collector_ = std::move(c);
}

std::string
TelemetryPublisher::scrapeOnce(uint64_t *epoch_out)
{
    Collector c;
    {
        std::lock_guard<std::mutex> lk(mu_);
        c = collector_;
    }
    if (c)
        c();
    std::string payload =
        MetricsRegistry::instance().toPrometheus(epoch_out);
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++scrapes_;
    }
    return payload;
}

uint64_t
TelemetryPublisher::scrapeCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return scrapes_;
}

bool
TelemetryPublisher::running() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return running_;
}

bool
TelemetryPublisher::start(std::string path, uint64_t period_ms)
{
    std::unique_lock<std::mutex> lk(mu_);
    if (running_ || path.empty())
        return running_;
    socket_mode_ =
        path.rfind(kUnixPrefix, 0) == 0;
    path_ = socket_mode_ ? path.substr(sizeof(kUnixPrefix) - 1) : path;
    period_ms_ = period_ms == 0 ? 1 : period_ms;
    last_epoch_ = ~0ull;
    if (socket_mode_) {
        sockaddr_un addr{};
        if (path_.size() >= sizeof(addr.sun_path))
            return false;
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listen_fd_ < 0)
            return false;
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
        ::unlink(path_.c_str());
        if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(listen_fd_, 8) != 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
    } else {
        // Fail fast on an unwritable path instead of silently spinning.
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (!f)
            return false;
        std::fclose(f);
    }
    stop_requested_ = false;
    running_ = true;
    thread_ = std::thread([this] {
        if (socket_mode_)
            runSocket();
        else
            runFile();
    });
    return true;
}

bool
TelemetryPublisher::startFromEnv()
{
    const char *path = std::getenv("NVBIT_SIM_TELEMETRY");
    if (path == nullptr || path[0] == '\0')
        return false;
    uint64_t period = 100;
    if (const char *p = std::getenv("NVBIT_SIM_TELEMETRY_PERIOD_MS")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(p, &end, 10);
        if (end != p && v > 0)
            period = v;
    }
    return start(path, period);
}

void
TelemetryPublisher::runFile()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_requested_) {
        cv_.wait_for(lk, std::chrono::milliseconds(period_ms_),
                     [this] { return stop_requested_; });
        if (stop_requested_)
            break;
        const uint64_t last = last_epoch_;
        const std::string path = path_;
        lk.unlock();
        // The collector runs every tick, even when the registry looks
        // quiescent: windowed SLO gauges must decay as ring buckets
        // age out and breach edges must fire/clear on an otherwise
        // idle registry.  Collector writes that change nothing leave
        // the epoch alone (setGauge skips no-op writes), so an idle
        // registry still skips the rewrite below.  The epoch is the
        // one this payload was serialised under — taken inside the
        // registry lock, so mutations landing after the snapshot
        // retrigger the next tick instead of being lost until some
        // later write.
        uint64_t observed = 0;
        std::string payload = scrapeOnce(&observed);
        bool wrote = false;
        if (observed != last)
            wrote = writeArtifact(path, payload);
        lk.lock();
        if (wrote)
            last_epoch_ = observed;
    }
}

void
TelemetryPublisher::runSocket()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stop_requested_)
                return;
        }
        pollfd pfd{};
        pfd.fd = listen_fd_;
        pfd.events = POLLIN;
        int n = ::poll(&pfd, 1, kSocketPollMs);
        if (n <= 0)
            continue;
        int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0)
            continue;
        std::string payload = scrapeOnce();
        size_t off = 0;
        while (off < payload.size()) {
            // MSG_NOSIGNAL: a scraper that hangs up mid-payload (curl
            // timeout, killed nvbit_run --watch) must yield EPIPE here,
            // not a SIGPIPE that kills the workload — the telemetry
            // plane is passive, an external observer cannot take the
            // process down.
            ssize_t w = ::send(conn, payload.data() + off,
                               payload.size() - off, MSG_NOSIGNAL);
            if (w < 0 && errno == EINTR)
                continue;
            if (w <= 0)
                break; // scraper went away; drop the rest of the scrape
            off += static_cast<size_t>(w);
        }
        ::close(conn);
    }
}

void
TelemetryPublisher::snapshot()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_ || socket_mode_)
            return;
        path = path_;
    }
    writeArtifact(path, scrapeOnce());
}

void
TelemetryPublisher::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_)
            return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    bool was_socket;
    std::string path;
    {
        std::lock_guard<std::mutex> lk(mu_);
        was_socket = socket_mode_;
        path = path_;
        if (listen_fd_ >= 0) {
            ::close(listen_fd_);
            listen_fd_ = -1;
        }
        running_ = false;
    }
    if (was_socket)
        ::unlink(path.c_str());
    else // leave a final snapshot so the file equals the end state
        writeArtifact(path, scrapeOnce());
    std::lock_guard<std::mutex> lk(mu_);
    path_.clear();
    collector_ = nullptr;
}

} // namespace nvbit::obs
