#include "obs/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/counters.hpp"
#include "obs/lifecycle.hpp"

namespace nvbit::obs {

namespace {

/** Emit the non-zero entries of an event set as a JSON object. */
void
appendEventsJson(std::ostringstream &os, const EventSet &ev)
{
    os << '{';
    bool first = true;
    for (size_t i = 0; i < kNumHwEvents; ++i) {
        if (ev.counts[i] == 0)
            continue;
        os << (first ? "" : ", ");
        first = false;
        os << jsonQuote(eventName(static_cast<HwEvent>(i))) << ": "
           << ev.counts[i];
    }
    os << '}';
}

/** Deterministic double formatting for derived-metric values: the
 *  inputs are engine-invariant integers, so the IEEE result — and its
 *  shortest %.6g rendering — is too. */
void
appendMetricValue(std::ostringstream &os, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    os << buf;
}

} // namespace

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry *reg = new MetricsRegistry();
    return *reg;
}

MetricsRegistry::MetricsRegistry()
{
    // Every program that runs a kernel publishes here, so the first
    // touch arms the process-exit flush of every sink (obs/lifecycle).
    armExitFlush();
    applyHistoryCapFromEnv();
}

// --- Mutation batches (Txn) + single-shot mutators ------------------------

MetricsRegistry::Txn::Txn(MetricsRegistry &reg) : reg_(reg), lk_(reg.mu_)
{
    // The epoch bracket opens lazily, on the batch's first real
    // change: a Txn whose writes are all no-ops (the telemetry
    // collector republishing unchanged gauges) leaves the epoch alone.
}

MetricsRegistry::Txn::~Txn()
{
    reg_.epochCloseLocked();
}

void
MetricsRegistry::Txn::add(std::string_view name, uint64_t delta,
                          Stability st)
{
    reg_.addLocked(name, delta, st);
}

void
MetricsRegistry::Txn::noteMax(std::string_view name, uint64_t value,
                              Stability st)
{
    reg_.noteMaxLocked(name, value, st);
}

void
MetricsRegistry::Txn::setGauge(std::string_view name, uint64_t value,
                               Stability st)
{
    reg_.setGaugeLocked(name, value, st);
}

void
MetricsRegistry::Txn::observe(std::string_view name, uint64_t value)
{
    reg_.observeLocked(name, value);
}

void
MetricsRegistry::Txn::defineHistogram(std::string_view name,
                                      std::vector<uint64_t> bounds,
                                      Stability st)
{
    reg_.defineHistogramLocked(name, std::move(bounds), st);
}

uint64_t
MetricsRegistry::Txn::recordLaunch(LaunchRecord rec)
{
    return reg_.recordLaunchLocked(std::move(rec));
}

void
MetricsRegistry::addLocked(std::string_view name, uint64_t delta,
                           Stability st)
{
    auto it = counters_.find(name);
    if (it != counters_.end() && delta == 0)
        return;
    touchLocked();
    if (it == counters_.end())
        it = counters_.emplace(std::string(name), Counter{0, st}).first;
    it->second.value += delta;
}

void
MetricsRegistry::noteMaxLocked(std::string_view name, uint64_t value,
                               Stability st)
{
    auto it = counters_.find(name);
    if (it != counters_.end() && value <= it->second.value)
        return;
    touchLocked();
    if (it == counters_.end()) {
        counters_.emplace(std::string(name), Counter{value, st});
        return;
    }
    it->second.value = value;
}

void
MetricsRegistry::setGaugeLocked(std::string_view name, uint64_t value,
                                Stability st)
{
    auto it = counters_.find(name);
    if (it != counters_.end() && it->second.is_gauge &&
        it->second.value == value)
        return;
    touchLocked();
    if (it == counters_.end())
        it = counters_.emplace(std::string(name), Counter{0, st}).first;
    it->second.value = value;
    it->second.is_gauge = true;
}

void
MetricsRegistry::add(std::string_view name, uint64_t delta, Stability st)
{
    std::lock_guard<std::mutex> lk(mu_);
    addLocked(name, delta, st);
    epochCloseLocked();
}

void
MetricsRegistry::noteMax(std::string_view name, uint64_t value,
                         Stability st)
{
    std::lock_guard<std::mutex> lk(mu_);
    noteMaxLocked(name, value, st);
    epochCloseLocked();
}

void
MetricsRegistry::setGauge(std::string_view name, uint64_t value,
                          Stability st)
{
    std::lock_guard<std::mutex> lk(mu_);
    setGaugeLocked(name, value, st);
    epochCloseLocked();
}

uint64_t
MetricsRegistry::value(std::string_view name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
}

void
MetricsRegistry::defineHistogramLocked(std::string_view name,
                                       std::vector<uint64_t> bounds,
                                       Stability st)
{
    if (histograms_.find(name) != histograms_.end())
        return;
    touchLocked();
    Histogram h;
    h.counts.assign(bounds.size() + 1, 0);
    h.bounds = std::move(bounds);
    h.stability = st;
    histograms_.emplace(std::string(name), std::move(h));
}

void
MetricsRegistry::defineHistogram(std::string_view name,
                                 std::vector<uint64_t> bounds,
                                 Stability st)
{
    std::lock_guard<std::mutex> lk(mu_);
    defineHistogramLocked(name, std::move(bounds), st);
    epochCloseLocked();
}

void
MetricsRegistry::observeLocked(std::string_view name, uint64_t value)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        return;
    touchLocked();
    Histogram &h = it->second;
    size_t bucket = 0;
    while (bucket < h.bounds.size() && value > h.bounds[bucket])
        ++bucket;
    ++h.counts[bucket];
    ++h.total;
    h.sum += value;
}

void
MetricsRegistry::observe(std::string_view name, uint64_t value)
{
    std::lock_guard<std::mutex> lk(mu_);
    observeLocked(name, value);
    epochCloseLocked();
}

bool
MetricsRegistry::histogram(std::string_view name,
                           HistogramSnapshot &out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        return false;
    const Histogram &h = it->second;
    out.bounds = h.bounds;
    out.counts = h.counts;
    out.total = h.total;
    out.sum = h.sum;
    out.stability = h.stability;
    return true;
}

void
MetricsRegistry::evictLocked()
{
    while (launches_.size() > launch_record_cap_) {
        launches_.pop_front();
        ++dropped_records_;
    }
}

uint64_t
MetricsRegistry::recordLaunchLocked(LaunchRecord rec)
{
    touchLocked();
    rec.index = next_index_++;
    uint64_t index = rec.index;
    launches_.push_back(std::move(rec));
    evictLocked();
    return index;
}

uint64_t
MetricsRegistry::recordLaunch(LaunchRecord rec)
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t index = recordLaunchLocked(std::move(rec));
    epochCloseLocked();
    return index;
}

void
MetricsRegistry::labelLastLaunch(std::string_view kernel)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!launches_.empty()) {
        touchLocked();
        launches_.back().kernel.assign(kernel.data(), kernel.size());
    }
    epochCloseLocked();
}

std::vector<LaunchRecord>
MetricsRegistry::launches() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return {launches_.begin(), launches_.end()};
}

uint64_t
MetricsRegistry::launchCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return next_index_;
}

void
MetricsRegistry::setLaunchRecordCap(size_t cap)
{
    std::lock_guard<std::mutex> lk(mu_);
    launch_record_cap_ = cap == 0 ? 1 : cap;
    evictLocked();
}

size_t
MetricsRegistry::launchRecordCap() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return launch_record_cap_;
}

void
MetricsRegistry::applyHistoryCapFromEnv()
{
    const char *env = std::getenv("NVBIT_SIM_METRICS_HISTORY");
    if (env == nullptr || env[0] == '\0')
        return;
    char *end = nullptr;
    unsigned long long cap = std::strtoull(env, &end, 10);
    if (end != env && cap > 0)
        setLaunchRecordCap(static_cast<size_t>(cap));
}

std::string
MetricsRegistry::toJson(bool exact_only) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (exact_only && c.stability == Stability::Volatile)
            continue;
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << jsonQuote(name) << ": " << c.value;
    }
    os << (first ? "},\n" : "\n  },\n");
    os << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_) {
        if (exact_only && h.stability == Stability::Volatile)
            continue;
        os << (first ? "\n    " : ",\n    ");
        first = false;
        os << jsonQuote(name) << ": {\"bounds\": [";
        for (size_t i = 0; i < h.bounds.size(); ++i)
            os << (i ? ", " : "") << h.bounds[i];
        os << "], \"counts\": [";
        for (size_t i = 0; i < h.counts.size(); ++i)
            os << (i ? ", " : "") << h.counts[i];
        os << "], \"total\": " << h.total << ", \"sum\": " << h.sum
           << "}";
    }
    os << (first ? "},\n" : "\n  },\n");
    os << "  \"launches\": [";
    first = true;
    for (const LaunchRecord &r : launches_) {
        os << (first ? "\n    {" : ",\n    {");
        first = false;
        os << "\"index\": " << r.index
           << ", \"kernel\": " << jsonQuote(r.kernel)
           << ", \"thread_instrs\": " << r.thread_instrs
           << ", \"warp_instrs\": " << r.warp_instrs
           << ", \"ctas\": " << r.ctas << ", \"cycles\": " << r.cycles
           << ", \"global_mem_warp_instrs\": " << r.global_mem_warp_instrs
           << ", \"unique_lines_sum\": " << r.unique_lines_sum
           << ", \"unique_sectors_sum\": " << r.unique_sectors_sum
           << ", \"l1_hits\": " << r.l1_hits
           << ", \"l1_misses\": " << r.l1_misses
           << ", \"l2_hits\": " << r.l2_hits
           << ", \"l2_misses\": " << r.l2_misses
           << ", \"events\": ";
        appendEventsJson(os, r.events);
        os << ", \"metrics\": {";
        {
            MetricInputs mi;
            mi.events = r.events;
            mi.elapsed_cycles = r.cycles;
            mi.sm_cycle_capacity =
                r.cycles * static_cast<uint64_t>(r.sms.size());
            mi.max_warps_per_sm = r.max_warps_per_sm;
            bool mfirst = true;
            for (const auto &[mname, mval] : evaluateAllMetrics(mi)) {
                os << (mfirst ? "" : ", ");
                mfirst = false;
                os << jsonQuote(mname) << ": ";
                appendMetricValue(os, mval);
            }
        }
        os << "}, \"cycles_by_reason\": {";
        for (size_t i = 0; i < kNumStallReasons; ++i) {
            os << (i ? ", " : "");
            os << jsonQuote(stallReasonName(static_cast<StallReason>(i)))
               << ": " << r.cycles_by_reason[i];
        }
        os << "}, \"sms\": [";
        for (size_t i = 0; i < r.sms.size(); ++i) {
            const SmShard &s = r.sms[i];
            os << (i ? ", {" : "{") << "\"sm\": " << s.sm
               << ", \"thread_instrs\": " << s.thread_instrs
               << ", \"warp_instrs\": " << s.warp_instrs
               << ", \"ctas\": " << s.ctas << ", \"cycles\": " << s.cycles;
            if (!exact_only)
                os << ", \"decode_cache_hits\": " << s.decode_cache_hits
                   << ", \"decode_cache_misses\": "
                   << s.decode_cache_misses;
            os << ", \"l1_hits\": " << s.l1_hits
               << ", \"l1_misses\": " << s.l1_misses
               << ", \"l2_hits\": " << s.l2_hits
               << ", \"l2_misses\": " << s.l2_misses
               << ", \"events\": ";
            appendEventsJson(os, s.events);
            os << ", \"cycles_by_reason\": {";
            for (size_t j = 0; j < kNumStallReasons; ++j) {
                os << (j ? ", " : "");
                os << jsonQuote(stallReasonName(static_cast<StallReason>(j)))
                   << ": " << s.cycles_by_reason[j];
            }
            os << "}}";
        }
        os << "]}";
    }
    os << (first ? "],\n" : "\n  ],\n");
    os << "  \"dropped_launch_records\": " << dropped_records_ << "\n}\n";
    return os.str();
}

namespace {

/** Sanitise a metric name for Prometheus: [a-zA-Z0-9_:] pass through,
 *  everything else (dots, dashes, spaces) becomes '_'. */
std::string
promSanitize(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Recognise the repo's per-tenant naming convention
 *  `<prefix>.tenant<N>.<suffix>` and split it into a base family name
 *  (`<prefix>.<suffix>`) plus a tenant label value, so scrapes get one
 *  labelled family instead of N distinct metric names. */
bool
promSplitTenant(std::string_view name, std::string &base,
                std::string &tenant)
{
    size_t pos = name.find(".tenant");
    if (pos == std::string_view::npos)
        return false;
    size_t d = pos + 7;
    size_t e = d;
    while (e < name.size() && name[e] >= '0' && name[e] <= '9')
        ++e;
    if (e == d || e >= name.size() || name[e] != '.')
        return false;
    tenant.assign(name.substr(d, e - d));
    base.assign(name.substr(0, pos));
    base.append(name.substr(e));
    return true;
}

struct PromSample {
    std::string tenant; // empty when unlabelled
    uint64_t value = 0;
    bool is_gauge = false;
};

} // namespace

std::string
MetricsRegistry::toPrometheus(uint64_t *epoch_out) const
{
    std::lock_guard<std::mutex> lk(mu_);
    // Sampled under mu_, so it is the epoch of exactly this payload:
    // no mutation can land between the copy and the read.
    const uint64_t epoch_now = epoch_.load(std::memory_order_acquire);
    if (epoch_out != nullptr)
        *epoch_out = epoch_now;
    std::ostringstream os;

    // Counters and gauges, grouped into families so each gets exactly
    // one `# TYPE` line.  std::map keeps family order deterministic.
    std::map<std::string, std::vector<PromSample>> families;
    for (const auto &[name, c] : counters_) {
        std::string base, tenant;
        if (!promSplitTenant(name, base, tenant))
            base.assign(name);
        PromSample s;
        s.tenant = std::move(tenant);
        s.value = c.value;
        s.is_gauge = c.is_gauge;
        families["nvbit_" + promSanitize(base)].push_back(std::move(s));
    }
    for (const auto &[fname, samples] : families) {
        bool gauge = false;
        for (const PromSample &s : samples)
            gauge = gauge || s.is_gauge;
        os << "# TYPE " << fname << (gauge ? " gauge\n" : " counter\n");
        for (const PromSample &s : samples) {
            os << fname;
            if (!s.tenant.empty())
                os << "{tenant=\"" << s.tenant << "\"}";
            os << ' ' << s.value << '\n';
        }
    }

    // Histograms: cumulative buckets in Prometheus convention.
    struct PromHist {
        std::string tenant;
        const Histogram *h = nullptr;
    };
    std::map<std::string, std::vector<PromHist>> hfamilies;
    for (const auto &[name, h] : histograms_) {
        std::string base, tenant;
        if (!promSplitTenant(name, base, tenant))
            base.assign(name);
        hfamilies["nvbit_" + promSanitize(base)].push_back(
            PromHist{std::move(tenant), &h});
    }
    for (const auto &[fname, hists] : hfamilies) {
        os << "# TYPE " << fname << " histogram\n";
        for (const PromHist &ph : hists) {
            const Histogram &h = *ph.h;
            std::string lbl = ph.tenant.empty()
                                  ? std::string()
                                  : "tenant=\"" + ph.tenant + "\",";
            uint64_t cum = 0;
            for (size_t i = 0; i < h.bounds.size(); ++i) {
                cum += h.counts[i];
                os << fname << "_bucket{" << lbl << "le=\""
                   << h.bounds[i] << "\"} " << cum << '\n';
            }
            os << fname << "_bucket{" << lbl << "le=\"+Inf\"} "
               << h.total << '\n';
            os << fname << "_sum";
            if (!ph.tenant.empty())
                os << "{tenant=\"" << ph.tenant << "\"}";
            os << ' ' << h.sum << '\n';
            os << fname << "_count";
            if (!ph.tenant.empty())
                os << "{tenant=\"" << ph.tenant << "\"}";
            os << ' ' << h.total << '\n';
        }
    }

    os << "# TYPE nvbit_launches_total counter\n";
    os << "nvbit_launches_total " << next_index_ << '\n';
    os << "# TYPE nvbit_metrics_epoch gauge\n";
    os << "nvbit_metrics_epoch " << epoch_now << '\n';
    return os.str();
}

void
MetricsRegistry::reset()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        touchLocked();
        counters_.clear();
        histograms_.clear();
        launches_.clear();
        launch_record_cap_ = kLaunchRecordCap;
        next_index_ = 0;
        dropped_records_ = 0;
        // epoch_ deliberately survives reset(): a monotonically
        // increasing epoch lets watchers distinguish "reset" from
        // "no change".
        epochCloseLocked();
    }
    applyHistoryCapFromEnv();
}

} // namespace nvbit::obs
