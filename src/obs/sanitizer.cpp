#include "obs/sanitizer.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "obs/lifecycle.hpp"
#include "obs/metrics.hpp"

namespace nvbit::obs {

namespace {

void
appendU64(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out += buf;
}

void
appendHex(std::string &out, uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", v);
    out += buf;
}

/** Canonical ordering of execution contexts: the finding kept per key
 *  is the one the serial engine would have reported first. */
bool
contextLess(const SanitizerFinding &a, const SanitizerFinding &b)
{
    if (a.cta_index != b.cta_index)
        return a.cta_index < b.cta_index;
    if (a.warp != b.warp)
        return a.warp < b.warp;
    if (a.lane != b.lane)
        return a.lane < b.lane;
    return a.sm_id < b.sm_id;
}

} // namespace

uint32_t
parseSancheckList(const char *s, bool *ok)
{
    if (ok != nullptr)
        *ok = true;
    if (s == nullptr)
        return 0;
    if (std::strcmp(s, "all") == 0 || std::strcmp(s, "1") == 0)
        return kSancheckAll;
    if (std::strcmp(s, "off") == 0 || std::strcmp(s, "none") == 0 ||
        std::strcmp(s, "0") == 0 || s[0] == '\0')
        return 0;
    uint32_t mask = 0;
    const char *p = s;
    while (*p != '\0') {
        const char *comma = std::strchr(p, ',');
        size_t len = comma != nullptr ? static_cast<size_t>(comma - p)
                                      : std::strlen(p);
        std::string tok(p, len);
        if (tok == "memcheck") {
            mask |= kSancheckMemcheck;
        } else if (tok == "racecheck") {
            mask |= kSancheckRacecheck;
        } else if (tok == "synccheck") {
            mask |= kSancheckSynccheck;
        } else if (tok == "initcheck") {
            mask |= kSancheckInitcheck;
        } else {
            if (ok != nullptr)
                *ok = false;
            return 0;
        }
        p = comma != nullptr ? comma + 1 : p + len;
    }
    return mask;
}

Sanitizer::Sanitizer() = default;

Sanitizer &
Sanitizer::instance()
{
    // Leaked on purpose (same pattern as Profiler/MetricsRegistry):
    // the exit flush reads it after static destructors may have run.
    static Sanitizer *p = new Sanitizer();
    return *p;
}

void
Sanitizer::requestChecks(uint32_t mask)
{
    std::lock_guard<std::mutex> lock(mu_);
    requested_ = mask & kSancheckAll;
}

uint32_t
Sanitizer::requestedChecks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return requested_;
}

void
Sanitizer::setOriginResolver(OriginResolver r)
{
    std::lock_guard<std::mutex> lock(mu_);
    origin_resolver_ = std::move(r);
}

bool
Sanitizer::record(SanitizerFinding f)
{
    const bool fatal_env = [] {
        const char *e = std::getenv("NVBIT_SIM_SANCHECK_FATAL");
        return e != nullptr && std::strcmp(e, "0") != 0;
    }();
    std::lock_guard<std::mutex> lock(mu_);
    f.app_pc = f.pc;
    if (origin_resolver_) {
        OriginInfo oi;
        origin_resolver_(f.pc, f.ret_stack, oi);
        f.tool_origin = oi.tool;
        f.app_pc = oi.app_pc;
        if (f.func.empty())
            f.func = oi.func;
    }
    f.ret_stack.clear();
    counts_[static_cast<size_t>(f.check)] += 1;
    {
        std::string metric = "sancheck.";
        metric += sanCheckName(f.check);
        metric += ".violations";
        MetricsRegistry::instance().add(metric, 1);
    }
    const bool fatal =
        fatal_env && f.severity == SanitizerFinding::Severity::Error;
    Key key{static_cast<uint8_t>(f.check), static_cast<uint8_t>(f.space),
            f.pc, f.addr, f.is_write};
    auto it = findings_.find(key);
    if (it != findings_.end()) {
        uint64_t occ = it->second.occurrences + 1;
        // Keep the canonically smallest context so the surviving
        // record is engine-independent (parallel SMs may hit the same
        // key in any order).
        if (contextLess(f, it->second))
            it->second = std::move(f);
        it->second.occurrences = occ;
    } else if (findings_.size() < kMaxFindings) {
        findings_.emplace(key, std::move(f));
    } else {
        ++dropped_findings_;
    }
    return fatal;
}

uint64_t
Sanitizer::violationCount(SanCheck c) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counts_[static_cast<size_t>(c)];
}

uint64_t
Sanitizer::totalViolations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (uint64_t c : counts_)
        total += c;
    return total;
}

std::vector<SanitizerFinding>
Sanitizer::findings() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SanitizerFinding> out;
    out.reserve(findings_.size());
    for (const auto &[key, f] : findings_)
        out.push_back(f);
    return out;
}

std::string
Sanitizer::textReport() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (uint64_t c : counts_)
        total += c;
    std::string out;
    out += strfmt("========= SANCHECK: %llu violation(s), %zu unique "
                  "finding(s)\n",
                  static_cast<unsigned long long>(total),
                  findings_.size());
    for (size_t i = 0; i < kNumSanChecks; ++i) {
        if (counts_[i] != 0)
            out += strfmt("=========   %s: %llu\n",
                          sanCheckName(static_cast<SanCheck>(i)),
                          static_cast<unsigned long long>(counts_[i]));
    }
    for (const auto &[key, f] : findings_) {
        out += strfmt("========= %s %s: %s\n", sanCheckName(f.check),
                      f.severity == SanitizerFinding::Severity::Error
                          ? "error"
                          : "warning",
                      f.message.c_str());
        out += strfmt("=========     at pc 0x%llx%s",
                      static_cast<unsigned long long>(f.pc),
                      f.func.empty() ? ""
                                     : strfmt(" in %s",
                                              f.func.c_str()).c_str());
        if (f.tool_origin)
            out += strfmt(" [tool code, app pc 0x%llx]",
                          static_cast<unsigned long long>(f.app_pc));
        out += '\n';
        out += strfmt("=========     by cta (%u,%u,%u) warp %u lane %u "
                      "sm %u (x%llu)\n",
                      f.ctaid[0], f.ctaid[1], f.ctaid[2], f.warp,
                      f.lane, f.sm_id,
                      static_cast<unsigned long long>(f.occurrences));
        if (f.has_alloc) {
            unsigned long long base = f.alloc_base;
            unsigned long long size = f.alloc_bytes;
            if (f.addr >= f.alloc_base + f.alloc_bytes) {
                out += strfmt("=========     address is %llu bytes past "
                              "the end of the %llu-byte %s allocation "
                              "#%llu at 0x%llx\n",
                              static_cast<unsigned long long>(
                                  f.addr - (f.alloc_base +
                                            f.alloc_bytes)),
                              size, f.alloc_live ? "live" : "freed",
                              static_cast<unsigned long long>(
                                  f.alloc_seq),
                              base);
            } else if (f.addr < f.alloc_base) {
                out += strfmt("=========     address is %llu bytes "
                              "before the %llu-byte %s allocation "
                              "#%llu at 0x%llx\n",
                              static_cast<unsigned long long>(
                                  f.alloc_base - f.addr),
                              size, f.alloc_live ? "live" : "freed",
                              static_cast<unsigned long long>(
                                  f.alloc_seq),
                              base);
            } else {
                out += strfmt("=========     address is inside the "
                              "%llu-byte %s allocation #%llu at "
                              "0x%llx\n",
                              size, f.alloc_live ? "live" : "freed",
                              static_cast<unsigned long long>(
                                  f.alloc_seq),
                              base);
            }
        }
    }
    return out;
}

std::string
Sanitizer::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (uint64_t c : counts_)
        total += c;
    std::string out;
    out += "{\n  \"violations\": {";
    for (size_t i = 0; i < kNumSanChecks; ++i) {
        if (i != 0)
            out += ", ";
        out += '"';
        out += sanCheckName(static_cast<SanCheck>(i));
        out += "\": ";
        appendU64(out, counts_[i]);
    }
    out += "},\n  \"total_violations\": ";
    appendU64(out, total);
    out += ",\n  \"unique_findings\": ";
    appendU64(out, findings_.size());
    out += ",\n  \"dropped_findings\": ";
    appendU64(out, dropped_findings_);
    out += ",\n  \"findings\": [";
    bool first = true;
    for (const auto &[key, f] : findings_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"check\": \"";
        out += sanCheckName(f.check);
        out += "\", \"severity\": \"";
        out += f.severity == SanitizerFinding::Severity::Error
                   ? "error"
                   : "warning";
        out += "\", \"message\": ";
        out += jsonQuote(f.message);
        out += ", \"pc\": ";
        appendHex(out, f.pc);
        out += ", \"app_pc\": ";
        appendHex(out, f.app_pc);
        out += ", \"tool_origin\": ";
        out += f.tool_origin ? "true" : "false";
        out += ", \"func\": ";
        out += jsonQuote(f.func);
        out += ", \"addr\": ";
        appendHex(out, f.addr);
        out += ", \"bytes\": ";
        appendU64(out, f.bytes);
        out += ", \"space\": \"";
        out += sanSpaceName(f.space);
        out += "\", \"is_write\": ";
        out += f.is_write ? "true" : "false";
        out += ", \"cta\": [";
        appendU64(out, f.ctaid[0]);
        out += ", ";
        appendU64(out, f.ctaid[1]);
        out += ", ";
        appendU64(out, f.ctaid[2]);
        out += "], \"cta_index\": ";
        appendU64(out, f.cta_index);
        out += ", \"sm\": ";
        appendU64(out, f.sm_id);
        out += ", \"warp\": ";
        appendU64(out, f.warp);
        out += ", \"lane\": ";
        appendU64(out, f.lane);
        out += ", \"occurrences\": ";
        appendU64(out, f.occurrences);
        if (f.has_alloc) {
            out += ", \"alloc\": {\"base\": ";
            appendHex(out, f.alloc_base);
            out += ", \"bytes\": ";
            appendU64(out, f.alloc_bytes);
            out += ", \"seq\": ";
            appendU64(out, f.alloc_seq);
            out += ", \"live\": ";
            out += f.alloc_live ? "true" : "false";
            out += "}";
        }
        out += "}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

void
Sanitizer::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    requested_ = 0;
    counts_ = {};
    findings_.clear();
    dropped_findings_ = 0;
}

} // namespace nvbit::obs
