/**
 * @file
 * The one teardown sequence (obs/lifecycle): every observability sink
 * leaves a valid artifact on every exit path.  Parameterised over
 * {fault, resetDriver, process exit} x {metrics, trace, log, profile,
 * sancheck, telemetry file}.  The exit path runs a plain driver client
 * in a child process (cuInit, a launch, std::exit(0)) and requires
 * exit code 0: the driver's stream service must be stopped and joined
 * by the exit handler, not destroyed with live workers.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "driver/api.hpp"
#include "driver/internal.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/publisher.hpp"
#include "obs/trace.hpp"

namespace nvbit::cudrv {
namespace {

/** Stores at out + ctaid * stride: with a 48 MiB stride, CTA 2 runs
 *  off the end of the 96 MiB device. */
const char *kStorePtx = R"(
.visible .entry storek(.param .u64 out, .param .u32 stride)
{
    .reg .u32 %r<4>;
    .reg .u64 %rd<5>;
    mov.u32 %r1, %ctaid.x;
    ld.param.u32 %r2, [stride];
    ld.param.u64 %rd1, [out];
    mul.wide.u32 %rd2, %r1, %r2;
    add.u64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r1;
    exit;
}
)";

enum class Path { Fault, Reset, Exit };
enum class Sink { Metrics, Trace, Log, Profile, Sancheck, Telemetry };

const char *
pathName(Path p)
{
    switch (p) {
      case Path::Fault: return "fault";
      case Path::Reset: return "reset";
      case Path::Exit: return "exit";
    }
    return "?";
}

const char *
sinkName(Sink s)
{
    switch (s) {
      case Sink::Metrics: return "metrics";
      case Sink::Trace: return "trace";
      case Sink::Log: return "log";
      case Sink::Profile: return "profile";
      case Sink::Sancheck: return "sancheck";
      case Sink::Telemetry: return "telemetry";
    }
    return "?";
}

const char *
sinkVar(Sink s)
{
    switch (s) {
      case Sink::Metrics: return "NVBIT_SIM_METRICS";
      case Sink::Trace: return "NVBIT_SIM_TRACE";
      case Sink::Log: return "NVBIT_SIM_LOG";
      case Sink::Profile: return "NVBIT_SIM_PROFILE";
      case Sink::Sancheck: return "NVBIT_SIM_SANCHECK_REPORT";
      case Sink::Telemetry: return "NVBIT_SIM_TELEMETRY";
    }
    return "?";
}

/** Minimal JSON syntax check: one value, nothing after it. */
class JsonCheck
{
  public:
    static bool
    document(std::string_view s)
    {
        JsonCheck p(s);
        if (!p.value())
            return false;
        p.ws();
        return p.i_ == s.size();
    }

  private:
    explicit JsonCheck(std::string_view s) : s_(s) {}

    bool more() const { return i_ < s_.size(); }

    void
    ws()
    {
        while (more() && std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool
    value()
    {
        ws();
        if (!more())
            return false;
        if (s_[i_] == '{')
            return container('}', true);
        if (s_[i_] == '[')
            return container(']', false);
        if (s_[i_] == '"')
            return string();
        size_t start = i_;
        while (more() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                          s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.'))
            ++i_;
        return i_ != start;
    }

    bool
    string()
    {
        for (++i_; more() && s_[i_] != '"'; ++i_)
            if (s_[i_] == '\\')
                ++i_;
        if (!more())
            return false;
        ++i_;
        return true;
    }

    bool
    container(char close, bool object)
    {
        ++i_;
        ws();
        if (more() && s_[i_] == close) {
            ++i_;
            return true;
        }
        for (;;) {
            if (object) {
                ws();
                if (!more() || s_[i_] != '"' || !string())
                    return false;
                ws();
                if (!more() || s_[i_++] != ':')
                    return false;
            }
            if (!value())
                return false;
            ws();
            if (!more())
                return false;
            char c = s_[i_++];
            if (c == close)
                return true;
            if (c != ',')
                return false;
        }
    }

    std::string_view s_;
    size_t i_ = 0;
};

/** Prometheus text exposition: `# TYPE` lines and `name[{..}] value`
 *  samples, newline-terminated. */
bool
wellFormedExposition(const std::string &s)
{
    if (s.empty() || s.back() != '\n')
        return false;
    std::istringstream in(s);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("# TYPE nvbit_", 0) == 0)
            continue;
        size_t sp = line.rfind(' ');
        if (line.rfind("nvbit_", 0) != 0 || sp == std::string::npos)
            return false;
        char *end = nullptr;
        std::strtod(line.c_str() + sp + 1, &end);
        if (end == line.c_str() + sp + 1 || *end != '\0')
            return false;
    }
    return true;
}

bool
wellFormed(Sink sink, const std::string &s)
{
    if (sink == Sink::Telemetry)
        return wellFormedExposition(s);
    if (sink != Sink::Log)
        return JsonCheck::document(s);
    // JSON lines: one object per line.
    std::istringstream in(s);
    std::string line;
    while (std::getline(in, line))
        if (!JsonCheck::document(line))
            return false;
    return s.back() == '\n';
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream buf;
    buf << f.rdbuf();
    return buf.str();
}

class ExitPathTest : public ::testing::TestWithParam<std::tuple<Path, Sink>>
{
  protected:
    void
    SetUp() override
    {
        std::tie(path_, sink_) = GetParam();
        artifact_ = ::testing::TempDir() + "lifecycle_" +
                    pathName(path_) + "_" + sinkName(sink_);
        std::remove(artifact_.c_str());
        obs::MetricsRegistry::instance().reset();
    }

    void
    TearDown() override
    {
        ::unsetenv(sinkVar(sink_));
        obs::Tracer::instance().disableAndFlush();
        obs::StructuredLog::instance().disableAndFlush();
        obs::TelemetryPublisher::instance().stop();
        resetDriver();
        std::remove(artifact_.c_str());
    }

    /** Point the sink under test at the artifact.  Trace and log
     *  enable at first use; in a process where they were already used,
     *  enable them directly. */
    void
    configure()
    {
        ::setenv(sinkVar(sink_), artifact_.c_str(), 1);
        obs::Tracer &tr = obs::Tracer::instance();
        if (sink_ == Sink::Trace && !tr.enabled())
            tr.enableToFile(artifact_);
        obs::StructuredLog &log = obs::StructuredLog::instance();
        if (sink_ == Sink::Log && !log.enabled(obs::LogLevel::Info))
            log.enableToFile(artifact_);
    }

    /** A plain driver client: one context, one launch, which faults
     *  when @p fault is set.  Returns the launch status. */
    static CUresult
    runClient(bool fault)
    {
        checkCu(cuInit(0), "cuInit");
        CUcontext ctx = nullptr;
        checkCu(cuCtxCreate(&ctx, 0, 0), "cuCtxCreate");
        CUmodule mod = nullptr;
        checkCu(cuModuleLoadData(&mod, kStorePtx, 0), "load");
        CUfunction fn = nullptr;
        checkCu(cuModuleGetFunction(&fn, mod, "storek"), "get");
        CUdeviceptr out = 0;
        checkCu(cuMemAlloc(&out, 8), "alloc");
        uint32_t stride = 48u << 20;
        void *params[] = {&out, &stride};
        return cuLaunchKernel(fn, fault ? 4 : 1, 1, 1, 1, 1, 1, 0,
                              nullptr, params, nullptr);
    }

    void
    expectArtifact()
    {
        std::string s = slurp(artifact_);
        ASSERT_FALSE(s.empty()) << artifact_ << " missing or empty";
        EXPECT_TRUE(wellFormed(sink_, s)) << artifact_ << ":\n" << s;
        if (sink_ == Sink::Metrics) {
            EXPECT_NE(s.find(path_ == Path::Fault ? "\"driver.faults\": 1"
                                                  : "\"driver.launches\": 1"),
                      std::string::npos);
        }
    }

    Path path_ = Path::Fault;
    Sink sink_ = Sink::Metrics;
    std::string artifact_;
};

TEST_P(ExitPathTest, LeavesValidArtifact)
{
    switch (path_) {
      case Path::Fault:
        configure();
        ASSERT_EQ(runClient(true), CUDA_ERROR_ILLEGAL_ADDRESS);
        break;
      case Path::Reset:
        configure();
        ASSERT_EQ(runClient(false), CUDA_SUCCESS);
        resetDriver();
        break;
      case Path::Exit:
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
        EXPECT_EXIT(
            {
                configure();
                std::exit(runClient(false) == CUDA_SUCCESS ? 0 : 3);
            },
            ::testing::ExitedWithCode(0), "");
        break;
    }
    expectArtifact();
}

INSTANTIATE_TEST_SUITE_P(
    Lifecycle, ExitPathTest,
    ::testing::Combine(::testing::Values(Path::Fault, Path::Reset,
                                         Path::Exit),
                       ::testing::Values(Sink::Metrics, Sink::Trace,
                                         Sink::Log, Sink::Profile,
                                         Sink::Sancheck, Sink::Telemetry)),
    [](const auto &info) {
        return std::string(pathName(std::get<0>(info.param))) + "_" +
               sinkName(std::get<1>(info.param));
    });

} // namespace
} // namespace nvbit::cudrv
