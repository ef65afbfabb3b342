#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <thread>

#include "src/modarith/simd_dispatch.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

/** JSON string literal of @p text (the names used here need no more). */
std::string
quoted(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

void
PhaseCounts::print(std::ostream &os) const
{
    os << "phase " << name << ": sent " << sent << ", succeeded "
       << succeeded << ", failed " << failed << ", shed " << shed
       << ", expired " << expired << "\n";
}

void
Result::add(std::string name, double value, std::string unit)
{
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void
Result::count(const PhaseCounts &phase)
{
    attempted_ += phase.sent;
    failed_ += phase.failed;
    if (phase.sent > 0 && phase.succeeded == 0) {
        std::cerr << "phase " << phase.name << ": nothing passed\n";
        correct_ = false;
    }
}

void
Result::merge(const Result &other)
{
    correct_ = correct_ && other.correct_;
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto &m : other.metrics_) {
        const bool known = std::any_of(
            metrics_.begin(), metrics_.end(),
            [&](const Metric &mine) { return mine.name == m.name; });
        if (!known)
            metrics_.push_back(m);
    }
}

std::string
Result::toJson() const
{
    std::ostringstream os;
    os << std::setprecision(10);
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": "
       << failed_ << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &m : metrics_) {
        // JSON has no inf/nan; a non-finite value is a benchmark bug
        // that run.py reports as a missing metric.
        if (!std::isfinite(m.value))
            continue;
        os << sep << quoted(m.name) << ": {\"value\": " << m.value
           << ", \"unit\": " << quoted(m.unit) << "}";
        sep = ", ";
    }
    os << "}}";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return NAN;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double
quantile(std::vector<double> v, double p)
{
    if (v.empty())
        return NAN;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
medianRate(const std::vector<double> &seconds,
           const std::vector<double> &completed)
{
    std::vector<double> rates;
    for (std::size_t i = 0; i < seconds.size(); ++i)
        rates.push_back((completed.empty() ? 1.0 : completed[i]) / seconds[i]);
    return median(std::move(rates));
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? NAN
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

LogitCheck
checkLogits(const std::vector<double> &encrypted,
            const nn::Tensor &plaintext)
{
    LogitCheck check;
    if (encrypted.size() != plaintext.size() || encrypted.empty()) {
        check.maxAbsError = INFINITY;
        return check;
    }
    std::size_t argEnc = 0;
    std::size_t argPlain = 0;
    for (std::size_t i = 0; i < encrypted.size(); ++i) {
        check.maxAbsError = std::max(
            check.maxAbsError, std::abs(encrypted[i] - plaintext[i]));
        if (encrypted[i] > encrypted[argEnc])
            argEnc = i;
        if (plaintext[i] > plaintext[argPlain])
            argPlain = i;
    }
    check.passed = check.maxAbsError < 1e-2 && argEnc == argPlain;
    return check;
}

std::uint64_t
requestSeed(std::uint64_t seed, std::uint64_t index)
{
    // splitmix64 over (seed, index): distinct, reproducible inputs.
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
histogramMeanMs(std::string_view name)
{
    const auto &h = fxhenn::telemetry::histogram(name);
    return h.count() ? static_cast<double>(h.sum()) /
                           static_cast<double>(h.count()) / 1e6
                     : NAN;
}

std::uint64_t
counterValue(std::string_view name)
{
    return fxhenn::telemetry::counter(name).value();
}

std::string
identityJson(const RunOptions &options, const std::string &backend)
{
    std::ostringstream os;
    os << "{\"cpu_model\": " << quoted(cpuModel())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd\": "
       << quoted(fxhenn::simd::levelName(fxhenn::simd::activeLevel()))
       << ", \"backend\": " << quoted(backend)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"telemetry_compiled\": "
       << (fxhenn::telemetry::compiledIn() ? "true" : "false")
       << ", \"workload\": " << quoted(options.workload)
       << ", \"seed\": " << options.seed << ", \"seconds\": "
       << options.seconds << ", \"trace\": "
       << (options.trace ? 1 : 0) << "}";
    return os.str();
}

} // namespace perfbench
