/**
 * @file
 * Result reporting shared by the benchmark workloads: the one-line
 * JSON result, per-phase request accounting, order statistics, the
 * logit output check, telemetry readers and the host identity stamp.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/nn/tensor.hpp"

namespace fxhenn {
namespace analysis {}
namespace ckks {}
namespace dse {}
namespace engine {}
namespace fpga {}
namespace hecnn {}
namespace robustness {}
} // namespace fxhenn

namespace perfbench {

namespace analysis = fxhenn::analysis;
namespace ckks = fxhenn::ckks;
namespace dse = fxhenn::dse;
namespace engine = fxhenn::engine;
namespace fpga = fxhenn::fpga;
namespace hecnn = fxhenn::hecnn;
namespace nn = fxhenn::nn;
namespace robustness = fxhenn::robustness;

using Clock = std::chrono::steady_clock;

/** Command-line settings of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time of the run, split across its phases. */
    double seconds = 10.0;
    /** false: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Fault spec armed after set-up (the output check's self-test). */
    std::string fault;
    /** Directory the traced run writes its spans to. */
    std::string traceDir = ".";
};

/** Requests (or design passes) of one phase, by outcome. */
struct PhaseCounts
{
    std::string name;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0; ///< returned and passed the output check
    std::uint64_t failed = 0;    ///< returned but wrong, degraded or threw
    std::uint64_t shed = 0;      ///< refused at admission
    std::uint64_t expired = 0;   ///< deadline passed before execution

    /** Print "phase <name>: sent .. succeeded .. ..." to @p os. */
    void print(std::ostream &os) const;
};

/** The result a run prints as the last line of its standard output. */
class Result
{
  public:
    /** Record a metric (insertion order is the print order). */
    void add(std::string name, double value, std::string unit);

    /**
     * Fold @p phase into attempted/failed: every request sent counts
     * as attempted, and every one that returned wrong or degraded
     * output, or threw, as failed. Shed and expired requests were
     * refused, not failed: they count against slo_attainment. A phase
     * in which nothing passed makes the result incorrect, since its
     * latency and rate figures would have no sample.
     */
    void count(const PhaseCounts &phase);

    /**
     * Fold in another run's result: its attempted and failed counts and
     * correctness, and each of its metrics this result does not have.
     */
    void merge(const Result &other);

    /** Mark the run's outputs as wrong (a check outside any phase). */
    void fail() { correct_ = false; }

    bool correct() const { return correct_ && failed_ == 0; }

    /** {"correct": .., "attempted": .., "failed": .., "metrics": ..} */
    std::string toJson() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
};

/** Seconds in @p d. */
inline double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** The steady-clock time @p s seconds from now. */
inline Clock::time_point
secondsFromNow(double s)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
}

/** Median of @p v (NaN when empty, which toJson drops). */
double median(std::vector<double> v);

/** Nearest-rank @p p-quantile (0 < p <= 1) of @p v (NaN when empty). */
double quantile(std::vector<double> v, double p);

/**
 * Median rate, in completions per second, of timed calls that took
 * @p seconds each for @p completed completions (one per call when
 * @p completed is empty). NaN when there is no call.
 */
double medianRate(const std::vector<double> &seconds,
                  const std::vector<double> &completed = {});

/** Arithmetic mean of @p v (NaN when empty). */
double mean(const std::vector<double> &v);

/** Peak resident set size of this process, in MiB. */
double peakRssMib();

/**
 * The repository-wide pass rule (hecnn::VerifyResult::passed): the
 * decrypted logits are within 1e-2 of the plaintext forward pass and
 * pick the same class.
 */
struct LogitCheck
{
    bool passed = false;
    double maxAbsError = 0.0;
};
LogitCheck checkLogits(const std::vector<double> &encrypted,
                       const nn::Tensor &plaintext);

/** Deterministic input seed of request @p index of a run seeded @p seed. */
std::uint64_t requestSeed(std::uint64_t seed, std::uint64_t index);

/**
 * Mean of telemetry histogram @p name in milliseconds (ns / 1e6); NaN
 * when the probe recorded nothing.
 */
double histogramMeanMs(std::string_view name);

/** Value of telemetry counter @p name. */
std::uint64_t counterValue(std::string_view name);

/**
 * Host and build identity of a result: CPU model, hardware threads,
 * active SIMD level, backend, build type, workload and seed, as one
 * JSON object.
 */
std::string identityJson(const RunOptions &options,
                         const std::string &backend);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
