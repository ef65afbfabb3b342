/**
 * @file
 * The three benchmark workloads and the helpers they share.
 *
 * Each workload returns its end-to-end metrics when RunOptions::trace
 * is off and its per-layer metrics when it is on (see README.md for
 * the list and for which workload supplies which metric).
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "src/common/parallel.hpp"
#include "src/dse/explorer.hpp"
#include "src/fpga/device.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/stats.hpp"

namespace perfbench {

/** FxHENN-MNIST, unbatched, one closed-loop client, 1-worker engine. */
Result runMnistB1(const RunOptions &options, Tracer &tracer);

/** Test-5L at B = 16: open-loop Poisson phase, then closed-loop saturation. */
Result runTest5lServe(const RunOptions &options, Tracer &tracer);

/** The static design flow (compile, lint, certify, DSE) for MNIST and CIFAR-10. */
Result runDesign(const RunOptions &options, Tracer &tracer);

/**
 * Runs the HE kernels on the calling thread for the guard's lifetime.
 *
 * The kernels' parallelFor forks helper threads for every RNS-limb
 * loop, thousands of times per request. On a host whose vCPUs share
 * physical cores with other guests, a helper that is not scheduled
 * holds up the whole loop: in alternating runs on the README's host,
 * four threads drew 7-25% hypervisor steal and a median MNIST request
 * latency anywhere from 1.1 s to 4.6 s between runs, against 1% steal
 * and 2.05-2.17 s on one thread. Key generation and the plaintext pool
 * (set-up) go through the same loops. One thread is also what an
 * engine worker runs per request (it runs kernels inline).
 */
class SerialKernels
{
  public:
    SerialKernels() : saved_(fxhenn::threadCount())
    {
        fxhenn::setThreadCount(1);
    }
    ~SerialKernels() { fxhenn::setThreadCount(saved_); }
    SerialKernels(const SerialKernels &) = delete;
    SerialKernels &operator=(const SerialKernels &) = delete;

  private:
    unsigned saved_;
};

/**
 * Build a workload's server with @p make at least seven times and until
 * two seconds of set-up have been measured (at most 200 times), keeping
 * the last one in @p keep. @return the median set-up time in seconds.
 */
template <typename T, typename Make>
double
timedSetups(std::unique_ptr<T> &keep, Make &&make)
{
    std::vector<double> times;
    double total = 0.0;
    while (times.size() < 7 || (total < 2.0 && times.size() < 200)) {
        keep.reset();
        const auto start = Clock::now();
        keep = make();
        times.push_back(seconds(Clock::now() - start));
        total += times.back();
    }
    const auto [low, high] = std::minmax_element(times.begin(), times.end());
    std::cerr << "setup: " << times.size() << " samples, min " << *low
              << " s, median " << median(times) << " s, max " << *high
              << " s\n";
    return median(times);
}

/** Arm the fault named by RunOptions::fault, if any. */
void armRequestedFault(const RunOptions &options);

/**
 * Per-layer metrics read from the telemetry registry after a traced
 * serving phase of @p requests requests: encrypt/decrypt and HE-op
 * time means, per-request op and NTT counts and the workspace hit
 * share.
 */
void addServingTelemetry(Result &result, double requests);

/**
 * hecnn.layer.<L>.keyswitches (rotate + relinearize) of one executed
 * request's @p rows. A count that differs from the plan's static
 * KeySwitch count (what `fxhenn plan` prints) fails the result.
 */
void addKeyswitchCounts(Result &result, const hecnn::HeNetworkPlan &plan,
                        const std::vector<hecnn::MeasuredLayerStats> &rows);

/**
 * Share of the summed duration of every span named @p root that none
 * of its direct children covers (children are assumed not to overlap).
 */
double unattributedFraction(const std::vector<Span> &spans,
                            std::string_view root);

/** DSE options of the design flow: noise-certified, replayed in the simulator. */
dse::ExploreOptions designExploreOptions();

/**
 * Check a DSE winner: it exists, fits the device's DSP and BRAM budget
 * and its plan certifies. @return an empty string when it passes, else
 * the reason.
 */
std::string checkWinner(const dse::ExploreResult &result);

/**
 * Per-layer metrics of a DSE winner: fpga_pred_s.<model>.<device>, and
 * for MNIST on ACU9EG the predicted per-layer time fpga.layer.<L>_s.
 */
void addWinnerMetrics(Result &result, const std::string &model,
                      const fpga::DeviceSpec &device,
                      const dse::ExploreResult &explored);

/** Lower-case device key used in metric names ("acu9eg"). */
std::string deviceKey(const fpga::DeviceSpec &device);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
