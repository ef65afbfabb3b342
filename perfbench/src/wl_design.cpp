/**
 * @file
 * Workload design: the framework's static path, pass after pass. Each
 * pass compiles FxHENN-MNIST and FxHENN-CIFAR10 (CIFAR-10 values-elided,
 * as the CLI does), runs the standard analysis pipeline and the noise
 * certifier on both plans, and explores the design space with
 * certifyNoise and replaySim on ACU9EG and ACU15EG. No ciphertext is
 * touched.
 */
#include <algorithm>
#include <array>
#include <iostream>
#include <map>
#include <memory>

#include "workloads.hpp"
#include "src/analysis/pass_manager.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

/**
 * Latency limit of one design pass, for slo_attainment: 10x the
 * seed-time median pass (0.6 s, README.md), the rule of the other
 * workloads. The seed code meets it on every pass, so the metric reads
 * 1 unless passes fail or slow down tenfold.
 */
constexpr double kSloSeconds = 6.0;

struct ModelSpec
{
    std::string key;
    nn::Network net;
    ckks::CkksParams params;
    bool elide;
};

/** What a pass starts from: the networks, devices and lint pipeline. */
struct Inputs
{
    std::vector<ModelSpec> models;
    std::array<fpga::DeviceSpec, 2> devices{fpga::acu9eg(), fpga::acu15eg()};
    analysis::PassManager lint = analysis::PassManager::standard();
};

std::unique_ptr<Inputs>
makeInputs()
{
    auto in = std::make_unique<Inputs>();
    in->models.push_back(
        {"mnist", nn::buildMnistNetwork(), ckks::mnistParams(), false});
    in->models.push_back(
        {"cifar10", nn::buildCifar10Network(), ckks::cifar10Params(), true});
    return in;
}

/** The outputs of one pass that later passes must reproduce exactly. */
using Predictions = std::map<std::string, double>;

/** DSE results by (model, device), kept from one pass. */
struct Winner
{
    std::string model;
    fpga::DeviceSpec device;
    dse::ExploreResult explored;
};

/**
 * One design pass under a "pass" span; when @p winners is set, the
 * pass keeps its DSE results there. @return an empty string when every
 * check passed, else the first failure.
 */
std::string
designPass(const Inputs &in, std::uint64_t id, Tracer &tracer,
           Predictions &predicted, std::vector<Winner> *winners)
{
    const ScopedSpan pass(tracer, "pass", -1, id);
    for (const auto &model : in.models) {
        hecnn::HeNetworkPlan plan;
        {
            const ScopedSpan span(tracer, "compile." + model.key, pass.id(),
                                  id);
            hecnn::CompileOptions options;
            options.elideValues = model.elide;
            plan = hecnn::compile(model.net, model.params, options);
        }
        {
            const ScopedSpan span(tracer, "lint." + model.key, pass.id(), id);
            const auto report = in.lint.run(plan);
            if (report.errorCount() > 0)
                return "lint of " + model.key + " reports errors";
        }
        {
            const ScopedSpan span(tracer, "certify." + model.key, pass.id(),
                                  id);
            if (!hecnn::certifyPlan(plan).certified())
                return model.key + " does not noise-certify";
        }
        for (const auto &device : in.devices) {
            const std::string name =
                "explore." + model.key + "." + deviceKey(device);
            dse::ExploreResult explored;
            {
                const ScopedSpan span(tracer, name, pass.id(), id);
                explored =
                    dse::explore(plan, device, designExploreOptions());
            }
            if (auto why = checkWinner(explored); !why.empty())
                return model.key + " on " + device.name + ": " + why;
            // The model is deterministic: every pass must predict what
            // the first one did.
            const auto [it, first] =
                predicted.emplace(name, explored.best->latencySeconds);
            if (!first && it->second != explored.best->latencySeconds)
                return name + " prediction changed between passes";
            if (winners)
                winners->push_back({model.key, device, std::move(explored)});
        }
    }
    return "";
}

/** Passes of one phase, checked; @p winners is filled by the first. */
struct Loop
{
    PhaseCounts counts;
    std::vector<double> passSeconds;
    std::uint64_t withinSlo = 0;
};

Loop
passLoop(const char *name, const Inputs &in, std::uint64_t &nextId,
         double budget, Tracer &tracer, Predictions &predicted,
         std::vector<Winner> *winners = nullptr)
{
    Loop loop;
    loop.counts.name = name;
    const auto end = secondsFromNow(budget);
    do {
        const auto start = Clock::now();
        std::string failure;
        try {
            failure = designPass(in, nextId++, tracer, predicted, winners);
        } catch (const std::exception &e) {
            failure = e.what();
        }
        const double s = seconds(Clock::now() - start);
        winners = nullptr;
        loop.counts.sent += 1;
        if (!failure.empty()) {
            std::cerr << "design pass failed: " << failure << "\n";
            loop.counts.failed += 1;
            continue;
        }
        loop.counts.succeeded += 1;
        loop.passSeconds.push_back(s);
        loop.withinSlo += s <= kSloSeconds;
    } while (Clock::now() < end);
    loop.counts.print(std::cerr);
    return loop;
}

Result
endToEnd(const RunOptions &options, Tracer &tracer)
{
    std::unique_ptr<Inputs> in;
    const double setup = timedSetups(in, makeInputs);
    Result result;
    Predictions predicted;
    std::uint64_t next = 0;
    result.count(
        passLoop("warmup", *in, next, 0.0, tracer, predicted).counts);
    armRequestedFault(options);
    const Loop loop =
        passLoop("design", *in, next, options.seconds, tracer, predicted);
    result.count(loop.counts);
    result.add("setup_s", setup, "s");
    result.add("latency_p50_s", median(loop.passSeconds), "s");
    result.add("throughput_rps", medianRate(loop.passSeconds), "1/s");
    result.add("slo_attainment",
               double(loop.withinSlo) / double(loop.counts.sent), "frac");
    result.add("peak_rss_mib", peakRssMib(), "MiB");
    std::cerr << "design: " << loop.passSeconds.size()
              << " timed passes\n";
    return result;
}

Result
perLayer(const RunOptions &options, Tracer &tracer)
{
    tracer.setEnabled(true);
    std::unique_ptr<Inputs> in;
    {
        const ScopedSpan span(tracer, "setup");
        in = makeInputs();
    }
    tracer.setEnabled(false);
    Result result;
    Predictions predicted;
    std::uint64_t next = 0;
    result.count(
        passLoop("warmup", *in, next, 0.0, tracer, predicted).counts);
    armRequestedFault(options);
    const Loop plain = passLoop("untraced", *in, next, options.seconds / 2,
                                tracer, predicted);
    fxhenn::telemetry::reset();
    fxhenn::telemetry::setEnabled(true);
    tracer.setEnabled(true);
    std::vector<Winner> winners;
    const Loop traced = passLoop("traced", *in, next, options.seconds / 2,
                                 tracer, predicted, &winners);
    tracer.setEnabled(false);
    fxhenn::telemetry::setEnabled(false);
    result.count(plain.counts);
    result.count(traced.counts);

    result.add("hecnn.compile_s.mnist",
               mean(tracer.durations("compile.mnist")), "s");
    result.add("hecnn.compile_s.cifar10",
               mean(tracer.durations("compile.cifar10")), "s");
    result.add("hecnn.certify_s.cifar10",
               mean(tracer.durations("certify.cifar10")), "s");
    result.add("analysis.lint_s.cifar10",
               mean(tracer.durations("lint.cifar10")), "s");
    for (const auto &model : in->models)
        for (const auto &device : in->devices) {
            const std::string key = model.key + "." + deviceKey(device);
            result.add("dse.explore_s." + key,
                       mean(tracer.durations("explore." + key)), "s");
        }
    double evaluated = 0.0;
    double pruned = 0.0;
    double replayError = 0.0;
    for (const auto &w : winners) {
        addWinnerMetrics(result, w.model, w.device, w.explored);
        evaluated += double(w.explored.evaluated);
        pruned += double(w.explored.pruned);
        replayError =
            std::max(replayError, w.explored.simReplayMaxErrorFrac);
    }
    result.add("dse.points_evaluated", evaluated, "count");
    result.add("dse.points_pruned", pruned, "count");
    result.add("fpga.replay_max_err_frac", replayError, "frac");
    result.add("trace_overhead_frac",
               median(traced.passSeconds) / median(plain.passSeconds) - 1.0,
               "frac");
    result.add("trace.unattributed_frac",
               unattributedFraction(tracer.spans(), "pass"), "frac");
    return result;
}

} // namespace

Result
runDesign(const RunOptions &options, Tracer &tracer)
{
    return options.trace ? perLayer(options, tracer)
                         : endToEnd(options, tracer);
}

} // namespace perfbench
