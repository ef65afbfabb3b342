/**
 * @file
 * Workload mnist-b1: FxHENN-MNIST (N = 8192) on the cpu backend, one
 * closed-loop client sending one unbatched request at a time.
 *
 * The whole workload runs its kernels on one thread (SerialKernels).
 * Untraced, requests go through a 1-worker engine::InferenceEngine
 * (runBatch of one input). Traced, the same per-request work — ClientSession encrypt,
 * PlanExecutor execute, ClientSession decrypt, which is what the engine
 * runs per request — is driven directly through the engine's own
 * session() and executor(), so that spans bracket the encrypt, every
 * layer (RunControl::layerProbe timestamps) and the decrypt.
 */
#include <algorithm>
#include <iostream>
#include <memory>

#include "workloads.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

/**
 * Latency limit of one request, for slo_attainment: 10x the seed-time
 * median request latency (about 2 s, README.md), the same rule as the
 * open phase of test5l-b16-serve. The seed code meets it on every
 * request, so the metric reads 1 unless requests fail or slow down
 * tenfold.
 */
constexpr double kSloSeconds = 20.5;

struct Model
{
    nn::Network net = nn::buildMnistNetwork();
    ckks::CkksParams params = ckks::mnistParams();
};

engine::EngineOptions
engineOptions(std::uint64_t seed)
{
    engine::EngineOptions o;
    o.workers = 1;
    o.keySeed = seed;
    o.guard.policy = robustness::GuardPolicy::degrade;
    o.exec.backend = "cpu";
    return o;
}

/** A 1-worker engine and what it borrows. */
struct Server
{
    hecnn::HeNetworkPlan plan;
    std::unique_ptr<ckks::CkksContext> context;
    std::unique_ptr<engine::InferenceEngine> engine;
};

/** Build a Server, one span per part. */
std::unique_ptr<Server>
buildServer(const Model &model, std::uint64_t seed, Tracer &tracer)
{
    auto s = std::make_unique<Server>();
    {
        const ScopedSpan span(tracer, "compile");
        s->plan = hecnn::compile(model.net, model.params);
    }
    {
        const ScopedSpan span(tracer, "context");
        s->context = std::make_unique<ckks::CkksContext>(model.params);
    }
    const ScopedSpan span(tracer, "engine");
    s->engine = std::make_unique<engine::InferenceEngine>(
        s->plan, *s->context, engineOptions(seed));
    return s;
}

/** What one request returned. */
struct Served
{
    double seconds = 0.0;
    bool degraded = false;
    std::vector<double> logits;
    std::vector<hecnn::MeasuredLayerStats> layers; ///< traced path only
};

Served
serveEngine(Server &server, const nn::Tensor &input)
{
    const std::vector<nn::Tensor> batch{input};
    const auto start = Clock::now();
    auto outcomes = server.engine->runBatch(batch);
    Served out;
    out.seconds = seconds(Clock::now() - start);
    out.degraded = outcomes[0].degraded();
    out.logits = std::move(outcomes[0].logits);
    return out;
}

Served
serveDirect(const Server &server, const nn::Tensor &input,
            std::uint64_t index, Tracer &tracer)
{
    const auto &session = server.engine->session();
    const auto start = Clock::now();
    Served out;
    {
        const ScopedSpan request(tracer, "request", -1, index);
        std::vector<ckks::Ciphertext> inputs;
        {
            const ScopedSpan span(tracer, "encrypt", request.id(), index);
            inputs = session.encryptInput(input, index);
        }
        hecnn::RunControl control;
        auto layerStart = Clock::now();
        if (tracer.enabled()) {
            control.layerProbe =
                [&](std::size_t layer,
                    std::span<const std::optional<ckks::Ciphertext>>) {
                    const auto now = Clock::now();
                    tracer.record("layer." + server.plan.layers[layer].name,
                                  layerStart, now, request.id(), index);
                    layerStart = now;
                };
        }
        const auto result =
            server.engine->executor().execute(std::move(inputs), control);
        {
            const ScopedSpan span(tracer, "decrypt", request.id(), index);
            out.logits = session.decryptLogits(result.regs);
        }
        out.degraded = result.degraded();
        out.layers = result.layerStats;
    }
    out.seconds = seconds(Clock::now() - start);
    return out;
}

/** Requests of one closed-loop phase, checked. */
struct Loop
{
    PhaseCounts counts;
    std::vector<double> latencies; ///< of requests that passed
    std::uint64_t withinSlo = 0;
    double maxAbsError = 0.0;
    Served last;
};

/**
 * Closed loop: send request after request for @p budget seconds (at
 * least one), each checked against the plaintext forward pass.
 */
template <typename Serve>
Loop
closedLoop(const char *name, const Model &model, const RunOptions &options,
           std::uint64_t &nextIndex, double budget, Serve &&serve)
{
    Loop loop;
    loop.counts.name = name;
    const auto end = secondsFromNow(budget);
    do {
        const std::uint64_t index = nextIndex++;
        const auto input =
            nn::syntheticInput(model.net, requestSeed(options.seed, index));
        const auto expected = model.net.forward(input);
        Served served = serve(input, index);
        const auto check = checkLogits(served.logits, expected);
        loop.counts.sent += 1;
        if (!served.degraded && check.passed) {
            loop.counts.succeeded += 1;
            loop.latencies.push_back(served.seconds);
            loop.withinSlo += served.seconds <= kSloSeconds;
            loop.maxAbsError = std::max(loop.maxAbsError, check.maxAbsError);
        } else {
            loop.counts.failed += 1;
        }
        loop.last = std::move(served);
    } while (Clock::now() < end);
    loop.counts.print(std::cerr);
    return loop;
}

Result
endToEnd(const RunOptions &options, Tracer &tracer)
{
    const Model model;
    std::unique_ptr<Server> server;
    const double setup = timedSetups(
        server, [&] { return buildServer(model, options.seed, tracer); });
    Result result;
    std::uint64_t next = 0;
    auto serve = [&](const nn::Tensor &input, std::uint64_t) {
        return serveEngine(*server, input);
    };
    // One warm-up request fills the workspace pools; it is checked but
    // not timed.
    result.count(closedLoop("warmup", model, options, next, 0.0, serve).counts);
    armRequestedFault(options);
    const Loop loop =
        closedLoop("closed", model, options, next, options.seconds, serve);
    result.count(loop.counts);
    result.add("setup_s", setup, "s");
    result.add("latency_p50_s", median(loop.latencies), "s");
    result.add("throughput_rps", medianRate(loop.latencies), "1/s");
    result.add("slo_attainment",
               double(loop.withinSlo) / double(loop.counts.sent), "frac");
    result.add("peak_rss_mib", peakRssMib(), "MiB");
    std::cerr << "mnist-b1: " << loop.latencies.size()
              << " timed requests\n";
    return result;
}

Result
perLayer(const RunOptions &options, Tracer &tracer)
{
    const Model model;
    // Set-up under spans and telemetry: the engine generates the keys
    // and then builds the plaintext pool, which telemetry times.
    fxhenn::telemetry::setEnabled(true);
    tracer.setEnabled(true);
    const auto server = buildServer(model, options.seed, tracer);
    tracer.setEnabled(false);
    fxhenn::telemetry::setEnabled(false);
    const double poolSeconds =
        histogramMeanMs("hecnn.plaintext_pool.build.ns") / 1e3;

    Result result;
    std::uint64_t next = 0;
    auto serve = [&](const nn::Tensor &input, std::uint64_t index) {
        return serveDirect(*server, input, index, tracer);
    };
    result.count(closedLoop("warmup", model, options, next, 0.0, serve).counts);
    armRequestedFault(options);
    // Same loop twice: tracing off, then telemetry and spans on. The
    // latency ratio is the tracing overhead.
    const Loop plain = closedLoop("untraced", model, options, next,
                                  options.seconds / 2, serve);
    fxhenn::telemetry::reset();
    fxhenn::telemetry::setEnabled(true);
    tracer.setEnabled(true);
    const Loop traced = closedLoop("traced", model, options, next,
                                   options.seconds / 2, serve);
    tracer.setEnabled(false);
    fxhenn::telemetry::setEnabled(false);
    result.count(plain.counts);
    result.count(traced.counts);

    addServingTelemetry(result, double(traced.counts.sent));
    // Per-layer time from the layer spans (layerProbe timestamps).
    for (const auto &layer : server->plan.layers)
        result.add("hecnn.layer." + layer.name + "_s",
                   mean(tracer.durations("layer." + layer.name)), "s");
    addKeyswitchCounts(result, server->plan, traced.last.layers);
    result.add("hecnn.keygen_s",
               mean(tracer.durations("engine")) - poolSeconds, "s");
    result.add("hecnn.pool_build_s", poolSeconds, "s");
    result.add("hecnn.pool_mib",
               double(server->engine->plaintextPool().bytes()) / (1 << 20),
               "MiB");
    result.add("hecnn.compile_s.mnist", mean(tracer.durations("compile")),
               "s");
    result.add("hecnn.max_abs_err",
               std::max(plain.maxAbsError, traced.maxAbsError), "abs");
    result.add("trace_overhead_frac",
               median(traced.latencies) / median(plain.latencies) - 1.0,
               "frac");
    result.add("trace.unattributed_frac",
               unattributedFraction(tracer.spans(), "request"), "frac");

    // The predicted counterpart of the measured layer times: the DSE
    // winner for this plan on both boards.
    tracer.setEnabled(true);
    for (const auto &device : {fpga::acu9eg(), fpga::acu15eg()}) {
        dse::ExploreResult explored;
        {
            const ScopedSpan span(tracer, "explore.mnist." + deviceKey(device));
            explored = dse::explore(server->plan, device,
                                    designExploreOptions());
        }
        if (const auto why = checkWinner(explored); !why.empty()) {
            std::cerr << "mnist design check failed: " << why << "\n";
            result.fail();
        }
        addWinnerMetrics(result, "mnist", device, explored);
        result.add("dse.explore_s.mnist." + deviceKey(device),
                   mean(tracer.durations("explore.mnist." +
                                         deviceKey(device))),
                   "s");
    }
    tracer.setEnabled(false);
    return result;
}

} // namespace

Result
runMnistB1(const RunOptions &options, Tracer &tracer)
{
    const SerialKernels serial;
    return options.trace ? perLayer(options, tracer)
                         : endToEnd(options, tracer);
}

} // namespace perfbench
