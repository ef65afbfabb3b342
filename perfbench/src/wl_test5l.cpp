/**
 * @file
 * Workload test5l-b16-serve: Test-5L (N = 2048) compiled with
 * batchLanes = 16 and served by min(4, nproc) engine workers, in two
 * phases of equal length:
 *
 *  - open: submit() at seeded Poisson arrivals of kRate requests/s,
 *    each with a kDeadlineSeconds deadline under shed admission. A
 *    request's latency runs from the time it was due, so a generator
 *    stall counts against the requests behind it; how late the
 *    generator ran is reported separately.
 *  - saturate: closed-loop runBatch() calls of kSaturateBatch inputs,
 *    for capacity.
 *
 * Set-up (compile, keys, plaintext pool) runs its kernels on one thread
 * (SerialKernels); serving uses the engine's workers.
 */
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "workloads.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLanes = 16;
/**
 * Open-loop arrival rate: about half the closed-loop capacity of this
 * configuration (612 requests/s on the 4-thread host the README names).
 */
constexpr double kRate = 300.0;
/**
 * Per-request deadline of the open phase, from admission: 10x the
 * seed-time group p50 (0.10 s) of this configuration.
 */
constexpr double kDeadlineSeconds = 1.0;
/** Streaming accumulation window of the engine. */
constexpr double kBatchWindowSeconds = 0.01;
/** Admission queue depth. */
constexpr std::size_t kQueueCapacity = 512;
/** Requests per runBatch() call of the saturate phase. */
constexpr std::size_t kSaturateBatch = 256;

unsigned
workerCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct Model
{
    nn::Network net = nn::buildTestNetwork();
    ckks::CkksParams params = ckks::testParams(2048, 7, 30);
};

engine::EngineOptions
engineOptions(std::uint64_t seed)
{
    engine::EngineOptions o;
    o.workers = workerCount();
    o.queueCapacity = kQueueCapacity;
    o.keySeed = seed;
    o.guard.policy = robustness::GuardPolicy::degrade;
    o.admission = engine::AdmissionPolicy::shed;
    o.deadlineSeconds = kDeadlineSeconds;
    o.batchWindowSeconds = kBatchWindowSeconds;
    o.exec.backend = "cpu";
    return o;
}

/** The engine and what it borrows. */
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
        hecnn::CompileOptions options;
        options.batchLanes = kLanes;
        s->plan = hecnn::compile(model.net, model.params, options);
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

/** Seeded inputs and their plaintext logits, made before a phase runs. */
struct Inputs
{
    std::vector<nn::Tensor> tensors;
    std::vector<nn::Tensor> expected;
};

Inputs
makeInputs(const Model &model, const RunOptions &options,
           std::uint64_t &nextIndex, std::size_t count)
{
    Inputs in;
    in.tensors.reserve(count);
    in.expected.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        in.tensors.push_back(nn::syntheticInput(
            model.net, requestSeed(options.seed, nextIndex++)));
        in.expected.push_back(model.net.forward(in.tensors.back()));
    }
    return in;
}

/** Checked outcomes of one phase. */
struct Phase
{
    PhaseCounts counts;
    std::vector<double> latencies; ///< of requests that passed
    std::uint64_t withinSlo = 0;
    double maxAbsError = 0.0;
    double wallSeconds = 0.0; ///< saturate phase: summed call time
    std::vector<double> lagMs; ///< open phase: submit time - due time
    /** Saturate phase: wall time and passed requests of each call. */
    std::vector<double> callSeconds;
    std::vector<double> callPassed;

    /** Classify and check one outcome; @return true when it passed. */
    bool
    record(const hecnn::InferOutcome &outcome, const nn::Tensor &expected)
    {
        counts.sent += 1;
        if (outcome.failure) {
            const bool admission = outcome.failure->layer == "admission";
            if (outcome.failure->op == "deadline")
                counts.expired += 1;
            else if (admission)
                counts.shed += 1;
            else
                counts.failed += 1;
            return false;
        }
        const auto check = checkLogits(outcome.logits, expected);
        if (!check.passed) {
            counts.failed += 1;
            return false;
        }
        counts.succeeded += 1;
        maxAbsError = std::max(maxAbsError, check.maxAbsError);
        return true;
    }
};

/** The open-loop phase. */
Phase
openLoop(Server &server, const Model &model, const RunOptions &options,
         std::uint64_t &nextIndex, double budget, Tracer &tracer,
         const char *name = "open")
{
    // Poisson arrivals: exponential gaps from a seeded stream.
    std::mt19937_64 rng(requestSeed(options.seed, ~nextIndex));
    std::exponential_distribution<double> gap(kRate);
    std::vector<double> offsets;
    for (double t = 0.0; t < budget; t += gap(rng))
        offsets.push_back(t);
    const std::size_t n = offsets.size();
    const std::uint64_t firstIndex = nextIndex;
    const Inputs in = makeInputs(model, options, nextIndex, n);

    std::vector<Clock::time_point> due(n), submitted(n), accepted(n),
        completed(n);
    std::vector<hecnn::InferOutcome> outcomes(n);

    // The collector waits on the oldest pending future for at most
    // 1 ms, then stamps every future that has become ready, so
    // out-of-order completions are timed within a millisecond.
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<std::pair<std::size_t, std::future<hecnn::InferOutcome>>>
        inbox; // guarded by mutex
    bool done = false; // guarded by mutex
    std::thread collector([&] {
        std::vector<std::pair<std::size_t, std::future<hecnn::InferOutcome>>>
            pending;
        for (;;) {
            {
                std::unique_lock lock(mutex);
                if (pending.empty())
                    wake.wait(lock, [&] { return done || !inbox.empty(); });
                while (!inbox.empty()) {
                    pending.push_back(std::move(inbox.front()));
                    inbox.pop_front();
                }
                if (pending.empty() && done)
                    return;
            }
            if (pending.empty())
                continue;
            pending.front().second.wait_for(std::chrono::milliseconds(1));
            const auto now = Clock::now();
            std::erase_if(pending, [&](auto &p) {
                if (p.second.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    return false;
                completed[p.first] = now;
                outcomes[p.first] = p.second.get();
                return true;
            });
        }
    });

    const auto stopCollector = [&] {
        {
            std::scoped_lock lock(mutex);
            done = true;
        }
        wake.notify_one();
        collector.join();
    };
    const auto begin = Clock::now() + std::chrono::milliseconds(2);
    try {
        for (std::size_t i = 0; i < n; ++i) {
            due[i] = begin + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(offsets[i]));
            std::this_thread::sleep_until(due[i]);
            submitted[i] = Clock::now();
            auto future = server.engine->submit(in.tensors[i]);
            accepted[i] = Clock::now();
            {
                std::scoped_lock lock(mutex);
                inbox.emplace_back(i, std::move(future));
            }
            wake.notify_one();
        }
    } catch (...) {
        stopCollector();
        throw;
    }
    stopCollector();

    Phase phase;
    phase.counts.name = name;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t id = firstIndex + i;
        const auto root =
            tracer.record("request", due[i], completed[i], -1, id);
        tracer.record("generator_lag", due[i], submitted[i], root, id);
        tracer.record("submit", submitted[i], accepted[i], root, id);
        tracer.record("engine", accepted[i], completed[i], root, id);
        phase.lagMs.push_back(seconds(submitted[i] - due[i]) * 1e3);
        if (!phase.record(outcomes[i], in.expected[i]))
            continue;
        const double latency = seconds(completed[i] - due[i]);
        phase.latencies.push_back(latency);
        phase.withinSlo += latency <= kDeadlineSeconds;
    }
    phase.counts.print(std::cerr);
    std::cerr << "phase " << name << ": " << kRate << " req/s offered, generator lag "
              << "mean " << mean(phase.lagMs) << " ms, max "
              << quantile(phase.lagMs, 1.0) << " ms\n";
    return phase;
}

/** The closed-loop saturation phase (at least one runBatch call). */
Phase
saturate(Server &server, const Model &model, const RunOptions &options,
         std::uint64_t &nextIndex, double budget, Tracer &tracer,
         const char *name = "saturate")
{
    Phase phase;
    phase.counts.name = name;
    const auto end = secondsFromNow(budget);
    do {
        const Inputs in =
            makeInputs(model, options, nextIndex, kSaturateBatch);
        const auto start = Clock::now();
        std::vector<hecnn::InferOutcome> outcomes;
        {
            const ScopedSpan span(tracer, "run_batch");
            outcomes = server.engine->runBatch(in.tensors);
        }
        phase.callSeconds.push_back(seconds(Clock::now() - start));
        phase.wallSeconds += phase.callSeconds.back();
        double passed = 0.0;
        for (std::size_t i = 0; i < outcomes.size(); ++i)
            passed += phase.record(outcomes[i], in.expected[i]);
        phase.callPassed.push_back(passed);
    } while (Clock::now() < end);
    phase.counts.print(std::cerr);
    return phase;
}

/** Median over runBatch() calls of passed requests per second. */
double
throughput(const Phase &phase)
{
    return medianRate(phase.callSeconds, phase.callPassed);
}

/**
 * Warm-up, not timed: one saturate call (runBatch helper threads) and
 * a short open-loop phase (the streaming workers' workspace pools and
 * the engine's service-time estimate).
 */
void
warmUp(Server &server, const Model &model, const RunOptions &options,
       std::uint64_t &nextIndex, Tracer &tracer, Result &result)
{
    result.count(
        saturate(server, model, options, nextIndex, 0.0, tracer, "warmup")
            .counts);
    result.count(
        openLoop(server, model, options, nextIndex, 0.5, tracer,
                 "warmup-open")
            .counts);
}

Result
endToEnd(const RunOptions &options, Tracer &tracer)
{
    const Model model;
    std::unique_ptr<Server> server;
    double setup = 0.0;
    {
        const SerialKernels serial;
        setup = timedSetups(server, [&] {
            return buildServer(model, options.seed, tracer);
        });
    }
    Result result;
    std::uint64_t next = 0;
    warmUp(*server, model, options, next, tracer, result);
    armRequestedFault(options);
    const Phase open =
        openLoop(*server, model, options, next, options.seconds / 2, tracer);
    const Phase sat =
        saturate(*server, model, options, next, options.seconds / 2, tracer);
    result.count(open.counts);
    result.count(sat.counts);
    result.add("setup_s", setup, "s");
    result.add("latency_p50_s", median(open.latencies), "s");
    result.add("throughput_rps", throughput(sat), "1/s");
    result.add("slo_attainment",
               double(open.withinSlo) / double(open.counts.sent), "frac");
    result.add("peak_rss_mib", peakRssMib(), "MiB");
    std::cerr << "test5l-b16-serve: " << open.latencies.size()
              << " timed open-loop requests\n";
    return result;
}

/** Engine-layer metrics of the traced open phase, read from telemetry. */
void
addEngineTelemetry(Result &result, const Phase &open,
                   const engine::EngineStats &before,
                   const engine::EngineStats &after)
{
    result.add("engine.queue_wait_ms",
               histogramMeanMs("engine.queue_wait.ns"), "ms");
    result.add("engine.window_wait_ms",
               histogramMeanMs("engine.batch.window_wait.ns"), "ms");
    result.add("engine.service_ms", histogramMeanMs("engine.service.ns"),
               "ms");
    const double batches =
        double(after.batchesExecuted - before.batchesExecuted);
    const double members =
        after.meanBatchOccupancy * double(after.batchesExecuted) -
        before.meanBatchOccupancy * double(before.batchesExecuted);
    result.add("engine.batch_fill_frac", members / batches / double(kLanes),
               "frac");
    for (const char *name :
         {"engine.shed", "engine.deadline_expired", "engine.retries"})
        result.add(name, double(counterValue(name)), "count");
    result.add("bench.generator_lag_ms", quantile(open.lagMs, 1.0), "ms");
    // What the client saw that neither the generator's lag nor the
    // engine's own queue-wait + service accounting explains.
    const double latency = mean(open.latencies);
    const double engineMs = histogramMeanMs("engine.request.ns");
    result.add("trace.unattributed_frac",
               (latency * 1e3 - mean(open.lagMs) - engineMs) /
                   (latency * 1e3),
               "frac");
}

Result
perLayer(const RunOptions &options, Tracer &tracer)
{
    const Model model;
    Result result;
    // Set-up under spans and telemetry: the engine generates the keys
    // and then builds the plaintext pool, which telemetry times.
    fxhenn::telemetry::setEnabled(true);
    tracer.setEnabled(true);
    auto server = [&] {
        const SerialKernels serial;
        return buildServer(model, options.seed, tracer);
    }();
    tracer.setEnabled(false);
    fxhenn::telemetry::setEnabled(false);
    const double poolSeconds =
        histogramMeanMs("hecnn.plaintext_pool.build.ns") / 1e3;
    result.add("hecnn.keygen_s",
               mean(tracer.durations("engine")) - poolSeconds, "s");
    result.add("hecnn.pool_build_s", poolSeconds, "s");
    result.add("hecnn.pool_mib",
               double(server->engine->plaintextPool().bytes()) / (1 << 20),
               "MiB");
    std::uint64_t next = 0;
    warmUp(*server, model, options, next, tracer, result);
    armRequestedFault(options);

    const double quarter = options.seconds / 4;
    const Phase plainOpen =
        openLoop(*server, model, options, next, quarter, tracer);
    const Phase plainSat =
        saturate(*server, model, options, next, quarter, tracer);

    fxhenn::telemetry::reset();
    fxhenn::telemetry::setEnabled(true);
    tracer.setEnabled(true);
    const auto before = server->engine->stats();
    const Phase open =
        openLoop(*server, model, options, next, quarter, tracer);
    addEngineTelemetry(result, open, before, server->engine->stats());
    const Phase sat = saturate(*server, model, options, next, quarter, tracer);
    tracer.setEnabled(false);
    fxhenn::telemetry::setEnabled(false);
    for (const auto *phase : {&plainOpen, &plainSat, &open, &sat})
        result.count(phase->counts);

    addServingTelemetry(result, double(open.counts.sent + sat.counts.sent));
    // Helper threads exist only in runBatch (the streaming workers run
    // their kernels inline), so the busy share is over the saturate calls.
    result.add("parallel.busy_frac",
               double(counterValue("parallel.worker_busy_ns")) * 1e-9 /
                   (sat.wallSeconds * double(fxhenn::threadCount())),
               "frac");
    for (const auto &layer : server->plan.layers)
        result.add("hecnn.layer." + layer.name + "_s",
                   histogramMeanMs("hecnn.layer." + layer.name + ".ns") /
                       1e3,
                   "s");
    result.add("hecnn.max_abs_err",
               std::max({plainOpen.maxAbsError, plainSat.maxAbsError,
                         open.maxAbsError, sat.maxAbsError}),
               "abs");
    result.add("trace_overhead_frac",
               throughput(plainSat) / throughput(sat) - 1.0, "frac");
    // Tail latency of the untraced open quarter (about 2000 requests).
    result.add("engine.open_latency_p99_s",
               quantile(plainOpen.latencies, 0.99), "s");

    // One more 16-lane group through the engine's own session and
    // executor, for the per-layer op counts of a batched run.
    const Inputs in = makeInputs(model, options, next, kLanes);
    std::vector<const nn::Tensor *> members;
    std::vector<std::uint64_t> indices;
    for (std::size_t i = 0; i < kLanes; ++i) {
        members.push_back(&in.tensors[i]);
        indices.push_back(next - kLanes + i);
    }
    const auto &session = server->engine->session();
    const auto run = server->engine->executor().execute(
        session.encryptInputBatch(
            members, hecnn::ClientSession::batchRequestKey(indices)));
    const auto logits = session.decryptLogitsBatch(run.regs);
    Phase probe;
    probe.counts.name = "probe";
    for (std::size_t i = 0; i < kLanes; ++i) {
        hecnn::InferOutcome outcome;
        outcome.logits = logits[i];
        outcome.failure = run.failure;
        probe.record(outcome, in.expected[i]);
    }
    probe.counts.print(std::cerr);
    result.count(probe.counts);
    addKeyswitchCounts(result, server->plan, run.layerStats);
    return result;
}

} // namespace

Result
runTest5lServe(const RunOptions &options, Tracer &tracer)
{
    return options.trace ? perLayer(options, tracer)
                         : endToEnd(options, tracer);
}

} // namespace perfbench
