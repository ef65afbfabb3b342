/**
 * @file
 * Serving throughput of engine::InferenceEngine versus worker count
 * and slot-batch size.
 *
 * Runs the same batch of encrypted test-network inferences on 1, 2, 4
 * and 8 workers unbatched, then again with B = 4 and B = 16 requests
 * packed into shared ciphertext slots, prints the scaling tables and
 * writes the measured numbers to BENCH_throughput.json (or the path
 * given as `--out FILE` or as the only argument) so the repo can
 * commit a baseline. The JSON records the machine's
 * hardware thread count: request-level scaling can only materialize
 * when the host has cores to scale onto, so the baseline is
 * interpreted relative to it, and each config row carries an
 * "oversubscribed" flag when it ran more workers than the host has
 * hardware threads. Every row also states its "batch_size": per-request
 * numbers taken at different slot-batch sizes measure different
 * packings, and check_bench_regression.py refuses to compare across
 * them.
 */
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"

using namespace fxhenn;

namespace {

struct ConfigResult
{
    std::size_t batchSize = 1;
    unsigned workers = 0;
    bool oversubscribed = false;
    double wallSeconds = 0.0;
    double requestsPerSecond = 0.0;
    double perWorker = 0.0;
    double meanLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    // Output path: `--out FILE` or a bare FILE; any other flag is a
    // usage error, caught before any measurement runs.
    std::string outPath = "BENCH_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (!arg.empty() && arg[0] != '-' && argc == 2) {
            outPath = arg;
        } else {
            std::cerr << "usage: bench_throughput [--out FILE | FILE]\n"
                      << "error: unexpected argument '" << arg << "'\n";
            return 2;
        }
    }

    bench::banner("Inference engine throughput vs workers and batch",
                  "Sec. I MLaaS serving model");
    constexpr std::size_t kRequests = 16;
    constexpr std::uint64_t kSeed = 1;
    const unsigned hardwareThreads = std::thread::hardware_concurrency();
    // Record the SIMD level in the baseline: numbers taken at
    // different levels are not comparable.
    const char *simdName = simd::levelName(simd::activeLevel());

    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    ckks::CkksContext ctx(params);

    std::vector<nn::Tensor> batch;
    batch.reserve(kRequests);
    for (std::size_t r = 0; r < kRequests; ++r)
        batch.push_back(nn::syntheticInput(net, kSeed + r));

    // The serving knobs under measurement, recorded in the JSON next
    // to hardware_threads so the baseline states the admission regime
    // it was taken under (no deadline, no shedding, no retries).
    engine::EngineOptions knobs;
    knobs.keySeed = kSeed;

    // Slot-batched configs run on one worker: the point is per-request
    // amortization from packing, orthogonal to worker-level scaling,
    // which the unbatched sweep already measures.
    const std::vector<std::size_t> batchSizes{1, 4, 16};

    TablePrinter table({"Batch", "Workers", "Wall s", "Req/s",
                        "Req/s/worker", "Mean lat s", "p50 s", "p95 s",
                        "p99 s"});
    std::vector<ConfigResult> results;
    for (const std::size_t batchSize : batchSizes) {
        hecnn::CompileOptions compileOpts;
        compileOpts.batchLanes = batchSize;
        const auto plan = hecnn::compile(net, params, compileOpts);
        const std::vector<unsigned> workerCounts =
            batchSize == 1 ? std::vector<unsigned>{1u, 2u, 4u, 8u}
                           : std::vector<unsigned>{1u};
        for (const unsigned workers : workerCounts) {
            engine::EngineOptions opts = knobs;
            opts.workers = workers;
            engine::InferenceEngine eng(plan, ctx, opts);
            eng.runBatch(batch); // warm-up: first touch of pool/keys
            eng.runBatch(batch);
            const auto stats = eng.stats();

            ConfigResult r;
            r.batchSize = batchSize;
            r.workers = workers;
            r.oversubscribed = workers > hardwareThreads;
            r.wallSeconds = stats.lastBatchSeconds;
            r.requestsPerSecond = stats.lastBatchRequestsPerSecond;
            r.perWorker = r.requestsPerSecond / double(workers);
            r.meanLatencySeconds = stats.meanLatencySeconds;
            r.p50LatencySeconds = stats.p50LatencySeconds;
            r.p95LatencySeconds = stats.p95LatencySeconds;
            r.p99LatencySeconds = stats.p99LatencySeconds;
            results.push_back(r);
            table.addRow({std::to_string(batchSize),
                          std::to_string(workers),
                          fmtF(r.wallSeconds, 3),
                          fmtF(r.requestsPerSecond, 3),
                          fmtF(r.perWorker, 3),
                          fmtF(r.meanLatencySeconds, 3),
                          fmtF(r.p50LatencySeconds, 3),
                          fmtF(r.p95LatencySeconds, 3),
                          fmtF(r.p99LatencySeconds, 3)});
        }
    }
    table.print(std::cout);

    const double scaling1to4 =
        results[2].requestsPerSecond / results[0].requestsPerSecond;
    // Per-request amortization from slot packing, both at 1 worker:
    // the last two results are the B = 4 and B = 16 single-worker
    // rows, the first is B = 1 on 1 worker.
    const double batchSpeedup16 =
        results.back().requestsPerSecond /
        results.front().requestsPerSecond;
    std::cout << "hardware threads: " << hardwareThreads << "\n"
              << "simd: " << simdName << "\n"
              << "throughput scaling 1 -> 4 workers: "
              << fmtF(scaling1to4, 3) << "x\n"
              << "slot-batch speedup B=16 vs B=1 (1 worker): "
              << fmtF(batchSpeedup16, 3) << "x\n";

    std::ofstream out(outPath);
    if (!out) {
        std::cerr << "cannot write " << outPath << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"engine_throughput\",\n"
        << "  \"network\": \"" << net.name() << "\",\n"
        << "  \"simd\": \"" << simdName << "\",\n"
        << "  \"requests_per_config\": " << kRequests << ",\n"
        << "  \"hardware_threads\": " << hardwareThreads << ",\n"
        << "  \"batch_sizes\": [";
    for (std::size_t i = 0; i < batchSizes.size(); ++i)
        out << batchSizes[i]
            << (i + 1 < batchSizes.size() ? ", " : "");
    out << "],\n"
        << "  \"admission\": \""
        << engine::admissionPolicyName(knobs.admission) << "\",\n"
        << "  \"deadline_seconds\": " << fmtF(knobs.deadlineSeconds, 4)
        << ",\n"
        << "  \"max_retries\": " << knobs.retry.maxRetries << ",\n"
        << "  \"scaling_1_to_4_workers\": " << fmtF(scaling1to4, 4)
        << ",\n"
        << "  \"batch_speedup_16_vs_1\": " << fmtF(batchSpeedup16, 4)
        << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        out << "    { \"batch_size\": " << r.batchSize
            << ", \"workers\": " << r.workers << ", \"oversubscribed\": "
            << (r.oversubscribed ? "true" : "false")
            << ", \"wall_seconds\": " << fmtF(r.wallSeconds, 4)
            << ", \"requests_per_second\": "
            << fmtF(r.requestsPerSecond, 4)
            << ", \"requests_per_second_per_worker\": "
            << fmtF(r.perWorker, 4)
            << ", \"mean_latency_seconds\": "
            << fmtF(r.meanLatencySeconds, 4)
            << ", \"p50_latency_seconds\": "
            << fmtF(r.p50LatencySeconds, 4)
            << ", \"p95_latency_seconds\": "
            << fmtF(r.p95LatencySeconds, 4)
            << ", \"p99_latency_seconds\": "
            << fmtF(r.p99LatencySeconds, 4) << " }"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << outPath << "\n";
    return 0;
}
