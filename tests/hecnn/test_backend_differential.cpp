/**
 * @file
 * Cross-backend bitwise differential: every registered execution
 * backend must decrypt to exactly the same logits as the "cpu"
 * reference on the model zoo — not merely close, bit-for-bit equal.
 * "cpu-ref" exercises the eager-keyswitch scalar-kernel path and
 * "fpga-sim" the simulated executor, so an exact match here proves the
 * backend seam changes accounting only, never arithmetic. Run per
 * reachable SIMD level: the dispatch contract (all levels bitwise
 * identical) and the backend contract compose.
 */
#include <gtest/gtest.h>

#include <vector>

#include "src/dse/sim_backend_install.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/backend.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::hecnn {
namespace {

std::vector<simd::Level>
reachableLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512})
        if (simd::available(level))
            levels.push_back(level);
    return levels;
}

/** Logits of one seeded encrypted inference under @p backend. */
std::vector<double>
runWithBackend(const HeNetworkPlan &plan, const ckks::CkksContext &ctx,
               const std::string &backend, std::uint64_t seed,
               const nn::Tensor &input)
{
    ExecOptions exec;
    exec.backend = backend;
    const test_support::SerialInference serial(plan, ctx, seed, {}, exec);
    return serial.infer(input);
}

class BackendDifferential : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { dse::installFpgaSimBackend(); }
};

TEST_F(BackendDifferential, AllBackendsBitwiseIdenticalOnTestNetwork)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const nn::Tensor input = nn::syntheticInput(net, 11);
    constexpr std::uint64_t kSeed = 5;

    for (simd::Level level : reachableLevels()) {
        simd::ScopedLevel pin(level);
        const auto reference =
            runWithBackend(plan, ctx, "cpu", kSeed, input);
        ASSERT_FALSE(reference.empty());
        for (const std::string backend : {"cpu-ref", "fpga-sim"}) {
            const auto logits =
                runWithBackend(plan, ctx, backend, kSeed, input);
            ASSERT_EQ(logits.size(), reference.size())
                << backend << " at simd level "
                << simd::levelName(level);
            for (std::size_t i = 0; i < logits.size(); ++i)
                EXPECT_EQ(logits[i], reference[i])
                    << backend << " logit " << i
                    << " diverged bitwise at simd level "
                    << simd::levelName(level);
        }
    }
}

TEST_F(BackendDifferential, BackendsBitwiseIdenticalAcrossZooSeeds)
{
    // Several seeds on the test network: backend identity must hold
    // for every reachable level of the compiled plan, not one lucky
    // noise draw.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);

    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        const nn::Tensor input = nn::syntheticInput(net, seed + 100);
        const auto reference =
            runWithBackend(plan, ctx, "cpu", seed, input);
        for (const std::string backend : {"cpu-ref", "fpga-sim"}) {
            const auto logits =
                runWithBackend(plan, ctx, backend, seed, input);
            ASSERT_EQ(logits.size(), reference.size());
            for (std::size_t i = 0; i < logits.size(); ++i)
                EXPECT_EQ(logits[i], reference[i])
                    << backend << " seed " << seed << " logit " << i;
        }
    }
}

TEST_F(BackendDifferential, OutcomeReportsBackendNameAndOps)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const nn::Tensor input = nn::syntheticInput(net, 3);

    for (const std::string backend : {"cpu", "cpu-ref", "fpga-sim"}) {
        ExecOptions exec;
        exec.backend = backend;
        engine::EngineOptions opts;
        opts.workers = 1;
        opts.exec = exec;
        engine::InferenceEngine server(plan, ctx, opts);
        const auto outcome = server.runBatch({input}).front();
        EXPECT_EQ(outcome.backendName, backend);
        EXPECT_EQ(outcome.opsExecuted, plan.totalCounts().total())
            << backend
            << " must execute exactly the planned op count";
        if (backend == "fpga-sim") {
            EXPECT_EQ(outcome.simulated.size(), plan.layers.size());
            EXPECT_GT(outcome.simulatedSeconds(), 0.0);
        } else {
            EXPECT_TRUE(outcome.simulated.empty());
        }
    }
}

} // namespace
} // namespace fxhenn::hecnn
