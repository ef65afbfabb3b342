/**
 * @file
 * Executor-level bitwise differential: the default execution path
 * (lazy keyswitch reduction, widest reachable SIMD level) must decrypt
 * to exactly the logits of the reference path (eager keyswitch
 * reduction, scalar kernels) — not merely close, bit for bit. The two
 * paths share neither the kernel table nor the keyswitch reduction
 * schedule, so an exact match proves the fast path changes timing
 * only, never arithmetic. Also pins that the executor runs on the host
 * CPU only: any other ExecOptions::backend name is a ConfigError.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/assert.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::hecnn {
namespace {

/** The widest SIMD level this build and host reach. */
simd::Level
widestReachableLevel()
{
    for (simd::Level level : {simd::Level::avx512, simd::Level::avx2})
        if (simd::available(level))
            return level;
    return simd::Level::scalar;
}

class ExecutorDifferential : public ::testing::Test
{
  protected:
    ExecutorDifferential()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)),
          plan_(compile(net_, params_)), ctx_(params_)
    {}

    /** Logits of one seeded encrypted inference at @p level under
     * keyswitch mode @p ksw. */
    std::vector<double>
    runPinned(simd::Level level, ckks::KswMode ksw, std::uint64_t seed,
              const nn::Tensor &input) const
    {
        const simd::ScopedLevel pin(level);
        ExecOptions exec;
        exec.kswMode = ksw;
        const test_support::SerialInference serial(plan_, ctx_, seed, {},
                                                   exec);
        return serial.infer(input);
    }

    nn::Network net_;
    ckks::CkksParams params_;
    HeNetworkPlan plan_;
    ckks::CkksContext ctx_;
};

/*
 * The BackendDifferential suite compares execution configurations
 * (SIMD level x keyswitch reduction mode) against the reference
 * configuration (scalar kernels, eager reduction); it shares the
 * fixture above.
 */
using BackendDifferential = ExecutorDifferential;

TEST_F(BackendDifferential, AllBackendsBitwiseIdenticalOnTestNetwork)
{
    // Every reachable SIMD level under both keyswitch modes, one seed.
    const nn::Tensor input = nn::syntheticInput(net_, 11);
    constexpr std::uint64_t kSeed = 5;
    const auto reference =
        runPinned(simd::Level::scalar, ckks::KswMode::eager, kSeed, input);
    ASSERT_FALSE(reference.empty());
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
        if (!simd::available(level))
            continue;
        for (ckks::KswMode ksw :
             {ckks::KswMode::lazy, ckks::KswMode::eager}) {
            const auto logits = runPinned(level, ksw, kSeed, input);
            ASSERT_EQ(logits.size(), reference.size());
            for (std::size_t i = 0; i < logits.size(); ++i)
                EXPECT_EQ(logits[i], reference[i])
                    << "logit " << i << " diverged bitwise at simd level "
                    << simd::levelName(level) << ", "
                    << (ksw == ckks::KswMode::lazy ? "lazy" : "eager")
                    << " keyswitch";
        }
    }
}

TEST_F(BackendDifferential, BackendsBitwiseIdenticalAcrossZooSeeds)
{
    // The default path (lazy keyswitch, widest reachable SIMD level)
    // against the reference at several seeds: the identity must hold
    // for every noise draw, not one lucky one.
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
        const nn::Tensor input = nn::syntheticInput(net_, seed + 100);
        const auto fast = runPinned(widestReachableLevel(),
                                    ckks::KswMode::lazy, seed, input);
        const auto reference = runPinned(
            simd::Level::scalar, ckks::KswMode::eager, seed, input);
        ASSERT_FALSE(reference.empty());
        ASSERT_EQ(fast.size(), reference.size());
        for (std::size_t i = 0; i < fast.size(); ++i)
            EXPECT_EQ(fast[i], reference[i])
                << "seed " << seed << " logit " << i
                << " diverged bitwise at simd level "
                << simd::levelName(widestReachableLevel());
    }
}

TEST_F(ExecutorDifferential, OutcomeCountsEveryPlannedOp)
{
    const nn::Tensor input = nn::syntheticInput(net_, 3);
    for (ckks::KswMode ksw : {ckks::KswMode::lazy, ckks::KswMode::eager}) {
        engine::EngineOptions opts;
        opts.workers = 1;
        opts.exec.kswMode = ksw;
        engine::InferenceEngine server(plan_, ctx_, opts);
        const auto outcome = server.runBatch({input}).front();
        ASSERT_FALSE(outcome.degraded());
        EXPECT_EQ(outcome.opsExecuted, plan_.totalCounts().total())
            << "the executor must run exactly the planned op count";
    }
}

/*
 * ExecOptions::backend names where the executor runs; the host CPU
 * ("" or "cpu") is the only target, and any other name is refused at
 * executor construction.
 */
class BackendRegistry : public ExecutorDifferential
{
  protected:
    PlanExecutor
    build(const std::string &backend) const
    {
        ExecOptions exec;
        exec.backend = backend;
        return PlanExecutor(plan_, ctx_, session_.relinKey(),
                            session_.galoisKeys(), pool_, {}, exec);
    }

    const ClientSession session_{plan_, ctx_, 1};
    const PlaintextPool pool_{plan_, ctx_};
};

TEST_F(BackendRegistry, ResolveRejectsUnknownNames)
{
    EXPECT_NO_THROW(build(""));
    EXPECT_NO_THROW(build("cpu"));
    for (const char *other : {"bogus", "gpu", "CPU", "cpu-ref"})
        EXPECT_THROW(build(other), ConfigError) << other;
}

TEST_F(BackendRegistry, UnknownLookupThrowsConfigErrorListingNames)
{
    try {
        build("definitely-not-registered");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("definitely-not-registered"),
                  std::string::npos);
        EXPECT_NE(what.find("\"cpu\""), std::string::npos)
            << "the error must list the accepted names: " << what;
    }
}

/*
 * There is no simulated execution backend: simulated latency belongs
 * to a design point (dse::ExploreResult::simReplay), so a request for
 * a simulated backend must fail loudly instead of running on the CPU.
 */
using SimBackend = ExecutorDifferential;

TEST_F(SimBackend, UnknownBackendNameThrowsConfigError)
{
    for (const char *name : {"fpga-sim", "sim-test-never-registered"}) {
        ExecOptions exec;
        exec.backend = name;
        EXPECT_THROW(
            test_support::SerialInference(plan_, ctx_, 1, {}, exec),
            ConfigError)
            << name;
        engine::EngineOptions opts;
        opts.workers = 1;
        opts.exec = exec;
        EXPECT_THROW(engine::InferenceEngine(plan_, ctx_, opts),
                     ConfigError)
            << name;
    }
}

} // namespace
} // namespace fxhenn::hecnn
