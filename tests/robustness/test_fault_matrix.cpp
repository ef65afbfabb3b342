/**
 * @file
 * The fault matrix: every site x kind in robustness::faultRegistry()
 * must be injected, detected, and classified as the class the registry
 * documents — a fault that is silently swallowed fails the test, and a
 * registry row without a scenario here fails it too.
 */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/common/assert.hpp"
#include "src/dse/explorer.hpp"
#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/hecnn/verify.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/robustness/fault_injection.hpp"

namespace fxhenn {
namespace {

const char *
detectionName(bool configError, bool failureReport)
{
    if (configError)
        return "ConfigError";
    if (failureReport)
        return "FailureReport";
    return "undetected";
}

class FaultMatrixTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!robustness::faultInjectCompiledIn())
            GTEST_SKIP() << "fault injection compiled out";
        robustness::disarmFaults();
    }

    void
    TearDown() override
    {
        robustness::disarmFaults();
    }
};

/** Save + reload a plan with the armed plan.load fault. */
const char *
runPlanLoadScenario()
{
    const auto plan = hecnn::compile(nn::buildTestNetwork(),
                                     ckks::testParams(2048, 7, 30));
    std::ostringstream os;
    hecnn::savePlan(plan, os);
    std::istringstream is(os.str());
    try {
        hecnn::loadPlan(is);
    } catch (const ConfigError &) {
        return detectionName(true, false);
    }
    return detectionName(false, false);
}

/** Guarded encrypted-vs-plaintext run with the armed runtime fault. */
const char *
runVerifyScenario()
{
    const auto result = hecnn::verifyAgainstPlaintext(
        nn::buildTestNetwork(), ckks::testParams(2048, 7, 30), 1, 1,
        robustness::GuardOptions{robustness::GuardPolicy::degrade});
    return detectionName(false, result.failure.has_value());
}

/**
 * Streaming engine request with the armed serving-tier fault.
 * engine.queue:delay stalls the worker's queue pop past a short
 * request deadline (the fault seed scales the stall), so the request
 * is shed with a FailureReport instead of executing; for
 * engine.request:transient the probe in runGroup() degrades the
 * attempt directly (retries stay disabled here so the failure
 * surfaces instead of being cleared).
 */
const char *
runEngineScenario(bool withDeadline)
{
    const auto plan = hecnn::compile(nn::buildTestNetwork(),
                                     ckks::testParams(2048, 7, 30));
    const ckks::CkksContext ctx(ckks::testParams(2048, 7, 30));
    engine::EngineOptions opts;
    opts.workers = 1;
    engine::InferenceEngine eng(plan, ctx, opts);
    engine::RequestOptions req;
    if (withDeadline)
        req.deadlineSeconds = 0.005;
    auto future = eng.submit(
        nn::syntheticInput(nn::buildTestNetwork(), 1), req);
    const auto outcome = future.get();
    return detectionName(false, outcome.degraded());
}

/** DSE run with the armed device fault. */
const char *
runDseScenario()
{
    const auto plan = hecnn::compile(nn::buildTestNetwork(),
                                     ckks::testParams(2048, 7, 30));
    try {
        dse::explore(plan, fpga::acu9eg());
    } catch (const ConfigError &) {
        return detectionName(true, false);
    }
    return detectionName(false, false);
}

TEST_F(FaultMatrixTest, EveryRegisteredFaultIsDetectedAndClassified)
{
    for (const auto &info : robustness::faultRegistry()) {
        SCOPED_TRACE(std::string(info.site) + ":" + info.kind +
                     " (expected " + info.detectedAs + ")");
        robustness::disarmFaults();
        robustness::armFault({info.site, info.kind, 1, 1});

        const std::string site = info.site;
        const char *got = nullptr;
        if (site == "plan.load") {
            got = runPlanLoadScenario();
        } else if (site == "evaluator.rescale" ||
                   site == "evaluator.scale" ||
                   site == "ciphertext.limb") {
            got = runVerifyScenario();
        } else if (site == "dse.device") {
            got = runDseScenario();
        } else if (site == "engine.queue") {
            // Seed 5 -> a 100 ms injected stall, far past the 5 ms
            // deadline: the pop-side check sheds deterministically.
            robustness::disarmFaults();
            robustness::armFault({info.site, info.kind, 1, 5});
            got = runEngineScenario(/*withDeadline=*/true);
        } else if (site == "engine.request") {
            got = runEngineScenario(/*withDeadline=*/false);
        } else {
            ADD_FAILURE()
                << "fault site '" << site << "' has no scenario in "
                << "the matrix test — add one alongside the registry "
                << "row";
            continue;
        }

        EXPECT_GE(robustness::faultFireCount(), 1u)
            << "the armed fault never fired: the probe for this site "
            << "is missing or unreachable";
        EXPECT_STREQ(got, info.detectedAs)
            << "fault was not detected as the class the registry "
            << "documents";
    }
}

} // namespace
} // namespace fxhenn
