#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>

#include "src/analysis/pass_manager.hpp"
#include "src/analysis/verifier.hpp"
#include "src/common/assert.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/robustness/fault_injection.hpp"
#include "tests/analysis/plan_fixtures.hpp"

namespace fxhenn::analysis {
namespace {

using fixtures::tinyPlan;
using hecnn::HeOpKind;

hecnn::HeNetworkPlan
brokenButLoadablePlan()
{
    // rotate-by-0 passes every loadPlan framing check but is an
    // error-severity verifier finding.
    auto plan = tinyPlan();
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 1, 1, -1, 0});
    return plan;
}

/** One compile configuration of the compile check. */
struct CompileCase
{
    const char *name;
    const char *model; ///< "test", "mnist" or "cifar10"
    hecnn::MatVecLowering matVec = hecnn::MatVecLowering::costModel;
    bool decomposeRotations = false;
    std::size_t lanes = 1;
};

/** Names the case in the test name (ctest shows the printed value). */
void
PrintTo(const CompileCase &c, std::ostream *os)
{
    *os << c.name;
}

hecnn::HeNetworkPlan
compileCase(const CompileCase &c)
{
    hecnn::CompileOptions options;
    options.matVec = c.matVec;
    options.decomposeRotations = c.decomposeRotations;
    options.batchLanes = c.lanes;
    const std::string model = c.model;
    if (model == "mnist")
        return hecnn::compile(nn::buildMnistNetwork(),
                              ckks::mnistParams(), options);
    if (model == "cifar10") {
        options.elideValues = true;
        return hecnn::compile(nn::buildCifar10Network(),
                              ckks::cifar10Params(), options);
    }
    return hecnn::compile(nn::buildTestNetwork(),
                          ckks::testParams(2048, 7, 30), options);
}

class CompileCheckTest : public ::testing::TestWithParam<CompileCase>
{};

/**
 * compile() is pure lowering, so its output is checked here: every
 * lowering the suites and the engine compile comes out of the standard
 * pipeline (noise budget included) with no finding, and its noise
 * certificate holds.
 */
TEST_P(CompileCheckTest, PlanIsLintCleanAndCertified)
{
    const auto plan = compileCase(GetParam());
    const auto report = PassManager::standard().run(plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_EQ(report.warningCount(), 0u) << report.toText();
    const auto cert = hecnn::certifyPlan(plan);
    ASSERT_TRUE(cert.valid) << cert.invalidReason;
    EXPECT_TRUE(cert.certified()) << cert.minHeadroomBits << " bits";
}

constexpr auto kLola = hecnn::MatVecLowering::lola;

INSTANTIATE_TEST_SUITE_P(
    Zoo, CompileCheckTest,
    ::testing::Values(
        CompileCase{"test", "test"},
        CompileCase{"test_lola", "test", kLola},
        CompileCase{"test_decomposed", "test", {}, true},
        CompileCase{"test_b2", "test", {}, false, 2},
        CompileCase{"test_b4", "test", {}, false, 4},
        CompileCase{"test_b16", "test", {}, false, 16},
        CompileCase{"test_lola_b4", "test", kLola, false, 4},
        CompileCase{"test_decomposed_b4", "test", {}, true, 4},
        CompileCase{"mnist", "mnist"},
        CompileCase{"mnist_lola", "mnist", kLola},
        CompileCase{"mnist_decomposed", "mnist", {}, true},
        CompileCase{"cifar10", "cifar10"},
        CompileCase{"cifar10_lola", "cifar10", kLola},
        CompileCase{"cifar10_decomposed", "cifar10", {}, true}));

TEST(CompileCheck, RejectsAPlanMissingARescale)
{
    // The check above can fail: drop the first rescale of a compiled
    // plan and both the pipeline and the certificate object.
    auto plan = compileCase({"test", "test"});
    auto &instrs = plan.layers[0].instrs;
    const auto it = std::find_if(instrs.begin(), instrs.end(),
                                 [](const hecnn::HeInstr &instr) {
                                     return instr.kind ==
                                            HeOpKind::rescale;
                                 });
    ASSERT_NE(it, instrs.end());
    instrs.erase(it);
    const auto report = PassManager::standard().run(plan);
    EXPECT_GT(report.errorCount(), 0u);
    const auto cert = hecnn::certifyPlan(plan);
    EXPECT_FALSE(cert.valid && cert.certified());
}

TEST(Verifier, ReportIsIdenticalAcrossSaveLoadRoundTrip)
{
    const auto plan = hecnn::compile(nn::buildTestNetwork(),
                                     ckks::testParams(2048, 7, 30));
    const auto before = verifyPlan(plan);
    EXPECT_EQ(before.errorCount(), 0u) << before.toText();

    std::stringstream ss;
    hecnn::savePlan(plan, ss);
    const auto loaded = hecnn::loadPlan(ss);
    const auto after = verifyPlan(loaded);

    EXPECT_EQ(before.toText(), after.toText())
        << "serialization must not change what the verifier sees";
    EXPECT_EQ(before.toJson(), after.toJson());
}

TEST(Verifier, VerifyPlanOrThrowRejectsBrokenPlans)
{
    EXPECT_NO_THROW(verifyPlanOrThrow(tinyPlan(), "test"));
    try {
        verifyPlanOrThrow(brokenButLoadablePlan(), "test");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "plan verification failed (test)"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("rotate by 0"),
                  std::string::npos);
    }
}

TEST(Verifier, LoadVerificationRejectsBrokenPlanOnLoad)
{
    std::stringstream good;
    hecnn::savePlan(tinyPlan(), good);
    EXPECT_NO_THROW(verifyPlanOrThrow(hecnn::loadPlan(good), "plan-load"));

    // The broken stream passes every loadPlan framing check; only the
    // verifier rejects it.
    std::stringstream bad;
    hecnn::savePlan(brokenButLoadablePlan(), bad);
    const auto loaded = hecnn::loadPlan(bad);
    try {
        verifyPlanOrThrow(loaded, "plan-load");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("plan-load"),
                  std::string::npos);
    }
}

TEST(Verifier, TruncationFaultIsDetectedBeforeVerification)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    robustness::armFault(
        robustness::parseFaultSpec("plan.load:truncate"));
    std::stringstream ss;
    hecnn::savePlan(tinyPlan(), ss);
    EXPECT_THROW(hecnn::loadPlan(ss), ConfigError);
    robustness::disarmFaults();
}

TEST(Verifier, CorruptionFaultIsDetectedBeforeVerification)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    robustness::armFault(
        robustness::parseFaultSpec("plan.load:corrupt"));
    std::stringstream ss;
    hecnn::savePlan(tinyPlan(), ss);
    EXPECT_THROW(hecnn::loadPlan(ss), ConfigError);
    robustness::disarmFaults();
}

} // namespace
} // namespace fxhenn::analysis
