/**
 * @file
 * Per-pass tests of the two noise-aware lint passes: NoiseBudgetPass
 * (pass 8, the static certifier's lint frontend — its error severity
 * is what makes `fxhenn lint` exit 4 on an uncertifiable plan) and
 * RescalePlacementPass (pass 9: missing / redundant / deferrable
 * rescales). Follows the fixture style of test_verifier.cpp: one
 * minimal mutation of tinyPlan per finding.
 */
#include <gtest/gtest.h>

#include "plan_fixtures.hpp"

#include "src/analysis/pass_manager.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::analysis {
namespace {

using fixtures::hasMessage;
using fixtures::runPass;
using fixtures::tinyPlan;
using hecnn::HeOpKind;

/** Two back-to-back pcMults on a 2-prime chain: valid but UNSAFE. */
hecnn::HeNetworkPlan
hotPlan()
{
    auto plan = tinyPlan();
    plan.name = "hot";
    plan.params = ckks::testParams(1024, 2, 30);
    plan.plaintexts[0].level = plan.params.levels;
    auto &layer = plan.layers[0];
    layer.levelIn = plan.params.levels;
    layer.levelOut = plan.params.levels;
    layer.instrs.clear();
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::pcMult, 1, 1, 0, 0});
    return plan;
}

TEST(NoiseBudgetPass, NotesCertifiedHeadroomOnCleanPlan)
{
    const auto report = runPass(makeNoiseBudgetPass(), tinyPlan());
    EXPECT_EQ(report.count(Severity::error), 0u);
    EXPECT_EQ(report.count(Severity::warning), 0u);
    EXPECT_TRUE(hasMessage(report, "certified minimum noise headroom"));
}

TEST(NoiseBudgetPass, ErrorsOnNegativeCertifiedHeadroom)
{
    const auto report = runPass(makeNoiseBudgetPass(), hotPlan());
    EXPECT_EQ(report.count(Severity::error), 1u);
    EXPECT_TRUE(
        hasMessage(report, "certified noise headroom is negative"));
}

TEST(NoiseBudgetPass, WarnsWhenCertificationItselfFails)
{
    auto plan = tinyPlan();
    plan.params.n = 0; // certifier reports invalid, never throws
    const auto report = runPass(makeNoiseBudgetPass(), plan);
    EXPECT_EQ(report.count(Severity::error), 0u);
    EXPECT_TRUE(hasMessage(report, "could not be noise-certified"));
}

TEST(NoiseBudgetPass, StandardPipelineExitsNonzeroOnUnsafePlan)
{
    // The `fxhenn lint` exit-4 contract rides on this: an UNSAFE plan
    // must produce at least one error-severity finding from the
    // standard pipeline.
    PassManager pm = PassManager::standard();
    const auto report = pm.run(hotPlan());
    EXPECT_GT(report.errorCount(), 0u);
}

TEST(RescalePlacementPass, CleanPlanHasNoFindingsAboveNote)
{
    const auto report =
        runPass(makeRescalePlacementPass(), tinyPlan());
    EXPECT_EQ(report.count(Severity::error), 0u);
    EXPECT_EQ(report.count(Severity::warning), 0u);
}

TEST(RescalePlacementPass, FlagsMissingRescaleBeforeSecondMultiply)
{
    auto plan = tinyPlan();
    auto &layer = plan.layers[0];
    layer.instrs.clear();
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::pcMult, 2, 1, 0, 0});

    const auto report = runPass(makeRescalePlacementPass(), plan);
    EXPECT_EQ(report.count(Severity::warning), 1u);
    EXPECT_TRUE(hasMessage(report, "missing rescale"));
}

TEST(RescalePlacementPass, FlagsRescaleResultOverwrittenUnread)
{
    auto plan = tinyPlan();
    auto &layer = plan.layers[0];
    layer.instrs.clear();
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::rescale, 1, 1, -1, 0});
    layer.instrs.push_back({HeOpKind::copy, 1, 0, -1, 0});

    const auto report = runPass(makeRescalePlacementPass(), plan);
    EXPECT_EQ(report.count(Severity::warning), 1u);
    EXPECT_TRUE(hasMessage(report, "redundant rescale"));
}

TEST(RescalePlacementPass, NotesDeferrableRescalesAtAlignedAdds)
{
    auto plan = tinyPlan();
    auto &layer = plan.layers[0];
    layer.instrs.clear();
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::rescale, 1, 1, -1, 0});
    layer.instrs.push_back({HeOpKind::pcMult, 2, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::rescale, 2, 2, -1, 0});
    layer.instrs.push_back({HeOpKind::ccAdd, 1, 2, -1, 0});

    const auto report = runPass(makeRescalePlacementPass(), plan);
    EXPECT_EQ(report.count(Severity::warning), 0u);
    EXPECT_TRUE(hasMessage(report, "deferring those rescales"));
}

} // namespace
} // namespace fxhenn::analysis
