#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/pass_manager.hpp"
#include "tests/analysis/plan_fixtures.hpp"

namespace fxhenn::analysis {
namespace {

using fixtures::hasMessage;
using fixtures::runPass;
using fixtures::tinyPlan;
using hecnn::HeOpKind;

TEST(Passes, TinyPlanIsCleanUnderTheFullPipeline)
{
    const auto report = PassManager::standard().run(tinyPlan());
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_EQ(report.warningCount(), 0u) << report.toText();
}

TEST(Passes, StandardPipelineHasEightPasses)
{
    const auto pm = PassManager::standard();
    const std::vector<std::string> expected{
        "def-use",       "scale-level", "liveness",
        "rotation-keys", "slot-layout", "noise-budget",
        "rescale-placement", "batch-layout"};
    ASSERT_EQ(pm.passes().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(pm.passes()[i]->name(), expected[i]);
        EXPECT_NE(pm.passes()[i]->description()[0], '\0');
    }
}

// --- pass 1: def-use -------------------------------------------------------

TEST(DefUsePass, FlagsReadOfUnwrittenRegister)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs[0].src = 2; // r2 is never written
    const auto report = runPass(makeDefUsePass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "before any instruction writes"));
}

TEST(DefUsePass, FlagsOutOfRangeRegister)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs[0].dst = 7;
    const auto report = runPass(makeDefUsePass(), plan);
    EXPECT_GE(report.errorCount(), 1u);
    EXPECT_TRUE(hasMessage(report, "outside the file"));
}

TEST(DefUsePass, FlagsUnwrittenOutputRegister)
{
    auto plan = tinyPlan();
    plan.outputLayout.pos.assign({{2, 0}});
    plan.outputLayout.regs.assign({2});
    const auto report = runPass(makeDefUsePass(), plan);
    EXPECT_TRUE(hasMessage(report, "never written by any layer"));
}

TEST(DefUsePass, CcAddReadsItsDestination)
{
    auto plan = tinyPlan();
    // r2 += r1 with r2 unwritten: the accumulate reads garbage.
    plan.layers[0].instrs.push_back({HeOpKind::ccAdd, 2, 1, -1, 0});
    const auto report = runPass(makeDefUsePass(), plan);
    EXPECT_TRUE(hasMessage(report, "reads r2"));
}

// --- pass 2: scale & level -------------------------------------------------

TEST(ScaleLevelPass, FlagsPlaintextLevelMismatchOnPcMult)
{
    auto plan = tinyPlan();
    plan.plaintexts[0].level = 3; // operand arrives at level 4
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "encoded at level 3"));
}

TEST(ScaleLevelPass, WarnsOnStaleBiasLevelMetadata)
{
    auto plan = tinyPlan();
    // Bias add after the rescale: operand level 3, pool metadata 4.
    plan.plaintexts.push_back(plan.plaintexts[0]);
    plan.plaintexts[1].atSchemeScale = false;
    plan.layers[0].instrs.push_back({HeOpKind::pcAdd, 1, 1, 1, 0});
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_EQ(report.warningCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "stale level metadata"));
}

TEST(ScaleLevelPass, FlagsDoubleRescale)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs.push_back({HeOpKind::rescale, 1, 1, -1, 0});
    plan.layers[0].levelOut = 2;
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(hasMessage(report, "double rescale"))
        << report.toText();
}

TEST(ScaleLevelPass, FlagsLevelUnderflow)
{
    auto plan = tinyPlan();
    auto &instrs = plan.layers[0].instrs;
    // Burn every level, then rescale once more at level 1.
    instrs.clear();
    for (int round = 0; round < 4; ++round) {
        instrs.push_back({HeOpKind::pcMult, 1, round == 0 ? 0 : 1, 0,
                          0});
        instrs.push_back({HeOpKind::rescale, 1, 1, -1, 0});
    }
    plan.layers[0].levelOut = 1;
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(hasMessage(report, "level underflow"))
        << report.toText();
}

TEST(ScaleLevelPass, FlagsScaleMismatchedAdd)
{
    auto plan = tinyPlan();
    plan.inputGather.emplace_back(plan.params.n / 2, -1); // r1 input
    auto &layer = plan.layers[0];
    layer.instrs.clear();
    // r2 = r0 * pt0 (scale Delta^2); r2 += r1 (scale Delta). Garbage.
    layer.instrs.push_back({HeOpKind::pcMult, 2, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::ccAdd, 2, 1, -1, 0});
    layer.levelOut = layer.levelIn;
    layer.outputLayout.pos.assign({{2, 0}});
    layer.outputLayout.regs.assign({2});
    plan.outputLayout = layer.outputLayout;
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(hasMessage(report, "ccAdd scale mismatch"))
        << report.toText();
}

TEST(ScaleLevelPass, FlagsLevelOutMetadataDisagreement)
{
    auto plan = tinyPlan();
    plan.layers[0].levelOut = 2; // stream actually ends at level 3
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(
        hasMessage(report, "levelOut metadata disagrees"))
        << report.toText();
}

TEST(ScaleLevelPass, FlagsBrokenLevelChainBetweenLayers)
{
    auto plan = tinyPlan();
    hecnn::HeLayerPlan next;
    next.name = "L1";
    next.levelIn = 2; // L0 ends at 3
    next.levelOut = 2;
    next.nIn = 1;
    next.instrs.push_back({HeOpKind::copy, 2, 1, -1, 0});
    next.outputLayout.pos.assign({{2, 0}});
    next.outputLayout.regs.assign({2});
    plan.layers.push_back(std::move(next));
    plan.outputLayout = plan.layers.back().outputLayout;
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(hasMessage(report, "level chain broken"))
        << report.toText();
}

TEST(ScaleLevelPass, FlagsMultiplyWhoseScaleOverflowsTheModulus)
{
    auto plan = tinyPlan();
    // Back-to-back pcMult without rescale: scale Delta^3 = 2^90 at
    // level 4 still fits (log Q ~ 120), a third multiply does not.
    auto &instrs = plan.layers[0].instrs;
    instrs.clear();
    instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    instrs.push_back({HeOpKind::pcMult, 1, 1, 0, 0});
    instrs.push_back({HeOpKind::pcMult, 1, 1, 0, 0});
    instrs.push_back({HeOpKind::pcMult, 1, 1, 0, 0});
    plan.layers[0].levelOut = 4;
    const auto report = runPass(makeScaleLevelPass(), plan);
    EXPECT_TRUE(hasMessage(report, "exceeds the modulus"))
        << report.toText();
}

// --- pass 3: liveness ------------------------------------------------------

TEST(LivenessPass, WarnsOnDeadInstructionAndReportsPeak)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs.push_back({HeOpKind::pcMult, 2, 1, 0, 0});
    const auto report = runPass(makeLivenessPass(), plan);
    EXPECT_EQ(report.warningCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "never reaches the network"));
    EXPECT_EQ(report.count(Severity::note), 1u);
    EXPECT_TRUE(hasMessage(report, "peak live registers"));
}

// --- pass 4: rotation keys -------------------------------------------------

TEST(RotationKeyPass, FlagsRotateByZero)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 1, 1, -1, 0});
    const auto report = runPass(makeRotationKeyPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "rotate by 0"));
}

TEST(RotationKeyPass, FlagsStepOutsideTheSlotRing)
{
    auto plan = tinyPlan(); // 512 slots
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 1, 1, -1, 600});
    const auto report = runPass(makeRotationKeyPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "outside the slot ring"));
}

TEST(RotationKeyPass, WarnsOnOversizedGaloisKeySet)
{
    auto plan = tinyPlan();
    for (int step = 1; step <= 49; ++step) {
        plan.layers[0].instrs.push_back(
            {HeOpKind::rotate, 1, 1, -1, step});
    }
    const auto report = runPass(makeRotationKeyPass(), plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "distinct rotation steps"));
}

// --- pass 5: slot layout ---------------------------------------------------

TEST(LayoutPass, FlagsGatherSlotCountMismatch)
{
    auto plan = tinyPlan();
    plan.inputGather[0].resize(10);
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_TRUE(hasMessage(report, "the ring has"))
        << report.toText();
}

TEST(LayoutPass, FlagsSlotOutsideTheRing)
{
    auto plan = tinyPlan();
    plan.outputLayout.pos.assign({{1, 5000}});
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_TRUE(hasMessage(report, "outside [0, 512)"))
        << report.toText();
}

TEST(LayoutPass, FlagsCarrierListOmission)
{
    auto plan = tinyPlan();
    plan.layers[0].outputLayout.regs.assign({0}); // r1 holds the data
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_TRUE(hasMessage(report, "carrier list omits"))
        << report.toText();
}

TEST(LayoutPass, FlagsCorruptPlaintextPool)
{
    auto plan = tinyPlan();
    plan.plaintexts[0].level = 0;
    plan.plaintexts[0].values.resize(5);
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_GE(report.errorCount(), 2u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "encoded at level 0"));
    EXPECT_TRUE(hasMessage(report, "has 5 values"));
}

TEST(LayoutPass, FlagsOutOfPoolPlaintextReference)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs[0].pt = 42;
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_TRUE(hasMessage(report, "outside the pool"))
        << report.toText();
}

TEST(LayoutPass, WarnsOnStrayPlaintextOperand)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs[1].pt = 0; // rescale carries a pt
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "stray plaintext operand"));
}

TEST(LayoutPass, WarnsOnZeroInputCiphertexts)
{
    auto plan = tinyPlan();
    plan.layers[0].nIn = 0;
    const auto report = runPass(makeLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_EQ(report.warningCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "zero input ciphertexts"));
}

// --- pass 8: batch layout --------------------------------------------------

// tinyPlan() with B=2 lanes is already stride-aligned: its only data
// slot is 0 (lane 0 of virtual slot 0) and its plaintext is constant.
static hecnn::HeNetworkPlan
tinyBatchedPlan(std::size_t lanes = 2)
{
    auto plan = tinyPlan();
    plan.batchLanes = lanes;
    return plan;
}

TEST(BatchLayoutPass, CleanOnAlignedBatchedPlan)
{
    const auto report =
        runPass(makeBatchLayoutPass(), tinyBatchedPlan());
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
}

TEST(BatchLayoutPass, SilentOnUnbatchedPlan)
{
    const auto report = runPass(makeBatchLayoutPass(), tinyPlan());
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
    EXPECT_EQ(report.warningCount(), 0u) << report.toText();
}

TEST(BatchLayoutPass, FlagsZeroLanes)
{
    auto plan = tinyBatchedPlan(0);
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "batchLanes is 0"));
}

TEST(BatchLayoutPass, FlagsLaneCountNotDividingTheRing)
{
    auto plan = tinyBatchedPlan(3); // 512 % 3 != 0
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "does not divide the slot count"));
}

TEST(BatchLayoutPass, FlagsLaneCrossingRotation)
{
    auto plan = tinyBatchedPlan();
    // Stride-1 rotation on a 2-lane plan: permutes data BETWEEN the
    // two interleaved requests.
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 1, 1, -1, 3});
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "moves data between requests"));
}

TEST(BatchLayoutPass, AcceptsStrideAlignedRotation)
{
    auto plan = tinyBatchedPlan();
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 1, 1, -1, 4});
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_EQ(report.errorCount(), 0u) << report.toText();
}

TEST(BatchLayoutPass, FlagsMisalignedLayoutSlot)
{
    auto plan = tinyBatchedPlan();
    plan.outputLayout.pos.assign({{1, 1}}); // lane 1 of slot 0
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_GE(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "address lane 0 only"));
}

TEST(BatchLayoutPass, FlagsPerRequestCapacityOverflow)
{
    // 256 lanes on a 512-slot ring leave 2 virtual slots per request;
    // a register carrying 3 elements cannot fit any single lane.
    auto plan = tinyBatchedPlan(256);
    plan.layers[0].outputLayout.pos.assign({{1, 0}, {1, 0}, {1, 256}});
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_GE(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "slots per request"));
}

TEST(BatchLayoutPass, FlagsMisalignedGatherEntry)
{
    auto plan = tinyBatchedPlan();
    plan.inputGather[0][1] = 0; // element parked on lane 1
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_GE(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "siblings are filled at encrypt"));
}

TEST(BatchLayoutPass, FlagsNonBroadcastPlaintext)
{
    auto plan = tinyBatchedPlan();
    plan.plaintexts[0].values[1] = 0.7; // lane 1 differs from lane 0
    const auto report = runPass(makeBatchLayoutPass(), plan);
    EXPECT_GE(report.errorCount(), 1u) << report.toText();
    EXPECT_TRUE(hasMessage(report, "not lane-constant"));
}

// --- hostile input ---------------------------------------------------------

TEST(Passes, PipelineSurvivesInvalidParameters)
{
    auto plan = tinyPlan();
    plan.params.n = 17; // not a power of two
    const auto report = PassManager::standard().run(plan);
    EXPECT_GE(report.errorCount(), 1u);
    EXPECT_TRUE(hasMessage(report, "parameters are invalid"))
        << report.toText();
}

} // namespace
} // namespace fxhenn::analysis
