#include <gtest/gtest.h>

#include "src/analysis/liveness.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/analysis/plan_fixtures.hpp"

namespace fxhenn::analysis {
namespace {

using fixtures::tinyPlan;
using hecnn::HeOpKind;

TEST(Liveness, TinyPlanHasNoDeadInstrs)
{
    const auto info = computeLiveness(tinyPlan());
    EXPECT_TRUE(info.deadInstrs.empty());
    ASSERT_EQ(info.peakLive.size(), 1u);
    EXPECT_GE(info.peakLive[0], 1u);
    EXPECT_EQ(info.peakLiveOverall, info.peakLive[0]);
}

TEST(Liveness, FlagsResultThatNeverReachesOutput)
{
    auto plan = tinyPlan();
    // r2 = r1 * pt0 is computed and never read again.
    plan.layers[0].instrs.push_back({HeOpKind::pcMult, 2, 1, 0, 0});
    const auto info = computeLiveness(plan);
    ASSERT_EQ(info.deadInstrs.size(), 1u);
    EXPECT_EQ(info.deadInstrs[0].layer, 0u);
    EXPECT_EQ(info.deadInstrs[0].instr, 2u);
}

TEST(Liveness, OnlyLastDeadWriteOfChainIsReported)
{
    auto plan = tinyPlan();
    // Dead chain: r2 = r1 * pt0; r2 = rot(r2). The rotate's operand
    // keeps the first write alive, so only the rotate is flagged —
    // deleting it exposes the next dead write on a re-run.
    plan.layers[0].instrs.push_back({HeOpKind::pcMult, 2, 1, 0, 0});
    plan.layers[0].instrs.push_back({HeOpKind::rotate, 2, 2, -1, 1});
    const auto info = computeLiveness(plan);
    ASSERT_EQ(info.deadInstrs.size(), 1u);
    EXPECT_EQ(info.deadInstrs[0].instr, 3u);
}

TEST(Liveness, PeakCountsSimultaneouslyLiveRegisters)
{
    using hecnn::HeLayerPlan;
    auto plan = tinyPlan();
    plan.inputGather.emplace_back(plan.params.n / 2, -1); // r1 input
    // r2 = r0 * pt0; r2 += r1: r0, r1 and r2 overlap in liveness.
    HeLayerPlan &layer = plan.layers[0];
    layer.instrs.clear();
    layer.instrs.push_back({HeOpKind::pcMult, 2, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::ccAdd, 2, 1, -1, 0});
    layer.levelOut = layer.levelIn;
    layer.outputLayout.pos.assign({{2, 0}});
    layer.outputLayout.regs.assign({2});
    plan.outputLayout = layer.outputLayout;
    const auto info = computeLiveness(plan);
    EXPECT_GE(info.peakLiveOverall, 2u);
    EXPECT_TRUE(info.deadInstrs.empty());
}

TEST(Liveness, CompiledMnistPlanIsFullyLive)
{
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    const auto info = computeLiveness(plan);
    EXPECT_TRUE(info.deadInstrs.empty())
        << "the compiler must not emit instructions whose results "
           "never reach the output";
    ASSERT_EQ(info.peakLive.size(), plan.layers.size());
    for (unsigned peak : info.peakLive)
        EXPECT_GE(peak, 1u);
    // The first conv holds all input tap ciphertexts live at once.
    EXPECT_GE(info.peakLive[0],
              static_cast<unsigned>(plan.inputCiphertexts()));
}

TEST(Liveness, ToleratesOutOfRangeRegisters)
{
    auto plan = tinyPlan();
    plan.layers[0].instrs.push_back({HeOpKind::copy, 99, -7, -1, 0});
    const auto info = computeLiveness(plan); // must not crash
    EXPECT_GE(info.peakLiveOverall, 1u);
}

} // namespace
} // namespace fxhenn::analysis
