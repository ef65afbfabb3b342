/**
 * @file
 * The plan interpreter's contract: at every layer end, the shape
 * interpretPlan() predicts for each register equals the executed
 * ciphertext's level, part count and scale bit for bit, and the noise
 * certificate's per-layer scale is the interpreted output scale.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plan_interp.hpp"
#include "src/hecnn/rescale_rewriter.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

/** The interpreted register file at each layer end. */
std::vector<std::vector<RegShape>>
interpretedLayers(const HeNetworkPlan &plan)
{
    struct Recorder
    {
        std::vector<std::vector<RegShape>> layers;

        bool
        step(const InterpStep &s, std::span<const RegShape>)
        {
            EXPECT_FALSE(s.fault.has_value()) << *s.fault;
            return true;
        }

        bool
        layerEnd(std::size_t, std::span<const RegShape> regs)
        {
            layers.emplace_back(regs.begin(), regs.end());
            return true;
        }
    } recorder;
    EXPECT_TRUE(
        interpretPlan(plan, interpDomain(plan.params), recorder));
    return recorder.layers;
}

/**
 * Execute @p plan once on @p inputs and compare every register at
 * every layer end with the interpretation, then the certificate's
 * per-layer scale with the interpreted output registers.
 */
void
expectInterpreterMatches(const HeNetworkPlan &plan,
                         const ckks::CkksContext &ctx,
                         const ClientSession &session,
                         std::vector<ckks::Ciphertext> inputs)
{
    const auto shapes = interpretedLayers(plan);
    ASSERT_EQ(shapes.size(), plan.layers.size());

    const PlaintextPool pool(plan, ctx);
    const PlanExecutor exec(plan, ctx, session.relinKey(),
                            session.galoisKeys(), pool);
    std::size_t probed = 0;
    RunControl control;
    control.layerProbe =
        [&](std::size_t li,
            std::span<const std::optional<ckks::Ciphertext>> regs) {
            ++probed;
            ASSERT_EQ(regs.size(), shapes[li].size());
            for (std::size_t r = 0; r < regs.size(); ++r) {
                const RegShape &want = shapes[li][r];
                const std::string where = plan.layers[li].name + " r" +
                                          std::to_string(r);
                ASSERT_EQ(regs[r].has_value(), want.written) << where;
                if (!want.written)
                    continue;
                EXPECT_EQ(regs[r]->level(), want.level) << where;
                EXPECT_EQ(regs[r]->size(), want.parts) << where;
                EXPECT_EQ(regs[r]->scale, want.scale) << where;
            }
        };
    const auto result = exec.execute(std::move(inputs), control);
    ASSERT_FALSE(result.degraded()) << result.failure->render();
    EXPECT_EQ(probed, plan.layers.size());

    const auto cert = certifyPlan(plan);
    ASSERT_TRUE(cert.valid) << cert.invalidReason;
    ASSERT_EQ(cert.layers.size(), plan.layers.size());
    for (std::size_t li = 0; li < plan.layers.size(); ++li) {
        double max_scale = 0.0;
        for (const std::int32_t r :
             layerOutputRegs(plan.layers[li], shapes[li]))
            max_scale = std::max(
                max_scale, shapes[li][static_cast<std::size_t>(r)].scale);
        ASSERT_GT(max_scale, 0.0) << plan.layers[li].name;
        EXPECT_EQ(cert.layers[li].scaleBits, std::log2(max_scale))
            << plan.layers[li].name;
    }
}

class PlanInterpTest : public ::testing::Test
{
  protected:
    PlanInterpTest()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)), ctx_(params_)
    {
    }

    nn::Network net_;
    ckks::CkksParams params_;
    ckks::CkksContext ctx_;
};

TEST_F(PlanInterpTest, MatchesExecutionOnTestNetwork)
{
    const auto plan = compile(net_, params_);
    const ClientSession session(plan, ctx_, 3);
    expectInterpreterMatches(
        plan, ctx_, session,
        session.encryptInput(nn::syntheticInput(net_, 3)));
}

TEST_F(PlanInterpTest, MatchesExecutionOnBatchedPlan)
{
    CompileOptions options;
    options.batchLanes = 4;
    const auto plan = compile(net_, params_, options);
    const ClientSession session(plan, ctx_, 5);
    std::vector<nn::Tensor> inputs;
    std::vector<const nn::Tensor *> members;
    for (std::uint64_t i = 0; i < plan.batchLanes; ++i)
        inputs.push_back(nn::syntheticInput(net_, 20 + i));
    for (const auto &input : inputs)
        members.push_back(&input);
    const std::vector<std::uint64_t> indices = {0, 1, 2, 3};
    expectInterpreterMatches(
        plan, ctx_, session,
        session.encryptInputBatch(
            members, ClientSession::batchRequestKey(indices)));
}

TEST_F(PlanInterpTest, MatchesExecutionOnRewrittenPlan)
{
    auto plan = compile(net_, params_);
    const auto summary = rewriteRescales(plan);
    ASSERT_TRUE(summary.applied) << summary.reason;
    const ClientSession session(plan, ctx_, 7);
    expectInterpreterMatches(
        plan, ctx_, session,
        session.encryptInput(nn::syntheticInput(net_, 7)));
}

} // namespace
} // namespace fxhenn::hecnn
