#include <gtest/gtest.h>

#include "src/fpga/pipeline_sim.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::fpga {
namespace {

/** FxHENN-MNIST under the paper's LoLa dense lowering. */
hecnn::HeNetworkPlan
mnistLolaPlan()
{
    hecnn::CompileOptions options;
    options.matVec = hecnn::MatVecLowering::lola;
    return hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams(),
                          options);
}

TEST(PipelineSim, SingleStageSingleServerIsSerial)
{
    std::vector<SimStage> stages{{100.0, 1}};
    EXPECT_DOUBLE_EQ(simulatePipeline(5, stages), 500.0);
    EXPECT_DOUBLE_EQ(simulateSerial(5, stages), 500.0);
}

TEST(PipelineSim, TwoStagePipelineOverlaps)
{
    // Stages of 100 each: serial = items * 200; pipelined =
    // 100 * (items + 1).
    std::vector<SimStage> stages{{100.0, 1}, {100.0, 1}};
    EXPECT_DOUBLE_EQ(simulatePipeline(10, stages), 100.0 * 11);
    EXPECT_DOUBLE_EQ(simulateSerial(10, stages), 2000.0);
}

TEST(PipelineSim, BottleneckStageDominates)
{
    // Slow middle stage of 300: makespan ~ items * 300.
    std::vector<SimStage> stages{{100.0, 1}, {300.0, 1}, {50.0, 1}};
    const double t = simulatePipeline(20, stages);
    EXPECT_NEAR(t, 20 * 300.0 + 150.0, 300.0);
}

TEST(PipelineSim, ExtraServersRelieveBottleneck)
{
    std::vector<SimStage> one{{100.0, 1}, {300.0, 1}};
    std::vector<SimStage> three{{100.0, 1}, {300.0, 3}};
    const double t1 = simulatePipeline(30, one);
    const double t3 = simulatePipeline(30, three);
    EXPECT_LT(t3, t1 / 2.0);
    // With 3 servers the 300-cycle stage matches the 100-cycle feed.
    EXPECT_NEAR(t3, 30 * 100.0 + 300.0, 400.0);
}

TEST(PipelineSim, ZeroItemsOrStagesIsZero)
{
    EXPECT_DOUBLE_EQ(simulatePipeline(0, {{100.0, 1}}), 0.0);
    EXPECT_DOUBLE_EQ(simulatePipeline(5, {}), 0.0);
}

class SimVsModelTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(SimVsModelTest, SimulatorAgreesWithClosedFormPerLayer)
{
    // The event-driven schedule must land within 25 % of the Eq. 1-3
    // closed form for every layer and several parallelism settings.
    const auto plan = mnistLolaPlan();
    const unsigned inter = GetParam();

    ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};
    alloc[HeOpModule::keySwitch].pInter = inter;
    alloc[HeOpModule::rescale].pIntra = 2;

    for (const auto &layer : summarizeLayers(plan)) {
        const double sim = simulateLayer(layer, plan.params.n, alloc);
        const double model =
            evaluateLayer(layer, plan.params.n, alloc).cycles;
        EXPECT_NEAR(sim / model, 1.0, 0.25)
            << layer.name << " inter=" << inter << " sim=" << sim
            << " model=" << model;
    }
}

INSTANTIATE_TEST_SUITE_P(InterDegrees, SimVsModelTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(PipelineSim, FineGrainedPipelineBeatsSerial)
{
    // Fig. 2's claim: the pipelined NKS layer beats coarse serial
    // execution substantially.
    const auto plan = mnistLolaPlan();
    ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};
    const auto cnv = summarizeLayer(plan.layers[0]);
    const auto stages = layerStages(cnv, plan.params.n, alloc);
    const double pipelined = simulatePipeline(cnv.nIn, stages);
    const double serial = simulateSerial(cnv.nIn, stages);
    EXPECT_LT(pipelined, serial);
    EXPECT_GT(serial / pipelined, 1.2);
}

} // namespace
} // namespace fxhenn::fpga
