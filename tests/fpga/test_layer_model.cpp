#include <gtest/gtest.h>

#include <algorithm>

#include "src/fpga/layer_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::fpga {
namespace {

/** Table IV ratios are the paper's LoLa lowering's. */
hecnn::CompileOptions
lolaOptions()
{
    hecnn::CompileOptions options;
    options.matVec = hecnn::MatVecLowering::lola;
    return options;
}

class LayerModelTest : public ::testing::Test
{
  protected:
    LayerModelTest()
        : plan_(hecnn::compile(nn::buildMnistNetwork(),
                               ckks::mnistParams(), lolaOptions())),
          work_(summarizeLayers(plan_))
    {
        for (auto &op : base_.ops)
            op = {2, 1, 1};
    }

    hecnn::HeNetworkPlan plan_;
    std::vector<LayerWork> work_;
    ModuleAllocation base_;
};

TEST_F(LayerModelTest, OpCountsMatchPlanCounts)
{
    ASSERT_EQ(work_.size(), plan_.layers.size());
    for (std::size_t i = 0; i < work_.size(); ++i) {
        const auto &layer = work_[i];
        const auto c = plan_.layers[i].counts();
        EXPECT_EQ(layer.name, plan_.layers[i].name);
        EXPECT_EQ(layer.levelIn, plan_.layers[i].levelIn);
        EXPECT_EQ(layer.nIn, plan_.layers[i].nIn);
        EXPECT_EQ(opCount(layer, HeOpModule::pcMult), c.pcMult);
        EXPECT_EQ(opCount(layer, HeOpModule::ccAdd), c.ccAdd);
        EXPECT_EQ(opCount(layer, HeOpModule::ccMult), c.ccMult);
        EXPECT_EQ(opCount(layer, HeOpModule::rescale), c.rescale);
        EXPECT_EQ(opCount(layer, HeOpModule::keySwitch), c.keySwitch());
        // Every used module appears once in the stage order.
        const auto used = modulesUsed(layer);
        EXPECT_EQ(layer.order.size(),
                  std::size_t(std::count(used.begin(), used.end(), true)))
            << layer.name;
    }
}

TEST_F(LayerModelTest, StageOrderIsFirstUseInProgram)
{
    // Act1 is CCmult -> Relinearize -> Rescale per ciphertext.
    const auto &act = work_[1];
    ASSERT_EQ(act.order.size(), 3u) << act.name;
    EXPECT_EQ(act.order[0], HeOpModule::ccMult);
    EXPECT_EQ(act.order[1], HeOpModule::keySwitch);
    EXPECT_EQ(act.order[2], HeOpModule::rescale);
}

TEST_F(LayerModelTest, MoreParallelismNeverSlower)
{
    // Latency must be monotone non-increasing in every knob.
    for (const auto &layer : work_) {
        const double base_cycles =
            evaluateLayer(layer, plan_.params.n, base_).cycles;
        for (auto op : {HeOpModule::rescale, HeOpModule::keySwitch}) {
            ModuleAllocation more = base_;
            more[op].pIntra = 4;
            EXPECT_LE(evaluateLayer(layer, plan_.params.n, more).cycles,
                      base_cycles)
                << layer.name << " intra " << moduleName(op);
            more = base_;
            more[op].pInter = 3;
            EXPECT_LE(evaluateLayer(layer, plan_.params.n, more).cycles,
                      base_cycles)
                << layer.name << " inter " << moduleName(op);
            more = base_;
            more[op].ncNtt = 8;
            EXPECT_LE(evaluateLayer(layer, plan_.params.n, more).cycles,
                      base_cycles)
                << layer.name << " nc " << moduleName(op);
        }
    }
}

TEST_F(LayerModelTest, ResourcesMonotoneInParallelism)
{
    for (const auto &layer : work_) {
        const auto base_perf = evaluateLayer(layer, plan_.params.n,
                                             base_);
        ModuleAllocation more = base_;
        more[HeOpModule::keySwitch].pIntra = 3;
        const auto more_perf =
            evaluateLayer(layer, plan_.params.n, more);
        EXPECT_GE(more_perf.dsp, base_perf.dsp) << layer.name;
        EXPECT_GE(more_perf.bramBlocks, base_perf.bramBlocks)
            << layer.name;
    }
}

TEST_F(LayerModelTest, Cnv1IsRescaleBoundNks)
{
    // The conv layer has no KeySwitch; its pipeline bottleneck is the
    // Rescale module (Fig. 2's unbalanced coarse stage).
    const auto perf =
        evaluateLayer(work_[0], plan_.params.n, base_);
    EXPECT_EQ(perf.bottleneck, HeOpModule::rescale);
    EXPECT_EQ(plan_.layers[0].cls(), hecnn::LayerClass::nks);
}

TEST_F(LayerModelTest, FcLayersAreKeySwitchBound)
{
    const auto fc1 =
        evaluateLayer(work_[2], plan_.params.n, base_);
    EXPECT_EQ(fc1.bottleneck, HeOpModule::keySwitch);
}

TEST_F(LayerModelTest, OffChipDegradesFcMoreThanConv)
{
    // Table III: Fc1 degrades ~140X, Cnv1 ~16X when buffers move to
    // DRAM.
    const auto &cnv = work_[0];
    const auto &fc = work_[2];
    const double cnv_ratio =
        evaluateLayer(cnv, plan_.params.n, base_, 0.0).cycles /
        evaluateLayer(cnv, plan_.params.n, base_).cycles;
    const double fc_ratio =
        evaluateLayer(fc, plan_.params.n, base_, 0.0).cycles /
        evaluateLayer(fc, plan_.params.n, base_).cycles;
    EXPECT_NEAR(cnv_ratio, 16.0, 3.0);
    EXPECT_NEAR(fc_ratio, 140.0, 25.0);
    EXPECT_GT(fc_ratio / cnv_ratio, 5.0);
}

TEST_F(LayerModelTest, PartialSpillInterpolates)
{
    const auto &fc = work_[2];
    const auto full = evaluateLayer(fc, plan_.params.n, base_);
    const auto half = evaluateLayer(fc, plan_.params.n, base_,
                                    full.bramBlocks / 2.0);
    const auto none = evaluateLayer(fc, plan_.params.n, base_, 0.0);
    EXPECT_GT(half.cycles, full.cycles);
    EXPECT_LT(half.cycles, none.cycles);
    EXPECT_DOUBLE_EQ(half.bramBlocks, full.bramBlocks / 2.0);
}

TEST_F(LayerModelTest, SharedVsDedicatedAccounting)
{
    // Shared evaluation: physical BRAM = max over layers, aggregate =
    // sum; dedicated: physical = aggregate.
    const auto shared = evaluateNetworkShared(work_, plan_.params.n, base_);
    double max_bram = 0.0, sum_bram = 0.0;
    for (const auto &lp : shared.layers) {
        max_bram = std::max(max_bram, lp.bramBlocks);
        sum_bram += lp.bramBlocks;
    }
    EXPECT_DOUBLE_EQ(shared.bramPhysical, max_bram);
    EXPECT_DOUBLE_EQ(shared.bramAggregate, sum_bram);
    EXPECT_GT(shared.bramAggregate, shared.bramPhysical);

    std::vector<ModuleAllocation> dedicated(plan_.layers.size(), base_);
    const auto ded = evaluateNetworkDedicated(work_, plan_.params.n,
                                              dedicated);
    EXPECT_DOUBLE_EQ(ded.bramPhysical, ded.bramAggregate);
    EXPECT_GE(ded.dspPhysical, shared.dspPhysical)
        << "module reuse must not increase physical DSP";
}

TEST_F(LayerModelTest, HeMacRatioMatchesTableIV)
{
    // Table IV: HE-MACs(Fc1) / HE-MACs(Cnv1) ~ 12.95X (vs 4X plain).
    const double cnv = layerModMuls(work_[0], plan_.params.n);
    const double fc = layerModMuls(work_[2], plan_.params.n);
    EXPECT_GT(fc / cnv, 5.0);
    EXPECT_LT(fc / cnv, 40.0);
    // And the absolute blow-up versus plain MACs is >= 3 orders.
    const auto net = nn::buildMnistNetwork();
    EXPECT_GT(cnv / double(net.layer(0).macs()), 1000.0);
}

TEST_F(LayerModelTest, AggregateDspCanExceedPhysical)
{
    // Table IX's signature: with shared modules the per-layer usage
    // sums past the instantiated slices.
    ModuleAllocation alloc = base_;
    alloc[HeOpModule::keySwitch].pInter = 2;
    const auto perf = evaluateNetworkShared(work_, plan_.params.n, alloc);
    EXPECT_GT(perf.dspAggregate, perf.dspPhysical);
}

} // namespace
} // namespace fxhenn::fpga
