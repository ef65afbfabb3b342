/**
 * @file
 * Hand-computed checks of the Bn/Bb buffer model (Eqs. 8-9 and the
 * Sec. VI-A reuse rules) at pinned parameter points, so regressions in
 * the formulas are caught against known-good arithmetic rather than
 * only monotonicity.
 */
#include <gtest/gtest.h>

#include "src/fpga/layer_model.hpp"
#include "src/fpga/op_model.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::fpga {
namespace {

TEST(BufferModel, LimbBlocksHandComputed)
{
    // One limb = N words of <=36 bits; a BRAM36K holds 1024 words.
    EXPECT_EQ(limbBufferBlocks(8192, 2), 8u);   // 8192/1024
    EXPECT_EQ(limbBufferBlocks(8192, 4), 8u);   // dual-port covers 4
    EXPECT_EQ(limbBufferBlocks(8192, 8), 16u);  // partition doubling
    EXPECT_EQ(limbBufferBlocks(16384, 4), 16u);
    EXPECT_EQ(limbBufferBlocks(2048, 2), 2u);
}

TEST(BufferModel, StandaloneUnitsHandComputedAtL7)
{
    const RingView ring{8192, 7};
    // CCadd/PCmult: one ciphertext with in/out reuse = 2L = 14 limbs.
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::ccAdd, ring, 1).bb, 14.0);
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::pcMult, ring, 1).bb, 14.0);
    // CCmult: 3-part square intermediate = 3L = 21.
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::ccMult, ring, 1).bb, 21.0);
    // Rescale: 2L NTT-partitioned + 2 per extra intra copy.
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::rescale, ring, 1).bn, 14.0);
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::rescale, ring, 3).bn, 18.0);
    // KeySwitch: 2L + (2L+2)*p + (L+1) = 14 + 16p + 8.
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::keySwitch, ring, 1).bn,
                     38.0);
    EXPECT_DOUBLE_EQ(bufferUnits(HeOpModule::keySwitch, ring, 2).bn,
                     54.0);
}

TEST(BufferModel, Cnv1LayerDemandHandComputed)
{
    // Cnv1 (L=7, ew + rescale): input ct 2L*8 + shared work ct 2L*8
    // = 224 blocks at nc<=4 — the Table II "25 %" row on 912 blocks.
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};
    const auto perf =
        evaluateLayer(plan.layers[0], plan.params.n, alloc);
    EXPECT_DOUBLE_EQ(perf.bramBlocks, 224.0);
}

TEST(BufferModel, KsLayerAddsExtensionBuffers)
{
    // Fc1 (L=5): input 10*8 + work 10*8 + KS ((10+2)*1 + 6)*8 = 304.
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {2, 1, 1};
    const auto perf =
        evaluateLayer(plan.layers[2], plan.params.n, alloc);
    EXPECT_EQ(plan.layers[2].levelIn, 5u);
    EXPECT_DOUBLE_EQ(perf.bramBlocks, 304.0);
}

TEST(BufferModel, Eq9InterScalingIsLinearForKs)
{
    // With enough KeySwitch ops in the layer, doubling P_inter doubles
    // the per-pipeline extension buffers but not the shared staging.
    hecnn::CompileOptions lola;
    lola.matVec = hecnn::MatVecLowering::lola;
    const auto plan = hecnn::compile(nn::buildMnistNetwork(),
                                     ckks::mnistParams(), lola);
    const auto &fc1 = plan.layers[2]; // 276 KS ops: inter is effective
    ModuleAllocation one, two;
    for (auto &op : one.ops)
        op = {2, 1, 1};
    two = one;
    two[HeOpModule::keySwitch].pInter = 2;
    const double b1 =
        evaluateLayer(fc1, plan.params.n, one).bramBlocks;
    const double b2 =
        evaluateLayer(fc1, plan.params.n, two).bramBlocks;
    // Delta at L=5: the second pipeline needs its own extension
    // buffers ((2L+2)*8 = 96 blocks) plus its own input and working
    // ciphertext buffers (2 * 2L * 8 = 160); the decomposition staging
    // stays shared. Total 256.
    EXPECT_DOUBLE_EQ(b2 - b1, 256.0);
}

TEST(BufferModel, NcEightDoublesNttPartitionedBuffers)
{
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    ModuleAllocation nc4, nc8;
    for (auto &op : nc4.ops)
        op = {4, 1, 1};
    for (auto &op : nc8.ops)
        op = {8, 1, 1};
    for (const auto &layer : plan.layers) {
        const double b4 =
            evaluateLayer(layer, plan.params.n, nc4).bramBlocks;
        const double b8 =
            evaluateLayer(layer, plan.params.n, nc8).bramBlocks;
        EXPECT_GT(b8, b4) << layer.name;
        EXPECT_LE(b8, 2.0 * b4) << layer.name
                                << " (input ct keeps Bb partitioning)";
    }
}

TEST(BufferModel, UramRatioBoundaries)
{
    const DeviceSpec d = acu15eg();
    // Below 1K words/tile: ratio exactly 1.
    EXPECT_DOUBLE_EQ(d.effectiveBramBlocks(1), 744.0 + 112.0);
    EXPECT_DOUBLE_EQ(d.effectiveBramBlocks(1024), 744.0 + 112.0);
    // Linear between 1K and 4K.
    EXPECT_DOUBLE_EQ(d.effectiveBramBlocks(3072), 744.0 + 112.0 * 3.0);
    // Capped at 4 above 4K words.
    EXPECT_DOUBLE_EQ(d.effectiveBramBlocks(1 << 20),
                     744.0 + 112.0 * 4.0);
}

} // namespace
} // namespace fxhenn::fpga
