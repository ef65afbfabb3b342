#include <gtest/gtest.h>

#include "src/common/assert.hpp"

#include "src/hecnn/compiler.hpp"
#include "src/hecnn/stats.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::hecnn {
namespace {

TEST(Compiler, MnistPlanHasFiveLayersWithPaperClasses)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    ASSERT_EQ(plan.layers.size(), 5u);
    // Table II: Cnv1 is the only NKS layer; Act/Fc are KS.
    EXPECT_EQ(plan.layers[0].cls(), LayerClass::nks);
    EXPECT_EQ(plan.layers[1].cls(), LayerClass::ks);
    EXPECT_EQ(plan.layers[2].cls(), LayerClass::ks);
    EXPECT_EQ(plan.layers[3].cls(), LayerClass::ks);
    EXPECT_EQ(plan.layers[4].cls(), LayerClass::ks);
}

TEST(Compiler, MnistCnv1MatchesTableIVHopCount)
{
    // Table IV: Cnv1 = 75 HOPs (25 PCmult + 25 Rescale + 24 CCadd,
    // with the bias PCadd taking the 25th add slot).
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    const HeOpCounts c = plan.layers[0].counts();
    EXPECT_EQ(c.pcMult, 25u);
    EXPECT_EQ(c.rescale, 25u);
    EXPECT_EQ(c.ccAdd, 25u); // 24 tap adds + 1 bias add
    EXPECT_EQ(c.total(), 75u);
    EXPECT_EQ(c.keySwitch(), 0u);
}

TEST(Compiler, MnistTotalsAreSameOrderAsPaper)
{
    // Table VII: FxHENN-MNIST has 826 HOPs / 280 KS. Our packing is a
    // LoLa-style reimplementation, not slot-for-slot identical, so we
    // require the same order of magnitude rather than equality.
    const auto net = nn::buildMnistNetwork();
    CompileOptions lola;
    lola.matVec = MatVecLowering::lola;
    const auto plan = compile(net, ckks::mnistParams(), lola);
    const HeOpCounts total = plan.totalCounts();
    EXPECT_GT(total.total(), 400u);
    EXPECT_LT(total.total(), 2500u);
    EXPECT_GT(total.keySwitch(), 150u);
    EXPECT_LT(total.keySwitch(), 800u);
}

TEST(Compiler, LolaMnistKeepsPaperReproductionLayerCounts)
{
    // The paper-reproduction lowering is frozen: these are the counts
    // every table/figure bench reports.
    CompileOptions lola;
    lola.matVec = MatVecLowering::lola;
    const auto plan =
        compile(nn::buildMnistNetwork(), ckks::mnistParams(), lola);
    ASSERT_EQ(plan.layers.size(), 5u);
    EXPECT_EQ(plan.layers[2].counts().keySwitch(), 276u);
    EXPECT_EQ(plan.layers[2].counts().total(), 653u);
    EXPECT_EQ(plan.layers[4].counts().keySwitch(), 120u);
    EXPECT_EQ(plan.totalCounts().keySwitch(), 398u);
    EXPECT_EQ(plan.totalCounts().total(), 1004u);
}

TEST(Compiler, MnistKeyswitchGateSeparatesLowerings)
{
    // The diagonal BSGS lowering's keyswitch budget. The same bounds
    // applied to the LoLa plan fail, so the gate can tell them apart.
    const auto net = nn::buildMnistNetwork();
    const auto fast = compile(net, ckks::mnistParams());
    EXPECT_LE(fast.layers[2].counts().keySwitch(), 32u);
    EXPECT_LE(fast.layers[4].counts().keySwitch(), 16u);
    EXPECT_LE(fast.totalCounts().keySwitch(), 50u);

    CompileOptions lola;
    lola.matVec = MatVecLowering::lola;
    const auto paper = compile(net, ckks::mnistParams(), lola);
    EXPECT_EQ(paper.layers[2].counts().keySwitch(), 276u);
    EXPECT_EQ(paper.layers[4].counts().keySwitch(), 120u);
    EXPECT_EQ(paper.totalCounts().keySwitch(), 398u);
}

TEST(Compiler, MnistConsumesExactlySixLevels)
{
    // Cnv1(1) + Act1(1) + Fc1(2, merged) + Act2(1) + Fc2(1) = 6 <= L=7.
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    EXPECT_EQ(plan.depth(), 6u);
    EXPECT_GE(plan.layers.back().levelOut, 1u);
}

TEST(Compiler, MnistInputIs25TapCiphertexts)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    EXPECT_EQ(plan.inputCiphertexts(), 25u);
    EXPECT_EQ(plan.layers[0].nIn, 25u);
    // Every gather entry must point inside the input image.
    for (const auto &gather : plan.inputGather) {
        for (std::int32_t idx : gather) {
            EXPECT_GE(idx, -1);
            EXPECT_LT(idx, static_cast<std::int32_t>(net.inputSize()));
        }
    }
}

TEST(Compiler, Cifar10PlanScalesLikePaper)
{
    const auto net = nn::buildCifar10Network();
    CompileOptions opts;
    opts.elideValues = true; // stats-only: weights would be ~0.5 GB
    const auto plan = compile(net, ckks::cifar10Params(), opts);
    const HeOpCounts total = plan.totalCounts();
    // Table VI/VII: 82.73K HOPs, 57K KS; we accept the same order.
    EXPECT_GT(total.total(), 20000u);
    EXPECT_LT(total.total(), 200000u);
    EXPECT_GT(total.keySwitch(), 10000u);
    EXPECT_EQ(plan.depth(), 6u);
    EXPECT_TRUE(plan.valuesElided);
}

TEST(Compiler, Cifar10HopRatioVsMnistIsTwoOrders)
{
    // Table VI: CIFAR10 has ~100X the HOPs of MNIST.
    const auto mnist =
        compile(nn::buildMnistNetwork(), ckks::mnistParams());
    CompileOptions opts;
    opts.elideValues = true;
    const auto cifar =
        compile(nn::buildCifar10Network(), ckks::cifar10Params(), opts);
    const double ratio = double(cifar.totalCounts().total()) /
                         double(mnist.totalCounts().total());
    EXPECT_GT(ratio, 20.0);
    EXPECT_LT(ratio, 500.0);
}

TEST(Compiler, RotationStepsAreKeyableAndBounded)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    const auto steps = plan.rotationSteps();
    EXPECT_FALSE(steps.empty());
    EXPECT_LT(steps.size(), 64u) << "Galois key count must stay modest";
    for (std::int32_t s : steps)
        EXPECT_NE(s, 0);
}

TEST(Compiler, RotationDecompositionShrinksKeyMaterial)
{
    const auto net = nn::buildMnistNetwork();
    const auto dense = compile(net, ckks::mnistParams());
    CompileOptions opts;
    opts.decomposeRotations = true;
    const auto decomposed = compile(net, ckks::mnistParams(), opts);

    // Strictly fewer distinct rotation steps (Galois keys)...
    EXPECT_LT(decomposed.rotationSteps().size(),
              dense.rotationSteps().size());
    // ...for a modest Rotate HOP increase.
    const auto r0 = dense.totalCounts().rotate;
    const auto r1 = decomposed.totalCounts().rotate;
    EXPECT_GE(r1, r0);
    EXPECT_LT(r1, r0 + 100);
    // Every remaining step is a (signed) power of two.
    for (std::int32_t s : decomposed.rotationSteps()) {
        const std::uint32_t m =
            static_cast<std::uint32_t>(s < 0 ? -s : s);
        EXPECT_EQ(m & (m - 1), 0u) << s;
    }
}

TEST(Compiler, DecomposedPlanStillVerifiesUnderEncryption)
{
    // The decomposed rotations must compute the same network.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    CompileOptions opts;
    opts.decomposeRotations = true;
    const auto plan = compile(net, params, opts);
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, 13);
    const nn::Tensor input = nn::syntheticInput(net, 2);
    const nn::Tensor expected = net.forward(input);
    const auto logits = serial.infer(input);
    for (std::size_t i = 0; i < logits.size(); ++i)
        ASSERT_NEAR(logits[i], expected[i], 1e-2) << i;
}

TEST(Compiler, TestNetworkPlanIsExecutableShape)
{
    const auto net = nn::buildTestNetwork();
    const auto plan = compile(net, ckks::testParams(2048, 7, 30));
    EXPECT_EQ(plan.layers.size(), 5u);
    EXPECT_EQ(plan.outputLayout.elements(), 3u);
    EXPECT_FALSE(plan.valuesElided);
    EXPECT_GE(plan.layers.back().levelOut, 1u);
}

TEST(Compiler, LayerSummaryListsPaperNames)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    EXPECT_EQ(layerSummary(plan), "Cnv1, Act1, Fc1, Act2, Fc2");
}

TEST(Compiler, ModelSizeIsMegabytesForMnist)
{
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    const ModelSize size = modelSize(plan);
    // Table VI reports 15.57 MB for FxHENN-MNIST; that column covers
    // the packed weight plaintexts (keys are reported separately here).
    const double weights_mb =
        double(size.weightPlaintexts) / (1024.0 * 1024.0);
    EXPECT_GT(weights_mb, 5.0);
    EXPECT_LT(weights_mb, 60.0);
    EXPECT_GT(size.galoisKeys, size.relinKey)
        << "rotation keys dominate the key material";
}

TEST(Compiler, DepthOverflowIsRejected)
{
    // A 5-layer network needs 6 levels; 4 must fail loudly.
    const auto net = nn::buildTestNetwork();
    EXPECT_THROW(compile(net, ckks::testParams(2048, 4, 30)),
                 ConfigError);
}

} // namespace
} // namespace fxhenn::hecnn
