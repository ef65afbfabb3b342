/**
 * @file
 * Randomized-network property tests: the HE-CNN compiler + runtime must
 * agree with plaintext inference for arbitrary small conv/dense
 * topologies, not just the zoo networks. Each seed generates a
 * different 5-layer architecture (conv shape, filter count, hidden
 * width) and the encrypted logits are checked slot-for-slot.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::hecnn {
namespace {

nn::Network
randomNetwork(std::uint64_t seed)
{
    Rng rng(seed);
    const std::size_t in_hw = 6 + rng.uniform(5);      // 6..10
    const std::size_t kernel = 2 + rng.uniform(2);     // 2..3
    const std::size_t stride = 1 + rng.uniform(2);     // 1..2
    const std::size_t filters = 1 + rng.uniform(3);    // 1..3
    const std::size_t hidden = 4 + rng.uniform(8);     // 4..11
    const std::size_t outputs = 2 + rng.uniform(4);    // 2..5

    nn::Network net("Random-" + std::to_string(seed), 1, in_hw, in_hw);
    auto conv = std::make_unique<nn::Conv2D>("Cnv1", 1, filters, kernel,
                                             stride, in_hw, in_hw);
    conv->randomize(rng, 0.15);
    const std::size_t conv_out = conv->outputSize();
    net.addLayer(std::move(conv));
    net.addLayer(std::make_unique<nn::SquareActivation>("Act1",
                                                        conv_out));
    auto fc1 = std::make_unique<nn::Dense>("Fc1", conv_out, hidden);
    fc1->randomize(rng, 0.08);
    net.addLayer(std::move(fc1));
    net.addLayer(std::make_unique<nn::SquareActivation>("Act2",
                                                        hidden));
    auto fc2 = std::make_unique<nn::Dense>("Fc2", hidden, outputs);
    fc2->randomize(rng, 0.12);
    net.addLayer(std::move(fc2));
    return net;
}

class RandomNetworkTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(RandomNetworkTest, EncryptedMatchesPlaintext)
{
    const std::uint64_t seed = GetParam();
    const auto net = randomNetwork(seed);
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);

    // Structural invariants first.
    EXPECT_EQ(plan.layers.size(), net.layerCount());
    EXPECT_LE(plan.depth(), params.levels - 1);
    EXPECT_GE(plan.layers.back().levelOut, 1u);
    for (const auto &layer : plan.layers) {
        EXPECT_GT(layer.instrs.size(), 0u) << layer.name;
        EXPECT_EQ(layer.levelIn - layer.levelOut <= 2, true)
            << layer.name;
    }

    // Behavioural check.
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, seed);
    const nn::Tensor input = nn::syntheticInput(net, seed + 100);
    const nn::Tensor expected = net.forward(input);
    const auto logits = serial.infer(input);

    ASSERT_EQ(logits.size(), expected.size());
    for (std::size_t i = 0; i < logits.size(); ++i)
        ASSERT_NEAR(logits[i], expected[i], 1e-2)
            << "seed " << seed << " logit " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetworkTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u, 77u, 88u));

TEST(CompilerProperty, DenseFirstNetworkVerifiesUnderEncryption)
{
    // MLP-style networks (no convolution) use the contiguous input
    // packing path; the replicated dense lowering must work directly
    // on the client-packed vector.
    Rng rng(23);
    nn::Network net("MLP", 1, 1, 48);
    auto fc1 = std::make_unique<nn::Dense>("Fc1", 48, 12);
    fc1->randomize(rng, 0.1);
    net.addLayer(std::move(fc1));
    net.addLayer(std::make_unique<nn::SquareActivation>("Act1", 12));
    auto fc2 = std::make_unique<nn::Dense>("Fc2", 12, 3);
    fc2->randomize(rng, 0.15);
    net.addLayer(std::move(fc2));

    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    EXPECT_EQ(plan.inputCiphertexts(), 1u);

    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, 23);
    const nn::Tensor input = nn::syntheticInput(net, 8);
    const nn::Tensor expected = net.forward(input);
    const auto logits = serial.infer(input);
    ASSERT_EQ(logits.size(), 3u);
    for (std::size_t i = 0; i < logits.size(); ++i)
        ASSERT_NEAR(logits[i], expected[i], 1e-2) << i;
}

TEST(CompilerProperty, PaddedConvolutionVerifiesUnderEncryption)
{
    // Padding routes -1 gather entries (zero slots) through the whole
    // pipeline; the encrypted result must still match plaintext.
    Rng rng(17);
    nn::Network net("Padded", 1, 6, 6);
    auto conv =
        std::make_unique<nn::Conv2D>("Cnv1", 1, 2, 3, 1, 6, 6, 1);
    conv->randomize(rng, 0.12);
    const std::size_t conv_out = conv->outputSize(); // 2 x 6 x 6 = 72
    net.addLayer(std::move(conv));
    net.addLayer(std::make_unique<nn::SquareActivation>("Act1",
                                                        conv_out));
    auto fc = std::make_unique<nn::Dense>("Fc1", conv_out, 4);
    fc->randomize(rng, 0.08);
    net.addLayer(std::move(fc));

    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, 17);

    const nn::Tensor input = nn::syntheticInput(net, 3);
    const nn::Tensor expected = net.forward(input);
    const auto logits = serial.infer(input);
    ASSERT_EQ(logits.size(), 4u);
    for (std::size_t i = 0; i < logits.size(); ++i)
        ASSERT_NEAR(logits[i], expected[i], 1e-2) << i;
}

TEST(CompilerProperty, HopCountScalesWithFilters)
{
    // More conv filters must never reduce the plan's operation count.
    std::uint64_t prev = 0;
    for (std::size_t filters : {1u, 2u, 4u}) {
        Rng rng(9);
        nn::Network net("F" + std::to_string(filters), 1, 8, 8);
        auto conv = std::make_unique<nn::Conv2D>("Cnv1", 1, filters, 3,
                                                 1, 8, 8);
        conv->randomize(rng, 0.1);
        const std::size_t conv_out = conv->outputSize();
        net.addLayer(std::move(conv));
        net.addLayer(std::make_unique<nn::SquareActivation>("Act1",
                                                            conv_out));
        auto fc = std::make_unique<nn::Dense>("Fc1", conv_out, 3);
        fc->randomize(rng, 0.1);
        net.addLayer(std::move(fc));

        const auto plan =
            compile(net, ckks::testParams(2048, 7, 30));
        const std::uint64_t hops = plan.totalCounts().total();
        EXPECT_GE(hops, prev) << filters;
        prev = hops;
    }
}

TEST(CompilerProperty, ElidedAndFullPlansHaveIdenticalStructure)
{
    // elideValues must change nothing except the payloads.
    const auto net = nn::buildMnistNetwork();
    const auto full = compile(net, ckks::mnistParams());
    CompileOptions opts;
    opts.elideValues = true;
    const auto elided = compile(net, ckks::mnistParams(), opts);

    ASSERT_EQ(full.layers.size(), elided.layers.size());
    for (std::size_t i = 0; i < full.layers.size(); ++i) {
        EXPECT_EQ(full.layers[i].instrs.size(),
                  elided.layers[i].instrs.size());
        EXPECT_EQ(full.layers[i].counts().total(),
                  elided.layers[i].counts().total());
        EXPECT_EQ(full.layers[i].levelOut, elided.layers[i].levelOut);
    }
    EXPECT_EQ(full.plaintexts.size(), elided.plaintexts.size());
    EXPECT_EQ(full.rotationSteps(), elided.rotationSteps());
}

} // namespace
} // namespace fxhenn::hecnn
