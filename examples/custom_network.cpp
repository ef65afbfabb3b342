/**
 * @file
 * Bring-your-own-network walkthrough: define a custom square-activation
 * CNN, verify its encrypted inference bit-for-bit against plaintext at
 * test scale, then generate an accelerator for it with FxHENN — the
 * "without loss of generality" claim of Sec. VII-B exercised end to
 * end.
 */
#include <cmath>
#include <iostream>
#include <memory>

#include "src/engine/inference_engine.hpp"
#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/nn/network.hpp"

using namespace fxhenn;

namespace {

/** A 16x16 single-channel CNN that is not in the model zoo. */
nn::Network
buildCustomNet()
{
    Rng rng(777);
    nn::Network net("Custom-16x16", 1, 16, 16);

    auto conv = std::make_unique<nn::Conv2D>("Cnv1", 1, 4, 4, 2, 16, 16);
    conv->randomize(rng, 0.12);
    const std::size_t conv_out = conv->outputSize(); // 4 x 7 x 7 = 196
    net.addLayer(std::move(conv));

    net.addLayer(std::make_unique<nn::SquareActivation>("Act1",
                                                        conv_out));

    auto fc1 = std::make_unique<nn::Dense>("Fc1", conv_out, 24);
    fc1->randomize(rng, 0.04);
    net.addLayer(std::move(fc1));

    net.addLayer(std::make_unique<nn::SquareActivation>("Act2", 24));

    auto fc2 = std::make_unique<nn::Dense>("Fc2", 24, 5);
    fc2->randomize(rng, 0.1);
    net.addLayer(std::move(fc2));
    return net;
}

} // namespace

int
main()
{
    const auto net = buildCustomNet();

    // 1. Functional check at test scale (fast, insecure parameters).
    {
        const auto params = ckks::testParams(2048, 7, 30);
        const auto plan = hecnn::compile(net, params);
        ckks::CkksContext ctx(params);
        engine::EngineOptions opts;
        opts.workers = 1;
        opts.keySeed = 11;
        engine::InferenceEngine server(plan, ctx, opts);

        const nn::Tensor input = nn::syntheticInput(net, 5);
        const nn::Tensor expected = net.forward(input);
        const auto outcome = server.runBatch({input}).front();
        if (outcome.failure) {
            std::cout << outcome.failure->render();
            return 1;
        }
        const auto &logits = outcome.logits;

        double max_err = 0.0;
        for (std::size_t i = 0; i < logits.size(); ++i)
            max_err =
                std::max(max_err, std::abs(logits[i] - expected[i]));
        std::cout << "Encrypted-vs-plaintext max |err| = " << max_err
                  << " over " << logits.size() << " logits ("
                  << plan.totalCounts().total() << " HOPs)\n";
    }

    // 2. Generate the accelerator at production parameters.
    const auto sol = Fxhenn::generate(net, ckks::mnistParams(),
                                      fpga::acu9eg());
    std::cout << "Accelerator for " << sol.modelName << " on "
              << sol.deviceName << ": " << sol.latencySeconds()
              << " s predicted, DSP "
              << 100.0 * sol.design.dspFraction << " %, BRAM "
              << 100.0 * sol.design.bramFraction << " %\n";

    const auto &ks = sol.design.alloc[fpga::HeOpModule::keySwitch];
    std::cout << "Chosen KeySwitch parallelism: nc_NTT=" << ks.ncNtt
              << " intra=" << ks.pIntra << " inter=" << ks.pInter
              << "\n";
    return 0;
}
