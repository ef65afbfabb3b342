/**
 * @file
 * Full-scale end-to-end integration test: encrypted FxHENN-MNIST
 * inference under the paper's production parameter set (N = 8192,
 * L = 7, 30-bit primes, lambda = 128), verified against plaintext
 * inference. This is the costliest test in the suite (~15 s).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "src/fxhenn/framework.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn {
namespace {

TEST(MnistEndToEnd, EncryptedInferenceMatchesPlaintext)
{
    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    ASSERT_EQ(params.securityLevel(), 128u);

    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, 2023);

    const nn::Tensor input = nn::syntheticInput(net, 7);
    const nn::Tensor expected = net.forward(input);

    // Record the run: the telemetry differential below reuses this one
    // (costly) inference instead of running a second.
    telemetry::reset();
    telemetry::setEnabled(true);
    const auto result = serial.run(input);
    const auto logits = serial.session.decryptLogits(result.regs);
    telemetry::setEnabled(false);

    ASSERT_EQ(logits.size(), 10u);
    double max_err = 0.0;
    std::size_t argmax_he = 0, argmax_pt = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        max_err = std::max(max_err, std::abs(logits[i] - expected[i]));
        if (logits[i] > logits[argmax_he])
            argmax_he = i;
        if (expected[i] > expected[argmax_pt])
            argmax_pt = i;
    }
    EXPECT_LT(max_err, 5e-3)
        << "full-depth CKKS noise exceeded the budget";
    EXPECT_EQ(argmax_he, argmax_pt);

    // The plan the FPGA model consumed is the plan that actually ran.
    const auto &run = result.executed;
    const auto planned = plan.totalCounts();
    EXPECT_EQ(run.pcMult, planned.pcMult);
    EXPECT_EQ(run.rotate, planned.rotate);
    EXPECT_EQ(run.relinearize, planned.relin);

    // Telemetry differential at full MNIST scale: the recorded op
    // counters must equal the static plan counts, and every layer must
    // have produced a timing sample.
    if (telemetry::compiledIn()) {
        EXPECT_EQ(telemetry::counter("ckks.op.pc_mult").value(),
                  planned.pcMult);
        EXPECT_EQ(telemetry::counter("ckks.op.cc_mult").value(),
                  planned.ccMult);
        EXPECT_EQ(telemetry::counter("ckks.op.rescale").value(),
                  planned.rescale);
        EXPECT_EQ(telemetry::counter("ckks.op.relinearize").value(),
                  planned.relin);
        EXPECT_EQ(telemetry::counter("ckks.op.rotate").value(),
                  planned.rotate);
        EXPECT_EQ(telemetry::counter("ckks.op.cc_add").value() +
                      telemetry::counter("ckks.op.pc_add").value(),
                  planned.ccAdd);
        EXPECT_EQ(telemetry::counter("hecnn.inferences").value(), 1u);
        for (const auto &layer : plan.layers)
            EXPECT_EQ(telemetry::histogram("hecnn.layer." +
                                           layer.name + ".ns")
                          .count(),
                      1u)
                << "layer " << layer.name;
        telemetry::reset();
    }
}

TEST(MnistEndToEnd, FrameworkSolutionIsConsistentWithPlan)
{
    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    const auto sol =
        Fxhenn::generate(net, params, fpga::acu9eg());

    // The solution's embedded plan matches a fresh compile.
    const auto fresh = hecnn::compile(net, params);
    EXPECT_EQ(sol.plan.totalCounts().total(),
              fresh.totalCounts().total());
    EXPECT_EQ(sol.plan.layers.size(), fresh.layers.size());

    // Per-layer latencies sum to the reported total.
    double sum = 0.0;
    for (const auto &lp : sol.design.perf.layers)
        sum += lp.cycles;
    EXPECT_NEAR(sum, sol.design.perf.totalCycles,
                sol.design.perf.totalCycles * 1e-9);
}

} // namespace
} // namespace fxhenn
