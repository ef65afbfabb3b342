/**
 * @file
 * Differential telemetry tests: for every model in the zoo the
 * encrypted runtime must (a) reproduce the plaintext forward pass
 * within the noise budget and (b) report telemetry op-counts that are
 * exactly the static op-counts of the compiled plan. CIFAR-10 compiles
 * with elideValues=true and cannot execute, so it is checked statically.
 * The full-parameter MNIST run lives in the slow integration suite.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::hecnn {
namespace {

/** Sum the measured per-layer op breakdown of one inference. */
ckks::OpCounts
sumLayerCounts(const std::vector<MeasuredLayerStats> &rows)
{
    ckks::OpCounts total;
    for (const auto &row : rows) {
        total.ccAdd += row.executed.ccAdd;
        total.pcAdd += row.executed.pcAdd;
        total.pcMult += row.executed.pcMult;
        total.ccMult += row.executed.ccMult;
        total.rescale += row.executed.rescale;
        total.relinearize += row.executed.relinearize;
        total.rotate += row.executed.rotate;
    }
    return total;
}

TEST(TelemetryCounts, TestNetworkTelemetryMatchesStaticPlan)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";

    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, /*seed=*/31);

    const nn::Tensor input = nn::syntheticInput(net, 32);
    const nn::Tensor expected = net.forward(input);

    telemetry::reset();
    telemetry::setEnabled(true);
    const auto run = serial.run(input);
    const auto logits = serial.session.decryptLogits(run.regs);
    telemetry::setEnabled(false);

    // (a) encrypted output within the noise bound of plaintext.
    ASSERT_EQ(logits.size(), expected.size());
    for (std::size_t i = 0; i < logits.size(); ++i)
        EXPECT_LT(std::abs(logits[i] - expected[i]), 1e-2)
            << "logit " << i;

    // (b) telemetry op counters == the plan's static counts.
    const HeOpCounts planned = plan.totalCounts();
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
    // The compiler folds bias adds into OP1, the evaluator splits them.
    EXPECT_EQ(telemetry::counter("ckks.op.cc_add").value() +
                  telemetry::counter("ckks.op.pc_add").value(),
              planned.ccAdd);

    // Every key-switch op ran through the key-switch core.
    EXPECT_EQ(telemetry::counter("ckks.op.keyswitch_core").value(),
              planned.keySwitch());

    // The run itself is accounted for.
    EXPECT_EQ(telemetry::counter("hecnn.inferences").value(), 1u);
    EXPECT_EQ(telemetry::histogram("hecnn.infer.ns").count(), 1u);

    // Per-layer timing histograms exist for every plan layer, and the
    // measured per-layer op breakdown sums back to the plan totals.
    for (const auto &layer : plan.layers)
        EXPECT_EQ(telemetry::histogram("hecnn.layer." + layer.name +
                                       ".ns")
                      .count(),
                  1u)
            << "layer " << layer.name;
    ASSERT_EQ(run.layerStats.size(), plan.layers.size());
    const ckks::OpCounts measured = sumLayerCounts(run.layerStats);
    EXPECT_EQ(measured.pcMult, planned.pcMult);
    EXPECT_EQ(measured.ccMult, planned.ccMult);
    EXPECT_EQ(measured.rescale, planned.rescale);
    EXPECT_EQ(measured.relinearize, planned.relin);
    EXPECT_EQ(measured.rotate, planned.rotate);
    EXPECT_EQ(measured.ccAdd + measured.pcAdd, planned.ccAdd);

    // NTT activity was observed (every HE op runs on NTT-form limbs).
    EXPECT_GT(telemetry::counter("modarith.ntt.forward").value(), 0u);
    telemetry::reset();
}

TEST(TelemetryCounts, TelemetryDisabledRunChangesNoCounters)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";

    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const test_support::SerialInference serial(plan, ctx, 33);

    telemetry::reset();
    telemetry::setEnabled(false);
    const auto run = serial.run(nn::syntheticInput(net, 34));
    serial.session.decryptLogits(run.regs);

    EXPECT_EQ(telemetry::counter("ckks.op.pc_mult").value(), 0u);
    EXPECT_EQ(telemetry::counter("hecnn.inferences").value(), 0u);
    EXPECT_EQ(telemetry::histogram("hecnn.infer.ns").count(), 0u);
    // The always-on measured layer stats still work without telemetry.
    EXPECT_EQ(run.layerStats.size(), plan.layers.size());
}

TEST(TelemetryCounts, MnistStaticLayerCountsSumToPlanTotal)
{
    // Full-parameter MNIST executes in the slow integration suite;
    // here we pin down the static side of the differential: per-layer
    // counts must sum to the plan total for the real model too.
    const auto plan =
        compile(nn::buildMnistNetwork(), ckks::mnistParams());
    HeOpCounts sum;
    for (const auto &layer : plan.layers) {
        const auto c = layer.counts();
        sum.ccAdd += c.ccAdd;
        sum.pcMult += c.pcMult;
        sum.ccMult += c.ccMult;
        sum.rescale += c.rescale;
        sum.relin += c.relin;
        sum.rotate += c.rotate;
    }
    const auto total = plan.totalCounts();
    EXPECT_EQ(sum.ccAdd, total.ccAdd);
    EXPECT_EQ(sum.pcMult, total.pcMult);
    EXPECT_EQ(sum.ccMult, total.ccMult);
    EXPECT_EQ(sum.rescale, total.rescale);
    EXPECT_EQ(sum.relin, total.relin);
    EXPECT_EQ(sum.rotate, total.rotate);
    EXPECT_GT(total.total(), 0u);
}

TEST(TelemetryCounts, Cifar10StaticLayerCountsSumToPlanTotal)
{
    // CIFAR-10 plans are compiled values-elided (weights too large for
    // the test jig) and cannot execute — the static op accounting must
    // still be self-consistent, since the DSE consumes it.
    CompileOptions opts;
    opts.elideValues = true;
    const auto plan =
        compile(nn::buildCifar10Network(), ckks::cifar10Params(), opts);
    HeOpCounts sum;
    for (const auto &layer : plan.layers) {
        const auto c = layer.counts();
        sum.ccAdd += c.ccAdd;
        sum.pcMult += c.pcMult;
        sum.ccMult += c.ccMult;
        sum.rescale += c.rescale;
        sum.relin += c.relin;
        sum.rotate += c.rotate;
    }
    const auto total = plan.totalCounts();
    EXPECT_EQ(sum.total(), total.total());
    EXPECT_EQ(sum.keySwitch(), total.keySwitch());
    EXPECT_GT(total.total(), 0u);
    EXPECT_FALSE(plan.rotationSteps().empty());
}

} // namespace
} // namespace fxhenn::hecnn
