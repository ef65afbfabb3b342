/**
 * @file
 * The two halves of one encrypted inference used directly: a
 * ClientSession encrypts and decrypts, a PlanExecutor built on its
 * evaluation keys and a PlaintextPool runs the plan.
 */
#include <gtest/gtest.h>

#include "src/common/assert.hpp"

#include <cmath>

#include "src/engine/inference_engine.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

/** Max absolute error between two logit vectors. */
double
maxAbsError(const std::vector<double> &a, const nn::Tensor &b)
{
    double err = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        err = std::max(err, std::abs(a[i] - b[i]));
    return err;
}

/** Encrypt @p input as request @p r, execute, and decrypt. */
std::vector<double>
infer(const ClientSession &session, const PlanExecutor &executor,
      const nn::Tensor &input, std::uint64_t r)
{
    const auto run = executor.execute(session.encryptInput(input, r));
    EXPECT_FALSE(run.degraded());
    return session.decryptLogits(run.regs);
}

TEST(PlanExecutor, TestNetworkEncryptedInferenceMatchesPlaintext)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);

    ckks::CkksContext ctx(params);
    const ClientSession session(plan, ctx, /*seed=*/99);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);

    const nn::Tensor input = nn::syntheticInput(net, 21);
    const nn::Tensor expect = net.forward(input);
    const auto logits = infer(session, executor, input, 0);

    ASSERT_EQ(logits.size(), expect.size());
    EXPECT_LT(maxAbsError(logits, expect), 1e-2)
        << "encrypted inference diverged from plaintext";
}

TEST(PlanExecutor, ExecutedCountsMatchStaticPlanCounts)
{
    // The executor must run exactly the operations the static plan
    // promises — this ties the FPGA model's inputs to reality.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);

    ckks::CkksContext ctx(params);
    const ClientSession session(plan, ctx, 3);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);
    const auto result = executor.execute(
        session.encryptInput(nn::syntheticInput(net, 4), 0));

    const auto &run = result.executed;
    const HeOpCounts planned = plan.totalCounts();
    EXPECT_EQ(run.pcMult, planned.pcMult);
    EXPECT_EQ(run.ccMult, planned.ccMult);
    EXPECT_EQ(run.rescale, planned.rescale);
    EXPECT_EQ(run.relinearize, planned.relin);
    EXPECT_EQ(run.rotate, planned.rotate);
    EXPECT_EQ(run.ccAdd + run.pcAdd, planned.ccAdd);
}

TEST(PlanExecutor, RepeatedInferenceTracksPlaintextDeltas)
{
    // A second request on the same executor must not inherit stale
    // register state: the encrypted outputs of two different inputs
    // must each match their own plaintext ground truth.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const ClientSession session(plan, ctx, 5);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);

    const nn::Tensor in1 = nn::syntheticInput(net, 1, 0.25);
    const nn::Tensor in2 = nn::syntheticInput(net, 2, 0.05);
    const auto l1 = infer(session, executor, in1, 0);
    const auto l2 = infer(session, executor, in2, 1);
    const nn::Tensor p1 = net.forward(in1);
    const nn::Tensor p2 = net.forward(in2);
    EXPECT_LT(maxAbsError(l1, p1), 1e-2);
    EXPECT_LT(maxAbsError(l2, p2), 1e-2);
    // The two inputs have very different ranges, so both the encrypted
    // and plaintext logit vectors must differ by the same amount.
    double he_diff = 0.0, pt_diff = 0.0;
    for (std::size_t i = 0; i < l1.size(); ++i) {
        he_diff = std::max(he_diff, std::abs(l1[i] - l2[i]));
        pt_diff = std::max(pt_diff, std::abs(p1[i] - p2[i]));
    }
    EXPECT_NEAR(he_diff, pt_diff, 1e-2);
}

TEST(PlanExecutor, PredictionAgreesWithPlaintextArgmax)
{
    // Across several synthetic inputs the encrypted argmax must match
    // the plaintext argmax — the HE-CNN "accuracy preservation" check.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const ClientSession session(plan, ctx, 6);
    const PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);

    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const nn::Tensor input = nn::syntheticInput(net, seed);
        const nn::Tensor expect = net.forward(input);
        const auto logits = infer(session, executor, input, seed - 1);

        std::size_t argmax_he = 0, argmax_pt = 0;
        for (std::size_t i = 1; i < logits.size(); ++i) {
            if (logits[i] > logits[argmax_he])
                argmax_he = i;
            if (expect[i] > expect[argmax_pt])
                argmax_pt = i;
        }
        EXPECT_EQ(argmax_he, argmax_pt) << "seed " << seed;
    }
}

TEST(ClientSession, RejectsElidedPlan)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    CompileOptions opts;
    opts.elideValues = true;
    const auto plan = compile(net, params, opts);
    ckks::CkksContext ctx(params);
    EXPECT_THROW(ClientSession(plan, ctx), ConfigError);
    EXPECT_THROW(engine::InferenceEngine(plan, ctx), ConfigError);
}

TEST(ClientSession, GaloisKeyCountMatchesPlanSteps)
{
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = compile(net, params);
    ckks::CkksContext ctx(params);
    const ClientSession session(plan, ctx, 8);
    // Distinct steps can map to the same Galois element (e.g. step s
    // and s - slots), so the key count is at most the step count.
    EXPECT_GE(session.galoisKeyCount(), 1u);
    EXPECT_LE(session.galoisKeyCount(), plan.rotationSteps().size());
}

} // namespace
} // namespace fxhenn::hecnn
