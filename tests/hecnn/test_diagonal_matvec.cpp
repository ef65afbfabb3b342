/**
 * @file
 * The diagonal baby-step/giant-step lowering of replicated dense layers
 * (CompileOptions::matVec = costModel) against the plaintext forward
 * pass and the LoLa lowering it generalises. Summation order differs
 * from both, so equality is numeric: max abs logit error < 1e-2 and the
 * same argmax. Also checks the plans statically: the noise certificate,
 * the standard lint pipeline, the hoisted-decomposition model against
 * the executed keyswitch telemetry, and the Galois key set size.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/pass_manager.hpp"
#include "src/common/rng.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/rotation_groups.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::hecnn {
namespace {

constexpr double kTolerance = 1e-2;

CompileOptions
lowering(MatVecLowering matVec, std::size_t lanes = 1)
{
    CompileOptions options;
    options.matVec = matVec;
    options.batchLanes = lanes;
    return options;
}

std::size_t
argmaxOf(const std::vector<double> &v)
{
    return static_cast<std::size_t>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

void
expectClose(const std::vector<double> &got,
            const std::vector<double> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    double err = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i)
        err = std::max(err, std::abs(got[i] - want[i]));
    EXPECT_LT(err, kTolerance) << what;
    EXPECT_EQ(argmaxOf(got), argmaxOf(want)) << what;
}

/** Encrypted logits of each input, run as one batch of plan.batchLanes. */
std::vector<std::vector<double>>
runEncrypted(const HeNetworkPlan &plan, const ckks::CkksContext &ctx,
             const std::vector<nn::Tensor> &inputs)
{
    ClientSession session(plan, ctx, /*seed=*/41);
    PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);
    if (plan.batchLanes <= 1) {
        std::vector<std::vector<double>> logits;
        for (std::size_t r = 0; r < inputs.size(); ++r) {
            const auto result =
                executor.execute(session.encryptInput(inputs[r], r));
            EXPECT_FALSE(result.degraded()) << plan.name;
            logits.push_back(session.decryptLogits(result.regs));
        }
        return logits;
    }
    std::vector<const nn::Tensor *> members;
    std::vector<std::uint64_t> indices;
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        members.push_back(&inputs[r]);
        indices.push_back(r);
    }
    const auto result = executor.execute(session.encryptInputBatch(
        members, ClientSession::batchRequestKey(indices)));
    EXPECT_FALSE(result.degraded()) << plan.name;
    return session.decryptLogitsBatch(result.regs);
}

/** Dense-first MLP in -> hidden -> square -> out. */
nn::Network
denseNetwork(std::size_t in, std::size_t hidden, std::size_t out,
             std::uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("MLP-" + std::to_string(in) + "-" +
                        std::to_string(hidden) + "-" +
                        std::to_string(out),
                    1, 1, in);
    auto fc1 = std::make_unique<nn::Dense>("Fc1", in, hidden);
    fc1->randomize(rng, 1.0 / std::sqrt(double(in)));
    net.addLayer(std::move(fc1));
    net.addLayer(std::make_unique<nn::SquareActivation>("Act1", hidden));
    auto fc2 = std::make_unique<nn::Dense>("Fc2", hidden, out);
    fc2->randomize(rng, 0.5 / std::sqrt(double(hidden)));
    net.addLayer(std::move(fc2));
    return net;
}

struct DenseShape
{
    std::size_t in, hidden, out;
    const char *covers;
};

/** Prints the dimensions, so listed test IDs carry no pointer bytes. */
void
PrintTo(const DenseShape &shape, std::ostream *os)
{
    *os << shape.in << "x" << shape.hidden << "x" << shape.out;
}

/** Test-name suffix: the `covers` text as alphanumeric CamelCase. */
std::string
shapeName(const ::testing::TestParamInfo<DenseShape> &info)
{
    std::string name;
    bool wordStart = true;
    for (const char *c = info.param.covers; *c != '\0'; ++c) {
        const auto ch = static_cast<unsigned char>(*c);
        if (!std::isalnum(ch)) {
            wordStart = true;
            continue;
        }
        name += static_cast<char>(wordStart ? std::toupper(ch) : ch);
        wordStart = false;
    }
    return name;
}

class DiagonalShapeTest : public ::testing::TestWithParam<DenseShape>
{};

TEST_P(DiagonalShapeTest, MatchesPlaintextAndLola)
{
    // 1024 slots: a layer with v inputs replicates into 1024/vpad
    // blocks ("copies").
    const DenseShape shape = GetParam();
    const auto net = denseNetwork(shape.in, shape.hidden, shape.out,
                                  shape.in * 31 + shape.hidden);
    const auto params = ckks::testParams(2048, 7, 30);
    ckks::CkksContext ctx(params);
    const auto fast =
        compile(net, params, lowering(MatVecLowering::costModel));
    const auto lola = compile(net, params, lowering(MatVecLowering::lola));

    std::vector<nn::Tensor> inputs;
    for (std::uint64_t s = 0; s < 2; ++s)
        inputs.push_back(nn::syntheticInput(net, 70 + s));
    const auto got = runEncrypted(fast, ctx, inputs);
    const auto ref = runEncrypted(lola, ctx, inputs);
    for (std::size_t r = 0; r < inputs.size(); ++r) {
        const std::string what = std::string(shape.covers) + " input " +
                                 std::to_string(r);
        expectClose(got[r], net.forward(inputs[r]).data(), what + " vs plain");
        expectClose(got[r], ref[r], what + " vs lola");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DiagonalShapeTest,
    ::testing::Values(
        DenseShape{48, 12, 3, "v<vpad, m not a power of two"},
        DenseShape{64, 16, 4, "v=vpad"},
        DenseShape{100, 40, 5, "m>copies (8 blocks)"},
        DenseShape{300, 20, 7, "two blocks, m>copies"},
        DenseShape{200, 6, 2, "one-block layers"},
        DenseShape{32, 100, 10, "wide hidden layer, many blocks"}),
    shapeName);

TEST(DiagonalMatVec, ZooNetworksMatchPlaintextAtB1AndB16)
{
    struct Model
    {
        nn::Network net;
        ckks::CkksParams params;
    };
    const Model models[] = {
        {nn::buildTestNetwork(), ckks::testParams(2048, 7, 30)},
        {nn::buildMnistNetwork(), ckks::mnistParams()},
    };
    for (const auto &model : models) {
        ckks::CkksContext ctx(model.params);
        for (const std::size_t lanes : {1u, 16u}) {
            const auto plan =
                compile(model.net, model.params,
                        lowering(MatVecLowering::costModel, lanes));
            std::vector<nn::Tensor> inputs;
            for (std::size_t r = 0; r < lanes; ++r)
                inputs.push_back(nn::syntheticInput(model.net, 5 + r));
            const auto logits = runEncrypted(plan, ctx, inputs);
            ASSERT_EQ(logits.size(), lanes);
            for (std::size_t r = 0; r < lanes; ++r) {
                expectClose(logits[r], model.net.forward(inputs[r]).data(),
                            plan.name + " B=" + std::to_string(lanes) +
                                " request " + std::to_string(r));
            }
        }
    }
}

/** Every cost-model zoo plan the static checks cover. */
std::vector<HeNetworkPlan>
zooPlans(MatVecLowering matVec)
{
    std::vector<HeNetworkPlan> plans;
    for (const std::size_t lanes : {1u, 16u}) {
        plans.push_back(compile(nn::buildTestNetwork(),
                                ckks::testParams(2048, 7, 30),
                                lowering(matVec, lanes)));
        plans.push_back(compile(nn::buildMnistNetwork(),
                                ckks::mnistParams(),
                                lowering(matVec, lanes)));
    }
    CompileOptions cifar = lowering(matVec);
    cifar.elideValues = true;
    plans.push_back(compile(nn::buildCifar10Network(),
                            ckks::cifar10Params(), cifar));
    return plans;
}

TEST(DiagonalMatVec, PlansAreNoiseCertified)
{
    for (const auto &plan : zooPlans(MatVecLowering::costModel)) {
        const NoiseCertificate cert = certifyPlan(plan);
        EXPECT_TRUE(cert.valid) << plan.name << ": " << cert.invalidReason;
        EXPECT_TRUE(cert.certified())
            << plan.name << " B=" << plan.batchLanes << " headroom "
            << cert.minHeadroomBits;
    }
}

TEST(DiagonalMatVec, StandardLintReportsNoErrors)
{
    const auto pm = analysis::PassManager::standard();
    std::vector<std::string> names;
    for (const auto &pass : pm.passes())
        names.emplace_back(pass->name());
    for (const char *required : {"rotation-keys", "batch-layout"})
        EXPECT_NE(std::find(names.begin(), names.end(), required),
                  names.end())
            << required << " missing from the standard pipeline";

    for (const auto &plan : zooPlans(MatVecLowering::costModel)) {
        const auto report = pm.run(plan);
        EXPECT_EQ(report.errorCount(), 0u)
            << plan.name << " B=" << plan.batchLanes;
    }
}

TEST(DiagonalMatVec, GaloisKeySetIsNoLargerThanLola)
{
    const auto fast = zooPlans(MatVecLowering::costModel);
    const auto lola = zooPlans(MatVecLowering::lola);
    ASSERT_EQ(fast.size(), lola.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_LE(fast[i].rotationSteps().size(),
                  lola[i].rotationSteps().size())
            << fast[i].name << " B=" << fast[i].batchLanes;
    }
}

TEST(DiagonalMatVec, PredictedDecompositionsEqualExecuted)
{
    // countHoistedDecompositions tiles rotates into the hoisted groups
    // of findRotationGroups; one decomposition per group (and per
    // relinearize) is what the runtime must report. MNIST's Fc1 baby
    // steps form a real hoisted group, so the two counts differ from
    // the plain rotate count.
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    const auto net = nn::buildMnistNetwork();
    const auto plan = compile(net, ckks::mnistParams());
    std::size_t predicted = 0;
    std::size_t keyswitches = 0;
    for (const auto &layer : plan.layers) {
        predicted += countHoistedDecompositions(layer.instrs);
        keyswitches += layer.counts().keySwitch();
    }
    ASSERT_LT(predicted, keyswitches) << "no hoisted baby-step group";

    ckks::CkksContext ctx(plan.params);
    ClientSession session(plan, ctx, 7);
    PlaintextPool pool(plan, ctx);
    const PlanExecutor executor(plan, ctx, session.relinKey(),
                                session.galoisKeys(), pool);
    const auto input = nn::syntheticInput(net, 3);
    const auto encrypted = session.encryptInput(input, 0);

    telemetry::reset();
    telemetry::setEnabled(true);
    const auto result = executor.execute(encrypted);
    telemetry::setEnabled(false);
    ASSERT_FALSE(result.degraded());
    EXPECT_EQ(telemetry::counter("ckks.keyswitch.decompositions").value(),
              predicted);
    EXPECT_EQ(telemetry::counter("ckks.op.rotate").value(),
              plan.totalCounts().rotate);
    telemetry::reset();
    expectClose(session.decryptLogits(result.regs), net.forward(input).data(),
                "MNIST");
}

} // namespace
} // namespace fxhenn::hecnn
