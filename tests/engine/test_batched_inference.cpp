/**
 * @file
 * Demux determinism contract of cross-request slot batching
 * (docs/ARCHITECTURE.md section 15): batched runs are bitwise
 * reproducible across repeats, worker counts and arithmetic-preserving
 * backends, and numerically equivalent (1e-2 logit tolerance + argmax)
 * to unbatched serial inference. Bitwise cross-equality with serial
 * runs is impossible under CKKS canonical-embedding rounding, so it is
 * deliberately NOT asserted here.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::engine {
namespace {

constexpr double kTolerance = 1e-2;

std::size_t
argmaxOf(const std::vector<double> &v)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i)
        if (v[i] > v[best])
            best = i;
    return best;
}

class BatchedInferenceTest : public ::testing::Test
{
  protected:
    BatchedInferenceTest()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)), ctx_(params_),
          serialPlan_(hecnn::compile(net_, params_))
    {
    }

    hecnn::HeNetworkPlan
    batchedPlan(std::size_t lanes) const
    {
        hecnn::CompileOptions options;
        options.batchLanes = lanes;
        return hecnn::compile(net_, params_, options);
    }

    std::vector<nn::Tensor>
    inputs(std::size_t n, std::uint64_t seedBase = 100) const
    {
        std::vector<nn::Tensor> batch;
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(nn::syntheticInput(net_, seedBase + i));
        return batch;
    }

    /** Numeric equivalence of one outcome vs its serial reference. */
    void
    expectEquivalent(const std::vector<double> &batched,
                     const std::vector<double> &serial,
                     const std::string &what) const
    {
        ASSERT_EQ(batched.size(), serial.size()) << what;
        double maxErr = 0.0;
        for (std::size_t i = 0; i < serial.size(); ++i)
            maxErr = std::max(maxErr,
                              std::abs(batched[i] - serial[i]));
        EXPECT_LT(maxErr, kTolerance) << what;
        EXPECT_EQ(argmaxOf(batched), argmaxOf(serial)) << what;
    }

    nn::Network net_;
    ckks::CkksParams params_;
    ckks::CkksContext ctx_;
    hecnn::HeNetworkPlan serialPlan_;
};

TEST_F(BatchedInferenceTest, BatchedMatchesSerialWithinTolerance)
{
    constexpr std::uint64_t kSeed = 9;
    for (const std::size_t lanes : {2u, 4u, 16u}) {
        const auto plan = batchedPlan(lanes);
        const auto batch = inputs(lanes);

        EngineOptions opts;
        opts.workers = 2;
        opts.keySeed = kSeed;
        InferenceEngine engine(plan, ctx_, opts);
        const auto outcomes = engine.runBatch(batch);
        ASSERT_EQ(outcomes.size(), lanes);

        const test_support::SerialInference serial(serialPlan_, ctx_,
                                                   kSeed);
        for (std::size_t r = 0; r < lanes; ++r) {
            ASSERT_FALSE(outcomes[r].degraded())
                << "lanes " << lanes << " request " << r;
            expectEquivalent(outcomes[r].logits,
                             serial.infer(batch[r], r),
                             "lanes " + std::to_string(lanes) +
                                 " request " + std::to_string(r));
        }
    }
}

TEST_F(BatchedInferenceTest, RepeatedRunsAreBitwiseIdentical)
{
    // The batched path is a pure function of (keySeed, ordered member
    // composition, inputs): a second engine with the same seed must
    // reproduce every logit bit-for-bit.
    const auto plan = batchedPlan(4);
    const auto batch = inputs(4, 350);

    auto run = [&] {
        EngineOptions opts;
        opts.workers = 2;
        opts.keySeed = 31;
        InferenceEngine engine(plan, ctx_, opts);
        return engine.runBatch(batch);
    };
    const auto first = run();
    const auto second = run();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t r = 0; r < first.size(); ++r) {
        ASSERT_FALSE(first[r].degraded());
        EXPECT_EQ(first[r].logits, second[r].logits)
            << "request " << r << " is not reproducible";
    }
}

TEST_F(BatchedInferenceTest, WorkerCountDoesNotChangeBatchedResults)
{
    // Two B = 4 groups out of 8 requests: the consecutive-group
    // partition (and with it the batched encryption stream) must not
    // depend on which worker runs which group.
    const auto plan = batchedPlan(4);
    const auto batch = inputs(8, 200);

    auto run = [&](unsigned workers) {
        EngineOptions opts;
        opts.workers = workers;
        opts.keySeed = 13;
        InferenceEngine engine(plan, ctx_, opts);
        return engine.runBatch(batch);
    };
    const auto one = run(1);
    const auto four = run(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t r = 0; r < one.size(); ++r) {
        ASSERT_FALSE(one[r].degraded());
        ASSERT_FALSE(four[r].degraded());
        EXPECT_EQ(one[r].logits, four[r].logits)
            << "request " << r << " depends on the worker count";
    }
}

TEST_F(BatchedInferenceTest, FpgaSimBackendIsBitwiseIdenticalToCpu)
{
    // fpga-sim delegates its arithmetic to the cpu backend (it adds
    // latency modeling, not different math), so batched logits must
    // be bitwise equal across the two.
    const auto plan = batchedPlan(4);
    const auto batch = inputs(4, 640);

    auto run = [&](const char *backend) {
        EngineOptions opts;
        opts.workers = 1;
        opts.keySeed = 57;
        opts.exec.backend = backend;
        InferenceEngine engine(plan, ctx_, opts);
        return engine.runBatch(batch);
    };
    const auto cpu = run("cpu");
    const auto sim = run("fpga-sim");
    for (std::size_t r = 0; r < cpu.size(); ++r) {
        ASSERT_FALSE(cpu[r].degraded());
        ASSERT_FALSE(sim[r].degraded());
        EXPECT_EQ(cpu[r].logits, sim[r].logits)
            << "request " << r << " differs across backends";
        EXPECT_EQ(sim[r].backendName, "fpga-sim");
    }
}

TEST_F(BatchedInferenceTest, PartialFinalGroupStillServesCorrectly)
{
    // 6 requests at B = 4: one full group and one 2-member group. The
    // partial group's unused lanes ride along zeroed; every member
    // still matches its serial reference.
    constexpr std::uint64_t kSeed = 23;
    const auto plan = batchedPlan(4);
    const auto batch = inputs(6, 410);

    EngineOptions opts;
    opts.workers = 1;
    opts.keySeed = kSeed;
    InferenceEngine engine(plan, ctx_, opts);
    const auto outcomes = engine.runBatch(batch);

    const test_support::SerialInference serial(serialPlan_, ctx_, kSeed);
    for (std::size_t r = 0; r < batch.size(); ++r) {
        ASSERT_FALSE(outcomes[r].degraded()) << "request " << r;
        expectEquivalent(outcomes[r].logits, serial.infer(batch[r], r),
                         "request " + std::to_string(r));
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.batchesExecuted, 2u);
    EXPECT_DOUBLE_EQ(stats.meanBatchOccupancy, 3.0);
}

TEST_F(BatchedInferenceTest, InvalidMemberDoesNotCorruptSiblings)
{
    // Member 1 is malformed: it must degrade alone with its lane
    // zeroed, and members 0/2/3 must still demux THEIR OWN lanes —
    // a lane-compaction bug would hand member 2 the zeroed lane 1.
    constexpr std::uint64_t kSeed = 71;
    const auto plan = batchedPlan(4);
    auto batch = inputs(4, 880);
    batch[1] = nn::Tensor({2, 1, 1}); // far too few elements

    EngineOptions opts;
    opts.workers = 1;
    opts.keySeed = kSeed;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    InferenceEngine engine(plan, ctx_, opts);
    const auto outcomes = engine.runBatch(batch);

    ASSERT_TRUE(outcomes[1].degraded());
    EXPECT_EQ(outcomes[1].failure->layer, "request");
    EXPECT_TRUE(outcomes[1].logits.empty());

    const test_support::SerialInference serial(serialPlan_, ctx_, kSeed);
    for (const std::size_t r : {0u, 2u, 3u}) {
        ASSERT_FALSE(outcomes[r].degraded()) << "request " << r;
        expectEquivalent(outcomes[r].logits, serial.infer(batch[r], r),
                         "request " + std::to_string(r));
    }
}

TEST_F(BatchedInferenceTest, AllMalformedGroupCountsAsBreakerFailure)
{
    // A group none of whose members survives validation ran nothing:
    // the breaker must count it as a failure, exactly as it counts one
    // malformed request at B = 1.
    const auto plan = batchedPlan(2);
    EngineOptions opts;
    opts.workers = 1;
    opts.breaker.tripAfterConsecutiveFailures = 1;
    opts.breaker.openSeconds = 60.0; // stays open for the whole test
    InferenceEngine engine(plan, ctx_, opts);

    const std::vector<nn::Tensor> bad(2, nn::Tensor({3, 1, 1}));
    const auto outcomes = engine.runBatch(bad);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &outcome : outcomes) {
        ASSERT_TRUE(outcome.degraded());
        EXPECT_EQ(outcome.failure->layer, "request");
        EXPECT_EQ(outcome.failure->op, "exception");
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.breakerState, BreakerState::open);
    EXPECT_EQ(stats.breakerOpens, 1u);
}

TEST_F(BatchedInferenceTest, EnvironmentBackendStaysDeterministic)
{
    // Under the CI backend matrix the whole suite runs with
    // FXHENN_BACKEND set; the batched path must stay bitwise
    // reproducible whatever arithmetic-preserving backend is active.
    const auto plan = batchedPlan(2);
    const auto batch = inputs(2, 555);

    auto run = [&] {
        EngineOptions opts;
        opts.workers = 1;
        opts.keySeed = 77;
        InferenceEngine engine(plan, ctx_, opts);
        return engine.runBatch(batch);
    };
    const auto first = run();
    const auto second = run();
    for (std::size_t r = 0; r < first.size(); ++r) {
        ASSERT_FALSE(first[r].degraded());
        EXPECT_EQ(first[r].logits, second[r].logits);
    }
}

} // namespace
} // namespace fxhenn::engine
