/**
 * @file
 * Accumulation-window mechanics of the streaming batched path
 * (InferenceEngine::workerRunWindow): a worker that pops a request
 * from the queue opens a window, collects up to B-1 siblings, and
 * flushes on B-full or on the deadline-margin timeout. Expired
 * members are shed BEFORE batch formation.
 */
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::engine {
namespace {

class BatchWindowTest : public ::testing::Test
{
  protected:
    BatchWindowTest()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)), ctx_(params_)
    {
    }

    hecnn::HeNetworkPlan
    batchedPlan(std::size_t lanes) const
    {
        hecnn::CompileOptions options;
        options.batchLanes = lanes;
        return hecnn::compile(net_, params_, options);
    }

    nn::Network net_;
    ckks::CkksParams params_;
    ckks::CkksContext ctx_;
};

TEST_F(BatchWindowTest, FullWindowFlushesAsOneBatch)
{
    const auto plan = batchedPlan(2);
    EngineOptions opts;
    opts.workers = 1;
    opts.batchWindowSeconds = 5.0; // flush must come from B-full
    InferenceEngine engine(plan, ctx_, opts);

    auto f0 = engine.submit(nn::syntheticInput(net_, 1));
    auto f1 = engine.submit(nn::syntheticInput(net_, 2));
    EXPECT_FALSE(f0.get().degraded());
    EXPECT_FALSE(f1.get().degraded());
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(stats.batchesExecuted, 1u)
        << "two submits into a B=2 window must form one batch";
    EXPECT_DOUBLE_EQ(stats.meanBatchOccupancy, 2.0);
    EXPECT_EQ(stats.completed, 2u);
}

TEST_F(BatchWindowTest, WindowTimeoutFlushesPartialBatch)
{
    // One lone request in a B=4 window: the timeout (not B-full) must
    // flush it, as a 1-member batch, without waiting forever.
    const auto plan = batchedPlan(4);
    EngineOptions opts;
    opts.workers = 1;
    opts.batchWindowSeconds = 0.02;
    InferenceEngine engine(plan, ctx_, opts);

    auto future = engine.submit(nn::syntheticInput(net_, 3));
    EXPECT_FALSE(future.get().degraded());
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(stats.batchesExecuted, 1u);
    EXPECT_DOUBLE_EQ(stats.meanBatchOccupancy, 1.0);
}

TEST_F(BatchWindowTest, ZeroWindowRunsImmediately)
{
    // batchWindowSeconds <= 0 disables waiting: each pop takes only
    // what is already queued (here: nothing) and runs solo.
    const auto plan = batchedPlan(4);
    EngineOptions opts;
    opts.workers = 1;
    opts.batchWindowSeconds = 0.0;
    InferenceEngine engine(plan, ctx_, opts);

    auto future = engine.submit(nn::syntheticInput(net_, 4));
    EXPECT_FALSE(future.get().degraded());
    engine.shutdown();
    EXPECT_EQ(engine.stats().batchesExecuted, 1u);
}

TEST_F(BatchWindowTest, StreamedWindowMatchesRunBatchBitwise)
{
    // A full streamed window and a runBatch() group with the same
    // member composition draw the same batched encryption stream, so
    // their logits must be bitwise identical.
    const auto plan = batchedPlan(2);
    std::vector<nn::Tensor> batch{nn::syntheticInput(net_, 21),
                                  nn::syntheticInput(net_, 22)};

    EngineOptions streamOpts;
    streamOpts.workers = 1;
    streamOpts.keySeed = 5;
    streamOpts.batchWindowSeconds = 5.0;
    InferenceEngine streaming(plan, ctx_, streamOpts);
    auto f0 = streaming.submit(batch[0]);
    auto f1 = streaming.submit(batch[1]);
    const auto s0 = f0.get();
    const auto s1 = f1.get();
    streaming.shutdown();

    EngineOptions batchOpts;
    batchOpts.workers = 1;
    batchOpts.keySeed = 5;
    InferenceEngine batched(plan, ctx_, batchOpts);
    const auto expected = batched.runBatch(batch);

    ASSERT_FALSE(s0.degraded());
    ASSERT_FALSE(s1.degraded());
    EXPECT_EQ(s0.logits, expected[0].logits);
    EXPECT_EQ(s1.logits, expected[1].logits);
}

TEST_F(BatchWindowTest, ExpiredMemberIsShedBeforeFormation)
{
    // A request whose deadline is hopeless must never occupy a lane:
    // it resolves with a structured never-executed rejection while its
    // sibling still gets served.
    const auto plan = batchedPlan(2);
    EngineOptions opts;
    opts.workers = 1;
    opts.admission = AdmissionPolicy::shed;
    opts.batchWindowSeconds = 0.05;
    InferenceEngine engine(plan, ctx_, opts);

    RequestOptions hopeless;
    hopeless.deadlineSeconds = 1e-9;
    auto dead = engine.submit(nn::syntheticInput(net_, 31), hopeless);
    const auto deadOutcome = dead.get();
    ASSERT_TRUE(deadOutcome.degraded());
    EXPECT_EQ(deadOutcome.failure->layer, "admission");
    EXPECT_EQ(deadOutcome.failure->op, "deadline");
    EXPECT_TRUE(deadOutcome.logits.empty());

    auto alive = engine.submit(nn::syntheticInput(net_, 32));
    EXPECT_FALSE(alive.get().degraded());
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST_F(BatchWindowTest, MalformedStreamedMemberDegradesAlone)
{
    // Same isolation contract as the unbatched streaming path: a
    // malformed member inside a window degrades alone, its window
    // sibling is unaffected.
    const auto plan = batchedPlan(2);
    EngineOptions opts;
    opts.workers = 1;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    opts.batchWindowSeconds = 5.0;
    InferenceEngine engine(plan, ctx_, opts);

    auto bad = engine.submit(nn::Tensor({3, 1, 1}));
    auto good = engine.submit(nn::syntheticInput(net_, 33));
    const auto badOutcome = bad.get();
    const auto goodOutcome = good.get();
    engine.shutdown();

    ASSERT_TRUE(badOutcome.degraded());
    EXPECT_EQ(badOutcome.failure->layer, "request");
    EXPECT_TRUE(badOutcome.logits.empty());
    EXPECT_FALSE(goodOutcome.degraded());
    EXPECT_FALSE(goodOutcome.logits.empty());
}

TEST_F(BatchWindowTest, ManyStreamedRequestsAllComplete)
{
    // No-lost-futures under windowed batching: every submit resolves,
    // whatever window boundaries the timing produced.
    const auto plan = batchedPlan(4);
    EngineOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 4;
    opts.batchWindowSeconds = 0.005;
    InferenceEngine engine(plan, ctx_, opts);

    constexpr std::size_t kRequests = 10;
    std::vector<std::future<hecnn::InferOutcome>> futures;
    futures.reserve(kRequests);
    for (std::size_t r = 0; r < kRequests; ++r)
        futures.push_back(
            engine.submit(nn::syntheticInput(net_, 100 + r)));
    for (auto &future : futures)
        EXPECT_FALSE(future.get().degraded());
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(stats.completed, kRequests);
    EXPECT_GE(stats.batchesExecuted, (kRequests + 3) / 4)
        << "at least ceil(N/B) batches";
    EXPECT_LE(stats.batchesExecuted, kRequests)
        << "at most one batch per request";
}

} // namespace
} // namespace fxhenn::engine
