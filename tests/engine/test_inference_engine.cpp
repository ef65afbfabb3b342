#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::engine {
namespace {

/** Shared fixture: one compiled test network + context per suite. */
class InferenceEngineTest : public ::testing::Test
{
  protected:
    InferenceEngineTest()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)),
          plan_(hecnn::compile(net_, params_)), ctx_(params_)
    {
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

    nn::Network net_;
    ckks::CkksParams params_;
    hecnn::HeNetworkPlan plan_;
    ckks::CkksContext ctx_;
};

TEST_F(InferenceEngineTest, BatchMatchesSerialRuntimeBitwise)
{
    constexpr std::size_t kRequests = 4;
    constexpr std::uint64_t kSeed = 17;
    const auto batch = inputs(kRequests);

    EngineOptions opts;
    opts.workers = 4;
    opts.keySeed = kSeed;
    InferenceEngine engine(plan_, ctx_, opts);
    const auto outcomes = engine.runBatch(batch);
    ASSERT_EQ(outcomes.size(), kRequests);

    // Same key seed, same request order: N serial infer() calls must
    // produce bitwise the same logits as the concurrent batch.
    const test_support::SerialInference serial(plan_, ctx_, kSeed);
    for (std::size_t r = 0; r < kRequests; ++r) {
        ASSERT_FALSE(outcomes[r].degraded());
        const auto expect = serial.infer(batch[r], r);
        ASSERT_EQ(outcomes[r].logits.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(outcomes[r].logits[i], expect[i])
                << "request " << r << " logit " << i
                << " differs from serial inference";
    }
}

TEST_F(InferenceEngineTest, WorkerCountDoesNotChangeResults)
{
    constexpr std::size_t kRequests = 3;
    const auto batch = inputs(kRequests, 500);

    EngineOptions one;
    one.workers = 1;
    one.keySeed = 23;
    InferenceEngine serial(plan_, ctx_, one);
    const auto serialOut = serial.runBatch(batch);

    EngineOptions four;
    four.workers = 4;
    four.keySeed = 23;
    InferenceEngine parallel(plan_, ctx_, four);
    const auto parallelOut = parallel.runBatch(batch);

    ASSERT_EQ(serialOut.size(), parallelOut.size());
    for (std::size_t r = 0; r < kRequests; ++r) {
        ASSERT_FALSE(serialOut[r].degraded());
        ASSERT_FALSE(parallelOut[r].degraded());
        EXPECT_EQ(serialOut[r].logits, parallelOut[r].logits)
            << "request " << r << " depends on the worker count";
    }
}

TEST_F(InferenceEngineTest, MalformedRequestDegradesAlone)
{
    // A wrong-shaped tensor must fail its own request with a report,
    // not throw out of the engine or poison its neighbors.
    auto batch = inputs(3, 900);
    batch[1] = nn::Tensor({1, 1, 1}); // far too few elements

    EngineOptions opts;
    opts.workers = 3;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    InferenceEngine engine(plan_, ctx_, opts);
    const auto outcomes = engine.runBatch(batch);

    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].degraded());
    ASSERT_TRUE(outcomes[1].degraded());
    EXPECT_EQ(outcomes[1].failure->layer, "request");
    EXPECT_TRUE(outcomes[1].logits.empty());
    EXPECT_FALSE(outcomes[2].degraded());

    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, 3u);
    EXPECT_EQ(stats.completed, 3u);
    EXPECT_EQ(stats.degraded, 1u);
}

TEST_F(InferenceEngineTest, StreamingSubmitMatchesBatch)
{
    constexpr std::size_t kRequests = 3;
    const auto batch = inputs(kRequests, 300);

    EngineOptions opts;
    opts.workers = 2;
    opts.keySeed = 41;
    InferenceEngine streaming(plan_, ctx_, opts);
    std::vector<std::future<hecnn::InferOutcome>> futures;
    futures.reserve(kRequests);
    for (const auto &input : batch)
        futures.push_back(streaming.submit(input));

    EngineOptions batchOpts;
    batchOpts.workers = 2;
    batchOpts.keySeed = 41;
    InferenceEngine batched(plan_, ctx_, batchOpts);
    const auto expected = batched.runBatch(batch);

    for (std::size_t r = 0; r < kRequests; ++r) {
        const auto outcome = futures[r].get();
        ASSERT_FALSE(outcome.degraded());
        EXPECT_EQ(outcome.logits, expected[r].logits)
            << "submit() order must match runBatch() order";
    }
    streaming.shutdown();
    EXPECT_EQ(streaming.stats().completed, kRequests);
}

// Stress test: multiple producers stream mixed ok/malformed requests
// through the bounded queue while the worker pool serves them. This is
// the TSan target for the engine: submission counters, the queue, the
// shared plaintext pool, the stats aggregation and the per-request
// executors all run concurrently here.
TEST_F(InferenceEngineTest, ConcurrentMixedStreamStress)
{
    constexpr int kProducers = 3;
    constexpr int kPerProducer = 4;

    EngineOptions opts;
    opts.workers = 4;
    opts.queueCapacity = 2; // force backpressure on the producers
    opts.guard.policy = robustness::GuardPolicy::degrade;
    InferenceEngine engine(plan_, ctx_, opts);

    const nn::Tensor good = nn::syntheticInput(net_, 7);
    const nn::Tensor bad({2, 1, 1});

    std::mutex futuresMutex;
    std::vector<std::future<hecnn::InferOutcome>> futures;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                // Every third request is malformed and must degrade.
                const bool malformed = (p + i) % 3 == 0;
                auto future =
                    engine.submit(malformed ? bad : good);
                std::scoped_lock lock(futuresMutex);
                futures.push_back(std::move(future));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    std::size_t degraded = 0;
    for (auto &future : futures) {
        const auto outcome = future.get();
        if (outcome.degraded()) {
            ++degraded;
            EXPECT_TRUE(outcome.logits.empty());
        } else {
            EXPECT_FALSE(outcome.logits.empty());
        }
    }
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted,
              std::uint64_t(kProducers * kPerProducer));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.degraded, degraded);
    EXPECT_GT(degraded, 0u) << "stress mix must include degraded runs";
    EXPECT_LT(degraded, stats.submitted);
}

TEST_F(InferenceEngineTest, SubmitBeyondQueueCapacityCompletes)
{
    EngineOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 1; // every extra submit must block, not fail
    InferenceEngine engine(plan_, ctx_, opts);

    const nn::Tensor input = nn::syntheticInput(net_, 11);
    constexpr std::size_t kRequests = 5;
    std::vector<std::future<hecnn::InferOutcome>> futures;
    futures.reserve(kRequests);
    for (std::size_t r = 0; r < kRequests; ++r)
        futures.push_back(engine.submit(input));

    for (auto &future : futures)
        EXPECT_FALSE(future.get().degraded());
    engine.shutdown();
    EXPECT_EQ(engine.stats().completed, kRequests);
}

TEST_F(InferenceEngineTest, SubmitAndRunBatchAfterShutdownThrow)
{
    EngineOptions opts;
    opts.workers = 1;
    InferenceEngine engine(plan_, ctx_, opts);
    const auto batch = inputs(1, 40);
    EXPECT_FALSE(engine.runBatch(batch)[0].degraded());
    engine.shutdown();

    // Both entry points share the contract: a shut-down engine rejects
    // new work with ConfigError instead of hanging or crashing.
    EXPECT_THROW(engine.submit(batch[0]), ConfigError);
    EXPECT_THROW(engine.runBatch(batch), ConfigError);
}

TEST_F(InferenceEngineTest, ExpiredDeadlineShedsWithoutExecuting)
{
    EngineOptions opts;
    opts.workers = 1;
    opts.admission = AdmissionPolicy::shed;
    InferenceEngine engine(plan_, ctx_, opts);

    // A deadline that is already hopeless at admission: the future
    // resolves immediately with a structured report, never executes.
    RequestOptions req;
    req.deadlineSeconds = 1e-9;
    auto future = engine.submit(nn::syntheticInput(net_, 50), req);
    const auto outcome = future.get();
    ASSERT_TRUE(outcome.degraded());
    EXPECT_EQ(outcome.failure->layer, "admission");
    EXPECT_EQ(outcome.failure->op, "deadline");
    EXPECT_TRUE(outcome.logits.empty());

    const auto stats = engine.stats();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.degraded, 0u)
        << "a never-executed request is not an executed-and-degraded "
        << "one";
}

TEST_F(InferenceEngineTest, ShedRequestDoesNotShiftSurvivorIndices)
{
    constexpr std::uint64_t kSeed = 77;
    const auto batch = inputs(3, 800);

    EngineOptions opts;
    opts.workers = 1;
    opts.keySeed = kSeed;
    opts.admission = AdmissionPolicy::shed;
    InferenceEngine engine(plan_, ctx_, opts);

    // Request 0 runs, request 1 is shed at admission (hopeless
    // deadline), request 2 runs. The shed request must still consume
    // noise-stream index 1, so request 2 stays bitwise aligned with
    // serial request 2.
    RequestOptions hopeless;
    hopeless.deadlineSeconds = 1e-9;
    auto f0 = engine.submit(batch[0]);
    auto f1 = engine.submit(batch[1], hopeless);
    auto f2 = engine.submit(batch[2]);
    const auto o0 = f0.get();
    const auto o1 = f1.get();
    const auto o2 = f2.get();
    ASSERT_FALSE(o0.degraded());
    ASSERT_TRUE(o1.degraded());
    ASSERT_FALSE(o2.degraded());

    const test_support::SerialInference serial(plan_, ctx_, kSeed);
    EXPECT_EQ(o0.logits, serial.infer(batch[0], 0));
    EXPECT_EQ(o2.logits, serial.infer(batch[2], 2));
}

TEST_F(InferenceEngineTest, BreakerTripsOnConsecutiveFailures)
{
    EngineOptions opts;
    opts.workers = 1;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    opts.breaker.tripAfterConsecutiveFailures = 2;
    opts.breaker.openSeconds = 60.0; // stays open for the whole test
    InferenceEngine engine(plan_, ctx_, opts);

    const nn::Tensor bad({3, 1, 1});
    ASSERT_TRUE(engine.submit(bad).get().degraded());
    ASSERT_TRUE(engine.submit(bad).get().degraded());

    // Two consecutive executed failures tripped the breaker: the next
    // request is shed at admission without executing.
    const auto shedOutcome =
        engine.submit(nn::syntheticInput(net_, 60)).get();
    ASSERT_TRUE(shedOutcome.degraded());
    EXPECT_EQ(shedOutcome.failure->layer, "admission");
    EXPECT_EQ(shedOutcome.failure->op, "breaker");

    const auto stats = engine.stats();
    EXPECT_EQ(stats.breakerState, BreakerState::open);
    EXPECT_EQ(stats.breakerOpens, 1u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.degraded, 2u);
}

TEST_F(InferenceEngineTest, PermanentFailuresAreNeverRetried)
{
    EngineOptions opts;
    opts.workers = 1;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    opts.retry.maxRetries = 3;
    InferenceEngine engine(plan_, ctx_, opts);

    // A malformed request fails with op "exception" — permanent, so
    // retries stay at zero no matter the budget.
    const nn::Tensor bad({4, 1, 1});
    ASSERT_TRUE(engine.submit(bad).get().degraded());
    EXPECT_EQ(engine.stats().retries, 0u);
}

TEST_F(InferenceEngineTest, QueueWaitAndServiceSplitIsRecorded)
{
    EngineOptions opts;
    opts.workers = 2;
    InferenceEngine engine(plan_, ctx_, opts);
    for (const auto &outcome : engine.runBatch(inputs(4, 90)))
        ASSERT_FALSE(outcome.degraded());

    const auto stats = engine.stats();
    EXPECT_GT(stats.meanServiceSeconds, 0.0);
    EXPECT_GT(stats.p50LatencySeconds, 0.0);
    EXPECT_LE(stats.p50LatencySeconds, stats.p95LatencySeconds);
    EXPECT_LE(stats.p95LatencySeconds, stats.p99LatencySeconds);
    EXPECT_LE(stats.p99LatencySeconds, stats.maxLatencySeconds);
    EXPECT_DOUBLE_EQ(stats.meanQueueWaitSeconds, 0.0)
        << "runBatch() requests never sit in the admission queue";
    EXPECT_DOUBLE_EQ(stats.meanLatencySeconds,
                     stats.meanServiceSeconds)
        << "with zero queue wait, latency is pure service time";
}

TEST_F(InferenceEngineTest, PlaintextPoolSharedAcrossRequests)
{
    EngineOptions opts;
    opts.workers = 2;
    InferenceEngine engine(plan_, ctx_, opts);

    const auto &pool = engine.plaintextPool();
    EXPECT_GT(pool.size(), 0u) << "test network has pcMult weights";
    EXPECT_GT(pool.bytes(), 0u);

    // Two batches reuse the same pool; its contents never change.
    const std::size_t before = pool.size();
    engine.runBatch(inputs(2, 60));
    engine.runBatch(inputs(2, 70));
    EXPECT_EQ(pool.size(), before);
}

} // namespace
} // namespace fxhenn::engine
