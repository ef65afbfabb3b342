/**
 * @file
 * Chaos suite (ctest label "overload"): fault injection x overload x
 * deadlines driven through the streaming engine, designed to run under
 * TSan. The invariant under test everywhere is *no lost futures*:
 * every submit() resolves exactly once — ok, degraded, shed or expired
 * — and every non-ok outcome carries a structured FailureReport.
 *
 * Timing discipline: the suite never asserts absolute latencies. Every
 * deadline is either hopeless (nanoseconds, expires deterministically
 * even on a fast machine) or calibrated against a measured single
 * request so a 10-20x sanitizer slowdown cannot flip an outcome.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/engine/inference_engine.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/robustness/fault_injection.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn::engine {
namespace {

class ChaosTest : public ::testing::Test
{
  protected:
    ChaosTest()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)),
          plan_(hecnn::compile(net_, params_)), ctx_(params_)
    {
    }

    void
    TearDown() override
    {
        robustness::disarmFaults();
    }

    nn::Network net_;
    ckks::CkksParams params_;
    hecnn::HeNetworkPlan plan_;
    ckks::CkksContext ctx_;
};

/**
 * The headline chaos run: three producers race mixed traffic — good
 * requests, malformed requests, hopeless deadlines — through a tiny
 * queue under AdmissionPolicy::shed with the breaker armed, while an
 * injected queue stall hits one unlucky request mid-stream. Every
 * future must resolve, every failure must be structured, and the
 * engine's books must balance exactly.
 */
TEST_F(ChaosTest, NoFutureIsLostUnderOverloadAndFaults)
{
    constexpr int kProducers = 3;
    constexpr int kPerProducer = 4;

    if (robustness::faultInjectCompiledIn()) {
        // One 20 ms queue stall somewhere mid-stream; which request it
        // hits depends on scheduling, but whichever it is must still
        // resolve its future.
        robustness::armFault({"engine.queue", "delay", 3, 1});
    }

    EngineOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 2; // force shed/backpressure decisions
    opts.guard.policy = robustness::GuardPolicy::degrade;
    opts.admission = AdmissionPolicy::shed;
    opts.retry.maxRetries = 1;
    opts.breaker.tripAfterConsecutiveFailures = 4;
    opts.breaker.openSeconds = 0.001; // recovers within the test
    InferenceEngine engine(plan_, ctx_, opts);

    const nn::Tensor good = nn::syntheticInput(net_, 7);
    const nn::Tensor bad({5, 1, 1});

    std::mutex futuresMutex;
    std::vector<std::future<hecnn::InferOutcome>> futures;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                RequestOptions req;
                const int mix = (p + i) % 4;
                // mix 0: malformed (degrades), mix 1: hopeless
                // deadline (expires), mix 2-3: plain good traffic.
                if (mix == 1)
                    req.deadlineSeconds = 1e-9;
                auto future =
                    engine.submit(mix == 0 ? bad : good, req);
                std::scoped_lock lock(futuresMutex);
                futures.push_back(std::move(future));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    std::size_t resolved = 0;
    std::size_t ok = 0;
    std::size_t execFailed = 0;        // executed, degraded
    std::size_t shedOps = 0;           // never executed: shed/breaker
    std::size_t expiredAtAdmission = 0; // never executed: deadline
    for (auto &future : futures) {
        ASSERT_TRUE(future.valid()) << "a submit() future was lost";
        const auto outcome = future.get(); // must never hang or throw
        ++resolved;
        if (!outcome.degraded()) {
            ++ok;
            EXPECT_FALSE(outcome.logits.empty());
            continue;
        }
        EXPECT_FALSE(outcome.failure->reason.empty())
            << "every failure must carry a structured report";
        EXPECT_TRUE(outcome.logits.empty());
        if (outcome.failure->layer != "admission")
            ++execFailed;
        else if (outcome.failure->op == "deadline")
            ++expiredAtAdmission;
        else
            ++shedOps;
    }
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(resolved, std::size_t(kProducers * kPerProducer));
    EXPECT_EQ(stats.submitted, std::uint64_t(resolved));
    EXPECT_EQ(stats.completed, stats.submitted)
        << "the no-lost-futures invariant: every request presented "
        << "was resolved";
    // The books must balance exactly: every outcome is ok, executed-
    // and-degraded, or a never-executed rejection, and the stats
    // counters agree with the outcomes the callers saw.
    EXPECT_EQ(ok + execFailed + shedOps + expiredAtAdmission,
              resolved);
    EXPECT_EQ(stats.degraded, std::uint64_t(execFailed));
    EXPECT_EQ(stats.shed, std::uint64_t(shedOps));
    EXPECT_GE(stats.deadlineExpired,
              std::uint64_t(expiredAtAdmission))
        << "mid-run aborts may add to deadlineExpired, never subtract";
    EXPECT_GT(stats.deadlineExpired, 0u)
        << "the hopeless-deadline mix must have expired someone";
}

/**
 * Deterministic retry under injected transient faults: the fault fires
 * on the first execution attempt, the retry re-runs the same
 * (keySeed, index) noise stream, and the final logits are bitwise
 * identical to a serial single-shot run that never saw a fault.
 */
TEST_F(ChaosTest, RetriedTransientIsBitwiseIdenticalToSerial)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";

    constexpr std::uint64_t kSeed = 31;
    constexpr std::size_t kRequests = 3;
    std::vector<nn::Tensor> batch;
    for (std::size_t r = 0; r < kRequests; ++r)
        batch.push_back(nn::syntheticInput(net_, 600 + r));

    robustness::armFault({"engine.request", "transient", 2, 1});

    EngineOptions opts;
    opts.workers = 1; // serial worker: deterministic fault placement
    opts.keySeed = kSeed;
    opts.retry.maxRetries = 2;
    opts.retry.backoffBaseSeconds = 0.001;
    InferenceEngine engine(plan_, ctx_, opts);
    const auto outcomes = engine.runBatch(batch);

    const auto stats = engine.stats();
    EXPECT_EQ(stats.retries, 1u)
        << "the injected transient must have cost exactly one retry";

    const test_support::SerialInference serial(plan_, ctx_, kSeed);
    for (std::size_t r = 0; r < kRequests; ++r) {
        ASSERT_FALSE(outcomes[r].degraded())
            << "request " << r << " must have recovered via retry";
        EXPECT_EQ(outcomes[r].logits, serial.infer(batch[r], r))
            << "request " << r
            << ": a successful retry must be bitwise invisible";
    }
}

/**
 * A transient fault with no retry budget surfaces as a degraded
 * outcome with the transient op — the engine never silently swallows
 * what it could not recover.
 */
TEST_F(ChaosTest, ExhaustedRetryBudgetSurfacesTheFailure)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";

    robustness::armFault({"engine.request", "transient", 1, 1});

    EngineOptions opts;
    opts.workers = 1;
    InferenceEngine engine(plan_, ctx_, opts); // maxRetries = 0
    const auto outcome =
        engine.submit(nn::syntheticInput(net_, 90)).get();
    ASSERT_TRUE(outcome.degraded());
    EXPECT_EQ(outcome.failure->op, "transient");
    EXPECT_EQ(engine.stats().retries, 0u);
}

/**
 * Queue-expiry under a stalled worker: a short-deadline request parked
 * behind an injected stall is shed at pop with op "deadline", never
 * executed, and its future still resolves.
 */
TEST_F(ChaosTest, StalledQueueExpiresDeadlinedRequests)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";

    // Seed 5 -> a 100 ms stall before the pop-side deadline check.
    robustness::armFault({"engine.queue", "delay", 1, 5});

    EngineOptions opts;
    opts.workers = 1;
    InferenceEngine engine(plan_, ctx_, opts);
    RequestOptions req;
    req.deadlineSeconds = 0.005; // 5 ms: hopeless behind a 100 ms stall
    const auto outcome =
        engine.submit(nn::syntheticInput(net_, 91), req).get();
    ASSERT_TRUE(outcome.degraded());
    EXPECT_EQ(outcome.failure->layer, "admission");
    EXPECT_EQ(outcome.failure->op, "deadline");
    EXPECT_TRUE(outcome.logits.empty());
    const auto stats = engine.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.completed, 1u);
}

/**
 * Batched (slot-packed) chaos: mixed traffic through a B = 2 plan's
 * accumulation windows. Same no-lost-futures invariant — whatever
 * window boundaries the race produced, every future resolves and the
 * books balance.
 */
TEST_F(ChaosTest, BatchedMixResolvesEveryFuture)
{
    hecnn::CompileOptions batchedOpts;
    batchedOpts.batchLanes = 2;
    const auto plan = hecnn::compile(net_, params_, batchedOpts);

    EngineOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 2;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    opts.admission = AdmissionPolicy::shed;
    opts.batchWindowSeconds = 0.005;
    InferenceEngine engine(plan, ctx_, opts);

    const nn::Tensor good = nn::syntheticInput(net_, 7);
    const nn::Tensor bad({5, 1, 1});

    constexpr int kProducers = 3;
    constexpr int kPerProducer = 4;
    std::mutex futuresMutex;
    std::vector<std::future<hecnn::InferOutcome>> futures;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                RequestOptions req;
                const int mix = (p + i) % 4;
                if (mix == 1)
                    req.deadlineSeconds = 1e-9;
                auto future =
                    engine.submit(mix == 0 ? bad : good, req);
                std::scoped_lock lock(futuresMutex);
                futures.push_back(std::move(future));
            }
        });
    }
    for (auto &t : producers)
        t.join();

    std::size_t resolved = 0;
    std::size_t ok = 0;
    for (auto &future : futures) {
        ASSERT_TRUE(future.valid()) << "a submit() future was lost";
        const auto outcome = future.get();
        ++resolved;
        if (!outcome.degraded()) {
            ++ok;
            EXPECT_FALSE(outcome.logits.empty());
        } else {
            EXPECT_FALSE(outcome.failure->reason.empty());
            EXPECT_TRUE(outcome.logits.empty());
        }
    }
    // Under forced overload (queue capacity 2, shed admission, three
    // producer threads racing two workers) it is legitimate for every
    // storm request to be shed — "ok" may be zero. The liveness claim
    // is that the engine still serves clean traffic once the storm has
    // drained, so probe with a clean request, retrying past any
    // breaker cooldown the storm may have opened.
    bool probeServed = false;
    for (int attempt = 0; attempt < 200 && !probeServed; ++attempt) {
        auto probe = engine.submit(good);
        probeServed = !probe.get().degraded();
        if (!probeServed)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(probeServed)
        << "engine must serve clean traffic after the storm drains";
    engine.shutdown();

    const auto stats = engine.stats();
    EXPECT_EQ(resolved, std::size_t(kProducers * kPerProducer));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_GT(stats.batchesExecuted, 0u);
}

/**
 * A guard degradation inside a shared-ciphertext run is inherently a
 * whole-group event: every member must receive the honest structured
 * report — never the garbage logits of the poisoned ciphertext, and
 * never a sibling's result.
 */
TEST_F(ChaosTest, GuardDegradationInBatchIsReportedToEverySibling)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";

    hecnn::CompileOptions batchedOpts;
    batchedOpts.batchLanes = 2;
    const auto plan = hecnn::compile(net_, params_, batchedOpts);

    // Drop the first rescale of the shared run: the guard trips
    // mid-execution with one already-poisoned ciphertext.
    robustness::armFault({"evaluator.rescale", "drop", 1, 1});

    EngineOptions opts;
    opts.workers = 1;
    opts.guard.policy = robustness::GuardPolicy::degrade;
    InferenceEngine engine(plan, ctx_, opts);
    std::vector<nn::Tensor> batch{nn::syntheticInput(net_, 41),
                                  nn::syntheticInput(net_, 42)};
    const auto outcomes = engine.runBatch(batch);

    ASSERT_EQ(outcomes.size(), 2u);
    for (std::size_t r = 0; r < 2; ++r) {
        ASSERT_TRUE(outcomes[r].degraded()) << "member " << r;
        EXPECT_TRUE(outcomes[r].logits.empty())
            << "member " << r
            << " must never see poisoned-ciphertext logits";
        EXPECT_FALSE(outcomes[r].failure->reason.empty());
    }
    // Both members carry the same whole-group diagnosis.
    EXPECT_EQ(outcomes[0].failure->op, outcomes[1].failure->op);
    EXPECT_EQ(outcomes[0].failure->reason, outcomes[1].failure->reason);
    EXPECT_EQ(engine.stats().degraded, 2u);
}

/**
 * Queue-expiry inside an accumulation window under an injected stall:
 * the short-deadline member is shed BEFORE batch formation (op
 * "deadline", never executed) while its window sibling still runs.
 */
TEST_F(ChaosTest, StalledWindowShedsExpiredMemberBeforeFormation)
{
    if (!robustness::faultInjectCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";

    hecnn::CompileOptions batchedOpts;
    batchedOpts.batchLanes = 2;
    const auto plan = hecnn::compile(net_, params_, batchedOpts);

    // Seed 5 -> a 100 ms stall before the first window opens.
    robustness::armFault({"engine.queue", "delay", 1, 5});

    EngineOptions opts;
    opts.workers = 1;
    opts.batchWindowSeconds = 0.05;
    InferenceEngine engine(plan, ctx_, opts);

    RequestOptions shortLived;
    shortLived.deadlineSeconds = 0.005; // hopeless behind 100 ms
    auto dead =
        engine.submit(nn::syntheticInput(net_, 51), shortLived);
    auto alive = engine.submit(nn::syntheticInput(net_, 52));

    const auto deadOutcome = dead.get();
    const auto aliveOutcome = alive.get();
    engine.shutdown();

    ASSERT_TRUE(deadOutcome.degraded());
    EXPECT_EQ(deadOutcome.failure->layer, "admission");
    EXPECT_EQ(deadOutcome.failure->op, "deadline");
    EXPECT_TRUE(deadOutcome.logits.empty());
    EXPECT_FALSE(aliveOutcome.degraded())
        << "the surviving sibling must still be served";

    const auto stats = engine.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_EQ(stats.completed, 2u);
}

} // namespace
} // namespace fxhenn::engine
