/**
 * @file
 * Unit tests of the serving-tier overload primitives: admission-policy
 * parsing, the EWMA service-time estimate, retry backoff and
 * classification, and the circuit-breaker state machine. Everything is
 * driven with synthetic time points and exact arithmetic — no engine,
 * no threads, no sleeps.
 */
#include <gtest/gtest.h>

#include <chrono>

#include "src/common/assert.hpp"
#include "src/engine/admission.hpp"

namespace fxhenn::engine {
namespace {

using namespace std::chrono_literals;

TEST(AdmissionPolicyTest, NamesRoundTrip)
{
    EXPECT_EQ(parseAdmissionPolicy("block"), AdmissionPolicy::block);
    EXPECT_EQ(parseAdmissionPolicy("shed"), AdmissionPolicy::shed);
    EXPECT_EQ(parseAdmissionPolicy("degrade"),
              AdmissionPolicy::degrade);
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::block), "block");
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::shed), "shed");
    EXPECT_STREQ(admissionPolicyName(AdmissionPolicy::degrade),
                 "degrade");
}

TEST(AdmissionPolicyTest, UnknownNameIsConfigError)
{
    EXPECT_THROW(parseAdmissionPolicy("drop"), ConfigError);
    EXPECT_THROW(parseAdmissionPolicy(""), ConfigError);
    EXPECT_THROW(parseAdmissionPolicy("Block"), ConfigError)
        << "policy names are case-sensitive";
}

TEST(ServiceTimeEstimatorTest, NoSamplesMeansNoEstimate)
{
    ServiceTimeEstimator est(0.5);
    EXPECT_EQ(est.estimateSeconds(), 0.0);
    EXPECT_EQ(est.samples(), 0u);
}

TEST(ServiceTimeEstimatorTest, FirstSampleSeedsThenEwmaBlends)
{
    ServiceTimeEstimator est(0.5);
    est.record(0.100);
    EXPECT_DOUBLE_EQ(est.estimateSeconds(), 0.100)
        << "the first sample seeds the EWMA directly";
    est.record(0.200);
    EXPECT_DOUBLE_EQ(est.estimateSeconds(), 0.150);
    est.record(0.150);
    EXPECT_DOUBLE_EQ(est.estimateSeconds(), 0.150);
    EXPECT_EQ(est.samples(), 3u);
}

TEST(ServiceTimeEstimatorTest, NegativeSamplesClampToZero)
{
    ServiceTimeEstimator est(1.0);
    est.record(-5.0);
    EXPECT_DOUBLE_EQ(est.estimateSeconds(), 0.0);
    EXPECT_EQ(est.samples(), 1u);
}

TEST(ServiceTimeEstimatorTest, InvalidAlphaIsConfigError)
{
    EXPECT_THROW(ServiceTimeEstimator(0.0), ConfigError);
    EXPECT_THROW(ServiceTimeEstimator(-0.1), ConfigError);
    EXPECT_THROW(ServiceTimeEstimator(1.5), ConfigError);
}

TEST(ShedPredictorTest, UnbatchedQueueCountsEveryRequest)
{
    // B = 1: each queued request is one run ahead of us.
    EXPECT_DOUBLE_EQ(predictedCompletionSeconds(3, 1, 1, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(predictedCompletionSeconds(4, 1, 2, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(predictedCompletionSeconds(0, 1, 1, 0.5), 0.5);
}

TEST(ShedPredictorTest, BatchedQueueCountsGroupsNotRequests)
{
    // B = 16, service EWMA 1 s per group run: a request queued behind
    // fewer than B others waits for at most one run, so a deadline
    // above 2x the estimate admits it (the per-request count predicted
    // 16 s and shed it).
    const double est = 1.0;
    const double deadline = 2.5 * est;
    const double predicted = predictedCompletionSeconds(15, 16, 1, est);
    EXPECT_DOUBLE_EQ(predicted, 2.0 * est);
    EXPECT_LE(predicted, deadline) << "request would be shed";
    // Past one full group the wait grows by one run per group.
    EXPECT_DOUBLE_EQ(predictedCompletionSeconds(17, 16, 1, est), 3.0);
    EXPECT_DOUBLE_EQ(predictedCompletionSeconds(32, 16, 2, est), 2.0);
}

TEST(ShedVerdictTest, DeadlineCloserThanOneServiceTimeIsAnExpiry)
{
    // Even an idle engine (empty queue) cannot serve a request whose
    // deadline is closer than one run: it expires, it is not shed. A
    // 1 ns deadline is the chaos suite's hopeless request.
    EXPECT_EQ(shedVerdict(1e-9, 0, 1, 2, 0.05), ShedVerdict::deadline);
    EXPECT_EQ(shedVerdict(0.049, 0, 1, 2, 0.05), ShedVerdict::deadline);
    EXPECT_EQ(shedVerdict(0.049, 8, 1, 2, 0.05), ShedVerdict::deadline);
    // Meetable by an idle worker but not behind the queue: shed.
    EXPECT_EQ(shedVerdict(0.06, 4, 1, 2, 0.05), ShedVerdict::shed);
    EXPECT_EQ(shedVerdict(0.06, 0, 1, 2, 0.05), ShedVerdict::admit);
    EXPECT_EQ(shedVerdict(0.16, 4, 1, 2, 0.05), ShedVerdict::admit);
    // No service sample yet: nothing to predict with, admit.
    EXPECT_EQ(shedVerdict(1e-9, 8, 1, 2, 0.0), ShedVerdict::admit);
}

TEST(RetryBackoffTest, DoublesUpToTheCap)
{
    RetryOptions retry;
    retry.backoffBaseSeconds = 0.010;
    retry.backoffMaxSeconds = 0.035;
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 1), 0.010);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 2), 0.020);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 3), 0.035)
        << "backoff must saturate at backoffMaxSeconds";
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 30), 0.035)
        << "deep attempts must not overflow past the cap";
}

TEST(RetryBackoffTest, ZeroBaseMeansNoSleep)
{
    RetryOptions retry;
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 1), 0.0);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(retry, 5), 0.0);
}

TEST(TransientClassificationTest, ServingOpsArePermanent)
{
    robustness::FailureReport report;
    for (const char *op : {"exception", "shed", "breaker", "deadline"}) {
        report.op = op;
        EXPECT_FALSE(transientFailure(report))
            << "op '" << op << "' must be permanent";
    }
}

TEST(TransientClassificationTest, GuardDetectionsAreTransient)
{
    robustness::FailureReport report;
    for (const char *op : {"rescale", "layer-end", "transient"}) {
        report.op = op;
        EXPECT_TRUE(transientFailure(report))
            << "op '" << op << "' must be retryable";
    }
}

TEST(CircuitBreakerTest, DisabledBreakerNeverTrips)
{
    CircuitBreaker breaker; // tripAfterConsecutiveFailures = 0
    EXPECT_TRUE(breaker.disabled());
    for (int i = 0; i < 100; ++i)
        breaker.onFailure();
    EXPECT_TRUE(breaker.admit());
    EXPECT_EQ(breaker.state(), BreakerState::closed);
    EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly)
{
    BreakerOptions opts;
    opts.tripAfterConsecutiveFailures = 3;
    CircuitBreaker breaker(opts);
    const auto t0 = std::chrono::steady_clock::now();

    breaker.onFailureAt(t0);
    breaker.onFailureAt(t0);
    breaker.onSuccess(); // resets the streak
    breaker.onFailureAt(t0);
    breaker.onFailureAt(t0);
    EXPECT_EQ(breaker.state(), BreakerState::closed)
        << "a success mid-streak must reset the counter";

    breaker.onFailureAt(t0);
    EXPECT_EQ(breaker.state(), BreakerState::open);
    EXPECT_EQ(breaker.opens(), 1u);
    EXPECT_FALSE(breaker.admitAt(t0)) << "open must shed immediately";
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess)
{
    BreakerOptions opts;
    opts.tripAfterConsecutiveFailures = 1;
    opts.openSeconds = 0.050;
    CircuitBreaker breaker(opts);
    const auto t0 = std::chrono::steady_clock::now();

    breaker.onFailureAt(t0);
    ASSERT_EQ(breaker.state(), BreakerState::open);
    EXPECT_FALSE(breaker.admitAt(t0 + 10ms)) << "dwell not elapsed";

    EXPECT_TRUE(breaker.admitAt(t0 + 60ms))
        << "first admission after the dwell is the half-open probe";
    EXPECT_EQ(breaker.state(), BreakerState::halfOpen);
    EXPECT_FALSE(breaker.admitAt(t0 + 61ms))
        << "only one probe may be in flight";

    breaker.onSuccess();
    EXPECT_EQ(breaker.state(), BreakerState::closed);
    EXPECT_TRUE(breaker.admitAt(t0 + 62ms));
    EXPECT_EQ(breaker.opens(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens)
{
    BreakerOptions opts;
    opts.tripAfterConsecutiveFailures = 1;
    opts.openSeconds = 0.050;
    CircuitBreaker breaker(opts);
    const auto t0 = std::chrono::steady_clock::now();

    breaker.onFailureAt(t0);
    ASSERT_TRUE(breaker.admitAt(t0 + 60ms)); // the probe
    breaker.onFailureAt(t0 + 70ms);
    EXPECT_EQ(breaker.state(), BreakerState::open)
        << "a failed probe must re-open";
    EXPECT_EQ(breaker.opens(), 2u);
    EXPECT_FALSE(breaker.admitAt(t0 + 100ms))
        << "the dwell restarts from the failed probe";
    EXPECT_TRUE(breaker.admitAt(t0 + 130ms))
        << "a fresh probe is due after the new dwell";
}

TEST(CircuitBreakerTest, StateNamesAreStable)
{
    EXPECT_STREQ(breakerStateName(BreakerState::closed), "closed");
    EXPECT_STREQ(breakerStateName(BreakerState::open), "open");
    EXPECT_STREQ(breakerStateName(BreakerState::halfOpen),
                 "half-open");
}

} // namespace
} // namespace fxhenn::engine
