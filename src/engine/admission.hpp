/**
 * @file
 * Overload-resilience primitives of the serving tier: the admission
 * policy, the online service-time estimate it consults, the
 * transient-vs-permanent failure classification behind deterministic
 * retry, and the circuit breaker.
 *
 * These types are deliberately engine-agnostic (no queue, no threads):
 * every decision is a pure function of explicit inputs — queue depth,
 * an EWMA, a clock reading — so the unit tests in
 * tests/engine/test_admission.cpp can drive each state machine with
 * synthetic time points and exact arithmetic. engine::InferenceEngine
 * wires them to its RequestQueue and worker pool.
 *
 * The trio mirrors robustness::GuardPolicy (strict/warn/degrade) one
 * layer up, applied to load instead of ciphertext invariants:
 *
 *  - AdmissionPolicy::block   — classic backpressure: submitters wait
 *                               for queue room (the pre-PR 7 behavior);
 *  - AdmissionPolicy::shed    — fast-fail at the door: a request that
 *                               cannot meet its deadline (queue full,
 *                               or the EWMA predicts an SLO miss) is
 *                               rejected immediately with a structured
 *                               FailureReport outcome, never an
 *                               exception and never a silent drop;
 *  - AdmissionPolicy::degrade — admit everything, but cut losses
 *                               cooperatively: an expired request is
 *                               abandoned at the next checkpoint
 *                               (queue pop or layer boundary) and
 *                               degrades into a FailureReport, exactly
 *                               like GuardPolicy::degrade does for
 *                               invariant violations.
 */
#ifndef FXHENN_ENGINE_ADMISSION_HPP
#define FXHENN_ENGINE_ADMISSION_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/thread_annotations.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::engine {

/** What the engine does with a request it cannot serve in time. */
enum class AdmissionPolicy { block, shed, degrade };

/** @return "block" | "shed" | "degrade". */
const char *admissionPolicyName(AdmissionPolicy policy);

/** Parse a policy name; throws ConfigError on anything else. */
AdmissionPolicy parseAdmissionPolicy(const std::string &name);

/**
 * Exponentially weighted moving average of observed per-request
 * service time. Thread-safe; estimateSeconds() returns 0 until the
 * first sample, which admission treats as "no estimate yet — admit".
 */
class ServiceTimeEstimator
{
  public:
    /** @p alpha is the weight of the newest sample, in (0, 1]. */
    explicit ServiceTimeEstimator(double alpha = 0.2);

    void record(double seconds);
    double estimateSeconds() const;
    std::uint64_t samples() const;

  private:
    const double alpha_;
    mutable std::mutex mutex_;
    double ewma_ FXHENN_GUARDED_BY(mutex_) = 0.0;
    std::uint64_t samples_ FXHENN_GUARDED_BY(mutex_) = 0;
};

/**
 * Shed-admission prediction of a new request's completion time, in
 * seconds from now: the queue ahead drains over @p workers servers,
 * then the request's own service runs. @p serviceSeconds is the EWMA
 * of one executed run, which serves a whole group of up to
 * @p batchLanes requests, so the @p queueDepth requests ahead count as
 * ceil(queueDepth / batchLanes) runs.
 */
double predictedCompletionSeconds(std::size_t queueDepth,
                                  std::size_t batchLanes,
                                  unsigned workers,
                                  double serviceSeconds);

/** The shed policy's verdict on a request that carries a deadline. */
enum class ShedVerdict { admit, deadline, shed };

/**
 * The shed policy's SLO check at admission: @p secondsLeft until the
 * request's deadline against the EWMA @p serviceSeconds (0 = no sample
 * yet, admit). A deadline closer than one service time cannot be met
 * even by an idle worker, so it is an expiry (deadline), not
 * overload; one that only the queue drain ahead pushes past
 * (predictedCompletionSeconds) is shed.
 */
ShedVerdict shedVerdict(double secondsLeft, std::size_t queueDepth,
                        std::size_t batchLanes, unsigned workers,
                        double serviceSeconds);

/**
 * Deterministic retry knobs. A transient failure is re-run up to
 * maxRetries times; every attempt reuses the same (keySeed,
 * requestIndex) noise stream, so a retry that succeeds is bitwise
 * identical to a first-try success (the whole point — callers cannot
 * tell, and the serial cross-check still holds).
 */
struct RetryOptions
{
    /** Re-runs of a transient failure (0 = retries disabled). */
    std::uint32_t maxRetries = 0;
    /** First backoff sleep; doubles per attempt. 0 = no sleep. */
    double backoffBaseSeconds = 0.0;
    /** Upper bound of the exponential backoff. */
    double backoffMaxSeconds = 0.100;
};

/**
 * @return the bounded exponential backoff before retry @p attempt
 * (attempt 1 = first re-run): min(base * 2^(attempt-1), max).
 */
double retryBackoffSeconds(const RetryOptions &retry,
                           std::uint32_t attempt);

/**
 * Classify a FailureReport as transient (worth re-running) or
 * permanent. Transient failures are the ones a fresh attempt can
 * plausibly clear: fault-injected corruption detected by the guard,
 * headroom/scale violations surfaced under GuardPolicy::degrade, and
 * the engine.request:transient probe. Permanent ones are structural
 * and would fail identically again: exceptions (malformed input,
 * internal errors), admission sheds, breaker short-circuits and
 * deadline expiries (retrying an already-late request only makes the
 * tail worse).
 */
bool transientFailure(const robustness::FailureReport &report);

/** Circuit-breaker position, surfaced in EngineStats. */
enum class BreakerState { closed, open, halfOpen };

/** @return "closed" | "open" | "half-open". */
const char *breakerStateName(BreakerState state);

/** Trip behavior of the circuit breaker. */
struct BreakerOptions
{
    /**
     * Consecutive executed-and-degraded outcomes that trip the breaker
     * open (0 = breaker disabled; sheds and deadline expiries do not
     * count — only requests that ran and failed).
     */
    std::uint32_t tripAfterConsecutiveFailures = 0;
    /** Open dwell before a half-open probe is admitted. */
    double openSeconds = 0.050;
};

/**
 * Consecutive-failure circuit breaker with half-open probes.
 *
 * closed --(N consecutive failures)--> open --(dwell elapses, one
 * probe admitted)--> half-open --(probe ok)--> closed, or --(probe
 * fails)--> open again. While open, admit() returns false and the
 * engine sheds the request with op "breaker" instead of queueing work
 * that is overwhelmingly likely to fail.
 *
 * All time-dependent transitions take an explicit time_point so tests
 * can drive the machine deterministically; the engine passes
 * steady_clock::now(). Thread-safe.
 */
class CircuitBreaker
{
  public:
    using TimePoint = std::chrono::steady_clock::time_point;

    explicit CircuitBreaker(BreakerOptions options = {});

    /** @return true when the breaker never trips (threshold 0). */
    bool disabled() const { return options_.tripAfterConsecutiveFailures == 0; }

    /**
     * Admission gate. Returns true when the request may proceed:
     * always when closed, and exactly once per open dwell (the
     * half-open probe). Returns false while open (dwell not elapsed)
     * or while a half-open probe is already in flight.
     */
    bool admitAt(TimePoint now);
    bool admit() { return admitAt(std::chrono::steady_clock::now()); }

    /** An executed request completed cleanly. */
    void onSuccess();

    /** An executed request degraded. */
    void onFailureAt(TimePoint now);
    void onFailure() { onFailureAt(std::chrono::steady_clock::now()); }

    BreakerState state() const;

    /** Times the breaker tripped closed -> open or half-open -> open. */
    std::uint64_t opens() const;

  private:
    const BreakerOptions options_;
    mutable std::mutex mutex_;
    BreakerState state_ FXHENN_GUARDED_BY(mutex_) =
        BreakerState::closed;
    std::uint32_t consecutiveFailures_ FXHENN_GUARDED_BY(mutex_) = 0;
    bool probeInFlight_ FXHENN_GUARDED_BY(mutex_) = false;
    std::uint64_t opens_ FXHENN_GUARDED_BY(mutex_) = 0;
    TimePoint reopenAt_ FXHENN_GUARDED_BY(mutex_){};
};

} // namespace fxhenn::engine

#endif // FXHENN_ENGINE_ADMISSION_HPP
