#include "src/engine/admission.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::engine {

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
      case AdmissionPolicy::block:
        return "block";
      case AdmissionPolicy::shed:
        return "shed";
      case AdmissionPolicy::degrade:
        return "degrade";
    }
    return "unknown";
}

AdmissionPolicy
parseAdmissionPolicy(const std::string &name)
{
    if (name == "block")
        return AdmissionPolicy::block;
    if (name == "shed")
        return AdmissionPolicy::shed;
    if (name == "degrade")
        return AdmissionPolicy::degrade;
    throw ConfigError("unknown admission policy '" + name +
                      "' (expected block, shed or degrade)");
}

ServiceTimeEstimator::ServiceTimeEstimator(double alpha) : alpha_(alpha)
{
    FXHENN_FATAL_IF(!(alpha > 0.0) || alpha > 1.0,
                    "service-time EWMA alpha must be in (0, 1]");
}

void
ServiceTimeEstimator::record(double seconds)
{
    if (seconds < 0.0)
        seconds = 0.0;
    std::scoped_lock lock(mutex_);
    ewma_ = samples_ == 0 ? seconds
                          : alpha_ * seconds + (1.0 - alpha_) * ewma_;
    samples_ += 1;
}

double
ServiceTimeEstimator::estimateSeconds() const
{
    std::scoped_lock lock(mutex_);
    return samples_ == 0 ? 0.0 : ewma_;
}

std::uint64_t
ServiceTimeEstimator::samples() const
{
    std::scoped_lock lock(mutex_);
    return samples_;
}

double
predictedCompletionSeconds(std::size_t queueDepth, std::size_t batchLanes,
                           unsigned workers, double serviceSeconds)
{
    const std::size_t lanes = std::max<std::size_t>(batchLanes, 1);
    const double runsAhead = double((queueDepth + lanes - 1) / lanes);
    return (runsAhead / double(std::max(workers, 1u))) * serviceSeconds +
           serviceSeconds;
}

ShedVerdict
shedVerdict(double secondsLeft, std::size_t queueDepth,
            std::size_t batchLanes, unsigned workers, double serviceSeconds)
{
    if (serviceSeconds <= 0.0)
        return ShedVerdict::admit;
    if (secondsLeft < serviceSeconds)
        return ShedVerdict::deadline;
    if (secondsLeft < predictedCompletionSeconds(queueDepth, batchLanes,
                                                 workers, serviceSeconds))
        return ShedVerdict::shed;
    return ShedVerdict::admit;
}

double
retryBackoffSeconds(const RetryOptions &retry, std::uint32_t attempt)
{
    if (retry.backoffBaseSeconds <= 0.0 || attempt == 0)
        return 0.0;
    double backoff = retry.backoffBaseSeconds;
    for (std::uint32_t i = 1; i < attempt; ++i) {
        backoff *= 2.0;
        if (backoff >= retry.backoffMaxSeconds)
            break;
    }
    return std::min(backoff, retry.backoffMaxSeconds);
}

bool
transientFailure(const robustness::FailureReport &report)
{
    // Permanent classes carry a serving-layer op tag; everything else
    // is a guard-detected violation (an opcode, "layer-end" or the
    // injected "transient") that a fresh attempt can clear.
    return report.op != "exception" && report.op != "shed" &&
           report.op != "breaker" && report.op != "deadline";
}

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::closed:
        return "closed";
      case BreakerState::open:
        return "open";
      case BreakerState::halfOpen:
        return "half-open";
    }
    return "unknown";
}

CircuitBreaker::CircuitBreaker(BreakerOptions options)
    : options_(options)
{
}

bool
CircuitBreaker::admitAt(TimePoint now)
{
    if (disabled())
        return true;
    std::scoped_lock lock(mutex_);
    switch (state_) {
      case BreakerState::closed:
        return true;
      case BreakerState::open:
        if (now < reopenAt_)
            return false;
        state_ = BreakerState::halfOpen;
        probeInFlight_ = true;
        FXHENN_TELEM_COUNT("engine.breaker.half_open_probes", 1);
        return true;
      case BreakerState::halfOpen:
        // One probe at a time: everyone else keeps getting shed until
        // the in-flight probe settles the breaker's fate.
        return false;
    }
    return true;
}

void
CircuitBreaker::onSuccess()
{
    if (disabled())
        return;
    std::scoped_lock lock(mutex_);
    consecutiveFailures_ = 0;
    if (state_ == BreakerState::halfOpen) {
        state_ = BreakerState::closed;
        probeInFlight_ = false;
        FXHENN_TELEM_COUNT("engine.breaker.closed", 1);
    }
}

void
CircuitBreaker::onFailureAt(TimePoint now)
{
    if (disabled())
        return;
    std::scoped_lock lock(mutex_);
    const auto dwell = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(options_.openSeconds));
    if (state_ == BreakerState::halfOpen) {
        state_ = BreakerState::open;
        probeInFlight_ = false;
        reopenAt_ = now + dwell;
        opens_ += 1;
        FXHENN_TELEM_COUNT("engine.breaker.opened", 1);
        return;
    }
    consecutiveFailures_ += 1;
    if (state_ == BreakerState::closed &&
        consecutiveFailures_ >= options_.tripAfterConsecutiveFailures) {
        state_ = BreakerState::open;
        reopenAt_ = now + dwell;
        opens_ += 1;
        FXHENN_TELEM_COUNT("engine.breaker.opened", 1);
    }
}

BreakerState
CircuitBreaker::state() const
{
    std::scoped_lock lock(mutex_);
    return state_;
}

std::uint64_t
CircuitBreaker::opens() const
{
    std::scoped_lock lock(mutex_);
    return opens_;
}

} // namespace fxhenn::engine
