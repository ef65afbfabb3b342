#include "src/engine/inference_engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::engine {

namespace {

/** Nearest-rank percentile of an unsorted sample copy. */
double
percentile(std::vector<double> &sample, double q)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    const double rank = std::ceil(q * double(sample.size()));
    const std::size_t idx = rank < 1.0 ? 0
                                       : std::min(sample.size() - 1,
                                                  std::size_t(rank) - 1);
    return sample[idx];
}

std::chrono::steady_clock::duration
secondsToDuration(double seconds)
{
    return std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
}

} // namespace

InferenceEngine::InferenceEngine(const hecnn::HeNetworkPlan &plan,
                                 const ckks::CkksContext &context,
                                 EngineOptions options)
    : options_(options), session_(plan, context, options.keySeed),
      pool_(plan, context),
      executor_(plan, context, session_.relinKey(),
                session_.galoisKeys(), pool_, options.guard,
                options.exec),
      estimator_(options.serviceEwmaAlpha), breaker_(options.breaker),
      lanes_(plan.batchLanes),
      queue_(options.queueCapacity == 0 ? 1 : options.queueCapacity)
{
    FXHENN_FATAL_IF(options.workers == 0,
                    "engine needs at least one worker");
    latencyReservoir_.reserve(kLatencyReservoir);
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

std::optional<InferenceEngine::Clock::time_point>
InferenceEngine::resolveDeadline(const RequestOptions &req,
                                 Clock::time_point now) const
{
    const double seconds = req.deadlineSeconds > 0.0
                               ? req.deadlineSeconds
                               : options_.deadlineSeconds;
    if (seconds <= 0.0)
        return std::nullopt;
    return now + secondsToDuration(seconds);
}

hecnn::InferOutcome
InferenceEngine::rejectOutcome(const char *op,
                               const std::string &reason)
{
    robustness::FailureReport report;
    report.layer = "admission";
    report.op = op;
    report.reason = reason;
    hecnn::InferOutcome out;
    out.failure = std::move(report);
    return out;
}

InferenceEngine::GroupResult
InferenceEngine::runGroup(
    const std::vector<const nn::Tensor *> &inputs,
    const std::vector<std::uint64_t> &indices,
    const std::optional<Clock::time_point> &deadline)
{
    GroupResult group;
    group.outcomes.resize(inputs.size());
    FXHENN_TELEM_COUNT("engine.requests",
                       static_cast<std::int64_t>(inputs.size()));

    // Member pre-validation: a malformed request degrades alone with
    // a structured report and its lane zeroed, instead of poisoning
    // the whole batch with a mid-encrypt exception.
    std::vector<const nn::Tensor *> lanes(lanes_, nullptr);
    std::vector<std::uint64_t> liveIndices;
    std::vector<std::size_t> liveSlots; // member position per lane
    for (std::size_t b = 0; b < inputs.size(); ++b) {
        try {
            session_.validateInput(*inputs[b]);
        } catch (const ConfigError &e) {
            robustness::FailureReport report;
            report.layer = "request";
            report.op = "exception";
            report.reason = e.what();
            group.outcomes[b].failure = std::move(report);
            continue;
        }
        lanes[b] = inputs[b];
        liveIndices.push_back(indices[b]);
        liveSlots.push_back(b);
    }
    if (liveIndices.empty()) {
        // Nothing left to run: a permanent failure of the whole run,
        // which the breaker counts like any other.
        group.sharedFailure = true;
        return group;
    }

    // A run-level failure names the unit that failed: the request
    // itself at B = 1, the shared batch at B > 1.
    const char *runLayer = lanes_ > 1 ? "batch" : "request";
    const auto fail = [&](const std::string &reason, const char *op) {
        for (const std::size_t b : liveSlots) {
            robustness::FailureReport report;
            report.layer = runLayer;
            report.op = op;
            report.reason = reason;
            group.outcomes[b].failure = std::move(report);
            group.outcomes[b].logits.clear();
        }
        group.sharedFailure = true;
    };

    // Injected transient infrastructure failure hits the shared run:
    // every live member sees the same retryable report.
    if (auto fault = robustness::fireFault("engine.request")) {
        fail("injected transient request fault (kind " + fault->kind +
                 ")",
             "transient");
        group.sharedTransient = true;
        return group;
    }

    try {
        hecnn::RunControl control;
        control.deadline = deadline;
        auto result = executor_.execute(
            session_.encryptInputBatch(
                std::span<const nn::Tensor *const>(lanes),
                hecnn::ClientSession::batchRequestKey(liveIndices)),
            control);
        for (const std::size_t b : liveSlots) {
            group.outcomes[b].budget = result.budget;
            group.outcomes[b].backendName = result.backendName;
            group.outcomes[b].opsExecuted = result.executed.total();
            group.outcomes[b].simulated = result.simulated;
        }
        if (result.failure) {
            // Whole-group degradation (guard violation, mid-run
            // deadline abort): every member gets the honest report —
            // never the garbage logits of a poisoned ciphertext.
            for (const std::size_t b : liveSlots)
                group.outcomes[b].failure = result.failure;
            group.sharedFailure = true;
            group.sharedTransient = transientFailure(*result.failure);
            return group;
        }
        // Lanes are indexed by group position (a shed sibling leaves
        // its lane zeroed, not compacted), so member b demuxes lane b.
        const auto demuxed = session_.decryptLogitsBatch(result.regs);
        for (const std::size_t b : liveSlots)
            group.outcomes[b].logits = demuxed[b];
    } catch (const ConfigError &e) {
        fail(e.what(), "exception");
    } catch (const InternalError &e) {
        fail(e.what(), "exception");
    }
    return group;
}

std::vector<hecnn::InferOutcome>
InferenceEngine::runGroupWithRetry(
    const std::vector<const nn::Tensor *> &inputs,
    const std::vector<std::uint64_t> &indices,
    const std::optional<Clock::time_point> &deadline)
{
    std::uint32_t attempt = 0;
    for (;;) {
        // The encryption stream is a pure function of (keySeed,
        // member composition), so a successful retry is bitwise
        // identical to a first-try success: retries are invisible in
        // the logits.
        GroupResult group = runGroup(inputs, indices, deadline);
        if (!group.sharedFailure) {
            breaker_.onSuccess();
            return std::move(group.outcomes);
        }
        const bool retryable = group.sharedTransient &&
                               attempt < options_.retry.maxRetries;
        if (!retryable) {
            breaker_.onFailure();
            return std::move(group.outcomes);
        }
        ++attempt;
        const double backoff =
            retryBackoffSeconds(options_.retry, attempt);
        if (deadline &&
            Clock::now() + secondsToDuration(backoff) > *deadline) {
            breaker_.onFailure();
            return std::move(group.outcomes);
        }
        {
            std::scoped_lock lock(statsMutex_);
            stats_.retries += 1;
        }
        FXHENN_TELEM_COUNT("engine.retries", 1);
        if (backoff > 0.0)
            std::this_thread::sleep_for(secondsToDuration(backoff));
    }
}

void
InferenceEngine::recordBatch(std::size_t liveMembers,
                             double windowWaitSeconds)
{
    // A group of one is unbatched serving, not a batch.
    if (lanes_ == 1)
        return;
    if (telemetry::enabled()) {
        telemetry::histogram("engine.batch.size")
            .record(static_cast<std::uint64_t>(liveMembers));
        // Recorded as a percentage: 100 = every lane carries a
        // request, lower = ciphertext slots idled by a partial batch.
        telemetry::histogram("engine.batch.slot_fill_frac")
            .record(static_cast<std::uint64_t>(
                (100.0 * double(liveMembers)) / double(lanes_)));
        telemetry::histogram("engine.batch.window_wait.ns")
            .record(static_cast<std::uint64_t>(windowWaitSeconds *
                                               1e9));
    }
    std::scoped_lock lock(statsMutex_);
    stats_.batchesExecuted += 1;
    batchOccupancySum_ += double(liveMembers);
    stats_.meanBatchOccupancy =
        batchOccupancySum_ / double(stats_.batchesExecuted);
}

void
InferenceEngine::recordExecuted(const hecnn::InferOutcome &outcome,
                                double queueWaitSeconds,
                                double serviceSeconds)
{
    const double seconds = queueWaitSeconds + serviceSeconds;
    const bool deadlineAbort =
        outcome.degraded() && outcome.failure->op == "deadline";
    if (outcome.degraded())
        FXHENN_TELEM_COUNT("engine.degraded", 1);
    if (deadlineAbort)
        FXHENN_TELEM_COUNT("engine.deadline_expired", 1);
    estimator_.record(serviceSeconds);
    if (telemetry::enabled()) {
        telemetry::histogram("engine.request.ns")
            .record(static_cast<std::uint64_t>(seconds * 1e9));
        telemetry::histogram("engine.queue_wait.ns")
            .record(
                static_cast<std::uint64_t>(queueWaitSeconds * 1e9));
        telemetry::histogram("engine.service.ns")
            .record(static_cast<std::uint64_t>(serviceSeconds * 1e9));
    }
    std::scoped_lock lock(statsMutex_);
    stats_.completed += 1;
    if (outcome.degraded())
        stats_.degraded += 1;
    if (deadlineAbort)
        stats_.deadlineExpired += 1;
    executedCount_ += 1;
    latencySumSeconds_ += seconds;
    queueWaitSumSeconds_ += queueWaitSeconds;
    serviceSumSeconds_ += serviceSeconds;
    stats_.meanLatencySeconds =
        latencySumSeconds_ / double(executedCount_);
    if (executedCount_ == 1) {
        stats_.minLatencySeconds = seconds;
        stats_.maxLatencySeconds = seconds;
    } else {
        stats_.minLatencySeconds =
            std::min(stats_.minLatencySeconds, seconds);
        stats_.maxLatencySeconds =
            std::max(stats_.maxLatencySeconds, seconds);
    }
    if (latencyReservoir_.size() < kLatencyReservoir) {
        latencyReservoir_.push_back(seconds);
    } else {
        latencyReservoir_[latencyNext_] = seconds;
        latencyNext_ = (latencyNext_ + 1) % kLatencyReservoir;
    }
}

void
InferenceEngine::recordRejected(const hecnn::InferOutcome &outcome)
{
    const bool expired =
        outcome.failure && outcome.failure->op == "deadline";
    if (expired)
        FXHENN_TELEM_COUNT("engine.deadline_expired", 1);
    else
        FXHENN_TELEM_COUNT("engine.shed", 1);
    std::scoped_lock lock(statsMutex_);
    stats_.completed += 1;
    if (expired)
        stats_.deadlineExpired += 1;
    else
        stats_.shed += 1;
}

std::vector<hecnn::InferOutcome>
InferenceEngine::runBatch(const std::vector<nn::Tensor> &inputs,
                          RequestOptions req)
{
    {
        // Same contract as submit(): a shut-down engine rejects new
        // work loudly instead of silently racing the worker teardown.
        std::scoped_lock lock(lifecycleMutex_);
        FXHENN_FATAL_IF(stopped_,
                        "inference engine is shut down and no longer "
                        "accepts requests");
    }
    std::uint64_t base = 0;
    {
        std::scoped_lock lock(statsMutex_);
        base = stats_.submitted;
        stats_.submitted += inputs.size();
    }
    const auto deadline = resolveDeadline(req, Clock::now());
    std::vector<hecnn::InferOutcome> outcomes(inputs.size());
    Timer wall;
    // Consecutive B-groups (one request each at B = 1), so the member
    // composition, and with it the encryption stream, is deterministic
    // regardless of which worker runs which group.
    const std::size_t groups = (inputs.size() + lanes_ - 1) / lanes_;
    parallelForWorkers(options_.workers, groups, [&](std::size_t g) {
        const std::size_t lo = g * lanes_;
        const std::size_t hi = std::min(inputs.size(), lo + lanes_);
        std::vector<const nn::Tensor *> members;
        std::vector<std::uint64_t> indices;
        std::vector<std::size_t> positions;
        // Shed-before-formation: breaker and deadline verdicts are per
        // member, so a dead request never occupies a lane.
        for (std::size_t i = lo; i < hi; ++i) {
            const auto start = Clock::now();
            if (!breaker_.admitAt(start)) {
                outcomes[i] = rejectOutcome(
                    "breaker",
                    "circuit breaker open: request shed before "
                    "execution");
                recordRejected(outcomes[i]);
                continue;
            }
            if (deadline && start > *deadline) {
                outcomes[i] = rejectOutcome(
                    "deadline",
                    "request deadline expired before execution "
                    "started (never executed)");
                recordRejected(outcomes[i]);
                continue;
            }
            members.push_back(&inputs[i]);
            indices.push_back(base + i);
            positions.push_back(i);
        }
        if (members.empty())
            return;
        Timer latency;
        auto groupOutcomes = runGroupWithRetry(members, indices, deadline);
        const double serviceSeconds = latency.elapsedSeconds();
        recordBatch(members.size(), 0.0);
        for (std::size_t j = 0; j < positions.size(); ++j) {
            outcomes[positions[j]] = std::move(groupOutcomes[j]);
            recordExecuted(outcomes[positions[j]], 0.0, serviceSeconds);
        }
    });
    const double seconds = wall.elapsedSeconds();
    {
        std::scoped_lock lock(statsMutex_);
        stats_.lastBatchSeconds = seconds;
        stats_.lastBatchRequestsPerSecond =
            seconds > 0.0 ? double(inputs.size()) / seconds : 0.0;
    }
    return outcomes;
}

std::future<hecnn::InferOutcome>
InferenceEngine::submit(nn::Tensor input, RequestOptions req)
{
    startWorkers();
    const auto now = Clock::now();
    Job job;
    job.input = std::move(input);
    job.deadline = resolveDeadline(req, now);
    job.enqueued = now;
    {
        std::scoped_lock lock(statsMutex_);
        job.index = stats_.submitted;
        stats_.submitted += 1;
    }
    auto future = job.promise.get_future();

    // Breaker short-circuit: while open, the engine does not queue
    // work that is overwhelmingly likely to fail — the future resolves
    // immediately with a structured rejection.
    if (!breaker_.admitAt(now)) {
        auto out = rejectOutcome("breaker",
                                 "circuit breaker open: request shed "
                                 "at admission");
        recordRejected(out);
        job.promise.set_value(std::move(out));
        return future;
    }

    if (options_.admission == AdmissionPolicy::shed) {
        if (job.deadline && now > *job.deadline) {
            auto out = rejectOutcome(
                "deadline",
                "request deadline already expired at admission");
            recordRejected(out);
            job.promise.set_value(std::move(out));
            return future;
        }
        // SLO-aware fast-fail: with an online service-time estimate,
        // a request predicted to finish after its deadline is rejected
        // now instead of wasting queue time and worker cycles. The
        // predicted completion is queue drain (the groups ahead of us,
        // over `workers` servers) plus our own service time.
        if (job.deadline) {
            const double est = estimator_.estimateSeconds();
            const std::size_t depth = queue_.size();
            const double left =
                std::chrono::duration<double>(*job.deadline - now).count();
            const ShedVerdict verdict =
                shedVerdict(left, depth, lanes_, options_.workers, est);
            if (verdict != ShedVerdict::admit) {
                const std::string estimate =
                    "(EWMA service estimate " + std::to_string(est) +
                    " s, queue depth " + std::to_string(depth) + ")";
                auto out =
                    verdict == ShedVerdict::deadline
                        ? rejectOutcome("deadline",
                                        "deadline closer than one "
                                        "service time " + estimate)
                        : rejectOutcome("shed",
                                        "predicted completion exceeds "
                                        "deadline " + estimate);
                recordRejected(out);
                job.promise.set_value(std::move(out));
                return future;
            }
        }
        if (!queue_.tryPush(std::move(job))) {
            FXHENN_FATAL_IF(queue_.closed(),
                            "inference engine is shut down and no "
                            "longer accepts requests");
            // A request whose deadline passed while it was being
            // admitted expired; the full queue only decides its timing.
            const bool expired =
                job.deadline && Clock::now() > *job.deadline;
            auto out = rejectOutcome(
                expired ? "deadline" : "shed",
                "admission queue full (capacity " +
                    std::to_string(queue_.capacity()) + ")");
            recordRejected(out);
            job.promise.set_value(std::move(out));
            return future;
        }
        return future;
    }

    // block / degrade: backpressure admission. With a deadline the
    // wait is bounded by it — a producer parked past its own SLO is
    // told so and the request is shed, never silently enqueued late.
    if (job.deadline) {
        const auto deadline = *job.deadline;
        const PushResult result = queue_.pushFor(std::move(job),
                                                 deadline);
        if (result == PushResult::accepted)
            return future;
        FXHENN_FATAL_IF(result == PushResult::closed,
                        "inference engine is shut down and no longer "
                        "accepts requests");
        auto out = rejectOutcome(
            "deadline",
            "request deadline expired while waiting for queue room "
            "(never executed)");
        recordRejected(out);
        job.promise.set_value(std::move(out));
        return future;
    }
    const bool accepted = queue_.push(std::move(job));
    FXHENN_FATAL_IF(!accepted,
                    "inference engine is shut down and no longer "
                    "accepts requests");
    return future;
}

void
InferenceEngine::startWorkers()
{
    std::scoped_lock lock(lifecycleMutex_);
    FXHENN_FATAL_IF(stopped_, "inference engine is shut down");
    if (started_)
        return;
    started_ = true;
    workers_.reserve(options_.workers);
    for (unsigned w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

void
InferenceEngine::workerLoop()
{
    // Request-level parallelism owns the threads here; the RNS-limb
    // loops inside the kernels run inline on this thread.
    markPoolWorker(true);
    Job job;
    while (queue_.pop(job)) {
        // Injected queue delay (a stalled upstream, a slow scheduler
        // tick): workerRunWindow's deadline check runs after it, so the
        // fault deterministically expires short-deadline requests.
        if (auto fault = robustness::fireFault("engine.queue")) {
            const std::uint64_t ms =
                20 * std::max<std::uint64_t>(1, fault->seed);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
        }
        workerRunWindow(std::move(job));
    }
    markPoolWorker(false);
}

void
InferenceEngine::workerRunWindow(Job head)
{
    // Accumulation window: @p head opens it; collect up to B-1
    // siblings, flushing on B-full or when waiting longer would
    // endanger the head's own SLO (its deadline minus the EWMA
    // service-time estimate).
    const auto opened = Clock::now();
    std::vector<Job> window;
    window.reserve(lanes_);
    window.push_back(std::move(head));
    if (options_.batchWindowSeconds > 0.0 && lanes_ > 1) {
        auto flushAt =
            opened + secondsToDuration(options_.batchWindowSeconds);
        if (window[0].deadline) {
            const auto margin =
                secondsToDuration(estimator_.estimateSeconds());
            const auto latest = *window[0].deadline - margin;
            if (latest < flushAt)
                flushAt = latest;
        }
        if (flushAt > opened)
            queue_.popUpToUntil(window, lanes_ - 1, flushAt);
    }
    const double windowWait =
        std::chrono::duration<double>(Clock::now() - opened).count();

    // Shed expired members BEFORE batch formation: a dead request
    // never occupies a lane.
    const auto picked = Clock::now();
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < window.size(); ++i) {
        Job &member = window[i];
        if (member.deadline && picked > *member.deadline) {
            const double queueWait =
                std::chrono::duration<double>(picked -
                                              member.enqueued)
                    .count();
            auto out = rejectOutcome(
                "deadline",
                "request deadline expired after " +
                    std::to_string(queueWait) +
                    " s in queue (never executed)");
            recordRejected(out);
            member.promise.set_value(std::move(out));
            continue;
        }
        live.push_back(i);
    }
    if (live.empty())
        return;

    std::vector<const nn::Tensor *> members;
    std::vector<std::uint64_t> indices;
    std::optional<Clock::time_point> deadline;
    for (const std::size_t i : live) {
        members.push_back(&window[i].input);
        indices.push_back(window[i].index);
        // The shared run honors the tightest member SLO: the executor
        // aborts at the next checkpoint once any member's deadline
        // passes, and every member learns about it honestly.
        if (window[i].deadline &&
            (!deadline || *window[i].deadline < *deadline))
            deadline = window[i].deadline;
    }
    Timer service;
    auto outcomes = runGroupWithRetry(members, indices, deadline);
    const double serviceSeconds = service.elapsedSeconds();
    recordBatch(members.size(), windowWait);
    for (std::size_t j = 0; j < live.size(); ++j) {
        Job &member = window[live[j]];
        const double queueWait =
            std::chrono::duration<double>(picked - member.enqueued)
                .count();
        recordExecuted(outcomes[j], queueWait, serviceSeconds);
        member.promise.set_value(std::move(outcomes[j]));
    }
}

void
InferenceEngine::shutdown()
{
    {
        std::scoped_lock lock(lifecycleMutex_);
        stopped_ = true;
    }
    queue_.close();
    std::vector<std::thread> workers;
    {
        std::scoped_lock lock(lifecycleMutex_);
        workers.swap(workers_);
    }
    for (auto &worker : workers)
        worker.join();
}

EngineStats
InferenceEngine::stats() const
{
    EngineStats snapshot;
    std::vector<double> sample;
    {
        std::scoped_lock lock(statsMutex_);
        snapshot = stats_;
        sample = latencyReservoir_;
        if (executedCount_ > 0) {
            snapshot.meanQueueWaitSeconds =
                queueWaitSumSeconds_ / double(executedCount_);
            snapshot.meanServiceSeconds =
                serviceSumSeconds_ / double(executedCount_);
        }
    }
    snapshot.p50LatencySeconds = percentile(sample, 0.50);
    snapshot.p95LatencySeconds = percentile(sample, 0.95);
    snapshot.p99LatencySeconds = percentile(sample, 0.99);
    snapshot.breakerState = breaker_.state();
    snapshot.breakerOpens = breaker_.opens();
    return snapshot;
}

} // namespace fxhenn::engine
