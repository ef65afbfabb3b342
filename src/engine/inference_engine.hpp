/**
 * @file
 * Concurrent batched encrypted inference over one compiled HE-CNN.
 *
 * The engine composes the layered split (hecnn::ClientSession for key
 * material and the encrypt/decrypt codec, hecnn::PlanExecutor for the
 * stateless plan interpreter, hecnn::PlaintextPool for the shared
 * weight encodings) and adds the serving concerns on top:
 *
 *  - a worker pool (common/parallel) running N requests concurrently
 *    over shared read-only keys, plan and plaintext pool;
 *  - a bounded request queue for the streaming submit() path, with an
 *    AdmissionPolicy (block | shed | degrade) deciding what happens
 *    when it fills or a request cannot meet its deadline;
 *  - per-request deadlines: expired-in-queue requests are shed with a
 *    structured FailureReport (never executed); in-flight requests
 *    degrade at the executor's between-layer checkpoints;
 *  - deterministic retry of transient failures — every attempt of
 *    request r reuses the (keySeed, r) noise stream, so a retry that
 *    succeeds is bitwise identical to a first-try success;
 *  - a consecutive-failure circuit breaker with half-open probes;
 *  - per-request InferOutcomes — a request that degrades, throws, is
 *    shed or expires is isolated into its own FailureReport and never
 *    takes down the engine or its neighbors, and every future handed
 *    out completes;
 *  - aggregate statistics (queue-wait vs service split, p50/p95/p99
 *    latency) plus telemetry ("engine.requests", "engine.degraded",
 *    "engine.shed", "engine.deadline_expired", "engine.retries",
 *    "engine.breaker.*", "engine.queue_wait.ns", "engine.service.ns",
 *    "engine.batch.size", "engine.batch.slot_fill_frac",
 *    "engine.batch.window_wait.ns").
 *
 * Every request runs as a member of a group of up to B = batchLanes
 * requests sharing one ciphertext run; an unbatched plan (B = 1)
 * serves each request as a group of one. runBatch() partitions its
 * inputs into consecutive B-groups; at B > 1 the streaming path opens
 * an accumulation window when a worker pops a request and collects up
 * to B-1 more from the queue, flushing on B-full or on a
 * deadline-margin timeout (min(batchWindowSeconds, head deadline
 * minus the EWMA service estimate)). Expired members are shed BEFORE
 * group formation; a member that fails input validation degrades
 * alone with its lane zeroed; a whole-group failure is reported
 * honestly to every member (never garbage logits). Demuxed results are
 * pure slot extraction in ClientSession::decryptLogitsBatch, so
 * sibling outcomes stay isolated.
 *
 * Determinism: request r (in submission order) is numbered r, and a
 * group encrypts with the noise stream derived from (keySeed, fold of
 * its live member indices). At B = 1 that fold is r itself, so the
 * engine's logits are bitwise those of ClientSession::encryptInput(x,
 * r) run through a PlanExecutor with the same key seed, on 1 worker or
 * 8. Admission decisions never shift indices: a shed request still
 * consumed its index, so the survivors stay aligned with that serial
 * reference. Batched (B > 1) outputs are a pure function of the
 * ordered member composition and its inputs, bitwise reproducible
 * across repeats, worker counts and SIMD levels.
 * They are numerically — not bitwise — equal to the B serial runs (see
 * docs/ARCHITECTURE.md section 15 for why bitwise cross-equality is
 * impossible under CKKS canonical-embedding rounding).
 */
#ifndef FXHENN_ENGINE_INFERENCE_ENGINE_HPP
#define FXHENN_ENGINE_INFERENCE_ENGINE_HPP

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "src/engine/admission.hpp"
#include "src/engine/request_queue.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plaintext_pool.hpp"
#include "src/nn/tensor.hpp"

namespace fxhenn::engine {

/** Serving knobs of one InferenceEngine. */
struct EngineOptions
{
    /** Concurrent requests in flight (>= 1). */
    unsigned workers = 4;
    /** Bounded admission queue depth for submit() backpressure. */
    std::size_t queueCapacity = 64;
    /** Seed of the session key material and the noise streams. */
    std::uint64_t keySeed = 1;
    robustness::GuardOptions guard{};
    /** Overload behavior: block (backpressure), shed, or degrade. */
    AdmissionPolicy admission = AdmissionPolicy::block;
    /**
     * Default per-request latency SLO in seconds, measured from
     * admission; <= 0 means no deadline. RequestOptions can override
     * it per request.
     */
    double deadlineSeconds = 0.0;
    RetryOptions retry{};
    BreakerOptions breaker{};
    /** EWMA weight of the online service-time estimate. */
    double serviceEwmaAlpha = 0.2;
    /**
     * Streaming batch accumulation window in seconds (plans with
     * batchLanes > 1 only): after popping a request, a worker waits at
     * most this long for siblings to fill the batch, and never past
     * the head request's deadline margin. <= 0 disables waiting — a
     * worker takes whatever is already queued and runs immediately.
     */
    double batchWindowSeconds = 0.01;
    /** Executor strategy (hoisting, keyswitch mode) of every worker. */
    hecnn::ExecOptions exec{};
};

/** Per-request serving overrides for submit()/runBatch(). */
struct RequestOptions
{
    /**
     * Latency SLO of this request in seconds, from the moment of
     * admission; <= 0 inherits EngineOptions::deadlineSeconds (whose
     * own 0 means "no deadline").
     */
    double deadlineSeconds = 0.0;
};

/** Aggregate counters over the engine's lifetime (a snapshot). */
struct EngineStats
{
    std::uint64_t submitted = 0; ///< requests presented (incl. shed)
    /** Outcomes delivered: ok + degraded + shed + expired. Every
     *  accepted future resolves, so after a drain this equals
     *  `submitted` — the no-lost-futures invariant. */
    std::uint64_t completed = 0;
    /** Executed runs that ended with a FailureReport (guard violation,
     *  exception, or a mid-run deadline abort). Shed and queue-expired
     *  requests never executed and are counted separately below. */
    std::uint64_t degraded = 0;
    /** Never-executed rejections: admission fast-fails (queue full,
     *  predicted SLO miss) and breaker short-circuits. */
    std::uint64_t shed = 0;
    /** Deadline casualties: expired in queue (never executed) plus
     *  mid-run cooperative aborts (also counted in `degraded`). */
    std::uint64_t deadlineExpired = 0;
    /** Transient-failure re-runs (attempts beyond the first). */
    std::uint64_t retries = 0;
    std::uint64_t breakerOpens = 0;
    BreakerState breakerState = BreakerState::closed;

    /** Latency of executed requests (queue wait + service). */
    double minLatencySeconds = 0.0;
    double maxLatencySeconds = 0.0;
    double meanLatencySeconds = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    double p99LatencySeconds = 0.0;
    /** Queue-wait vs service-time split (streaming submit() path;
     *  runBatch() requests have no queue and count as pure service). */
    double meanQueueWaitSeconds = 0.0;
    double meanServiceSeconds = 0.0;
    /** Wall time and throughput of the most recent runBatch(). */
    double lastBatchSeconds = 0.0;
    double lastBatchRequestsPerSecond = 0.0;
    /** Batched ciphertext runs executed (batchLanes > 1 groups). */
    std::uint64_t batchesExecuted = 0;
    /** HE ops executed, each group's shared run counted once (every
     *  member's InferOutcome::opsExecuted carries the whole group's
     *  count, so summing outcomes overcounts by the occupancy). */
    std::uint64_t opsExecuted = 0;
    /** Mean live members per executed batch (slot-fill quality). */
    double meanBatchOccupancy = 0.0;
};

/** Multi-request inference server for one (plan, context) pair. */
class InferenceEngine
{
  public:
    /**
     * Generate the session keys and build the shared plaintext pool.
     * @p plan and @p context must outlive the engine.
     */
    InferenceEngine(const hecnn::HeNetworkPlan &plan,
                    const ckks::CkksContext &context,
                    EngineOptions options = {});

    /** Joins the streaming workers (pending requests are drained). */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Run @p inputs as one batch over the worker pool and return the
     * outcomes in input order. Deterministic for a fixed key seed and
     * submission history, independent of the worker count. A request
     * that throws ConfigError/InternalError mid-flight yields a
     * degraded outcome instead of propagating; one whose deadline is
     * already blown when a worker picks it up is shed without
     * executing. Throws ConfigError after shutdown().
     */
    std::vector<hecnn::InferOutcome> runBatch(
        const std::vector<nn::Tensor> &inputs, RequestOptions req = {});

    /**
     * Streaming admission: enqueue one request and return a future for
     * its outcome. Under AdmissionPolicy::block this blocks while the
     * bounded queue is full (backpressure, bounded by the request
     * deadline when one is set); under shed it fast-fails instead —
     * the returned future resolves immediately with a shed
     * FailureReport outcome. The worker threads start lazily on first
     * call. Throws ConfigError after shutdown().
     */
    std::future<hecnn::InferOutcome> submit(nn::Tensor input,
                                            RequestOptions req = {});

    /**
     * Stop accepting requests, drain the queue and join the workers.
     * Futures already handed out all complete. Idempotent.
     */
    void shutdown();

    /** Lifetime aggregate statistics (thread-safe snapshot). */
    EngineStats stats() const;

    const EngineOptions &options() const { return options_; }
    const hecnn::ClientSession &session() const { return session_; }
    const hecnn::PlaintextPool &plaintextPool() const { return pool_; }
    const hecnn::PlanExecutor &executor() const { return executor_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One queued streaming request. */
    struct Job
    {
        nn::Tensor input;
        std::uint64_t index = 0;
        std::optional<Clock::time_point> deadline;
        Clock::time_point enqueued{};
        std::promise<hecnn::InferOutcome> promise;
    };

    /** Kept under statsMutex_; stats() derives the percentile view. */
    static constexpr std::size_t kLatencyReservoir = 4096;

    std::optional<Clock::time_point>
    resolveDeadline(const RequestOptions &req, Clock::time_point now)
        const;

    /** Result of one group execution (B = 1: a single request). */
    struct GroupResult
    {
        /** Per-member outcomes, aligned with the member arguments. */
        std::vector<hecnn::InferOutcome> outcomes;
        /** Whole-group transient infrastructure failure (retryable). */
        bool sharedTransient = false;
        /** Whole-group failure of any kind (breaker-relevant). */
        bool sharedFailure = false;
    };

    /**
     * encrypt -> execute -> decrypt for up to batchLanes members, with
     * request-level isolation: pre-validate each input (a malformed
     * member degrades alone, its lane zeroed), encrypt the survivors
     * into shared ciphertexts under the batchRequestKey of their
     * indices, execute once and demux. Every request runs here; at
     * B = 1 the group is the request itself.
     */
    GroupResult runGroup(
        const std::vector<const nn::Tensor *> &inputs,
        const std::vector<std::uint64_t> &indices,
        const std::optional<Clock::time_point> &deadline);

    /**
     * runGroup() plus whole-group transient retry + breaker hooks. A
     * group with no live member counts as a permanent failure.
     */
    std::vector<hecnn::InferOutcome> runGroupWithRetry(
        const std::vector<const nn::Tensor *> &inputs,
        const std::vector<std::uint64_t> &indices,
        const std::optional<Clock::time_point> &deadline);

    /** Op total, batch telemetry and occupancy stats for one executed
     *  group (the batch part at B > 1 only: a group of one is not a
     *  batch). @p groupOps is the group's shared op count. */
    void recordBatch(std::size_t liveMembers, double windowWaitSeconds,
                     std::uint64_t groupOps);

    /** Structured never-executed outcome (shed / expired / breaker). */
    static hecnn::InferOutcome rejectOutcome(const char *op,
                                             const std::string &reason);

    void recordExecuted(const hecnn::InferOutcome &outcome,
                        double queueWaitSeconds, double serviceSeconds);
    void recordRejected(const hecnn::InferOutcome &outcome);
    void startWorkers();
    void workerLoop();
    /** Streaming path: @p head opens an accumulation window (no wait
     *  at B = 1) and the window runs as one group. */
    void workerRunWindow(Job head);

    EngineOptions options_;
    hecnn::ClientSession session_;
    hecnn::PlaintextPool pool_;
    hecnn::PlanExecutor executor_;
    ServiceTimeEstimator estimator_;
    CircuitBreaker breaker_;
    /** Batch lanes B of the plan (1 = per-request serving). */
    std::size_t lanes_ = 1;

    mutable std::mutex statsMutex_;
    EngineStats stats_;
    double batchOccupancySum_ = 0.0;
    double latencySumSeconds_ = 0.0;
    double queueWaitSumSeconds_ = 0.0;
    double serviceSumSeconds_ = 0.0;
    std::uint64_t executedCount_ = 0;
    std::vector<double> latencyReservoir_;
    std::size_t latencyNext_ = 0;

    std::mutex lifecycleMutex_;
    bool started_ = false;
    bool stopped_ = false;
    RequestQueue<Job> queue_;
    std::vector<std::thread> workers_;
};

} // namespace fxhenn::engine

#endif // FXHENN_ENGINE_INFERENCE_ENGINE_HPP
