/**
 * @file
 * The server role of the MLaaS split: a plan interpreter over the
 * register file, with no key generation and no secret-key access.
 *
 * A PlanExecutor borrows everything it needs by const reference — the
 * compiled plan, the CKKS context, the relinearization/Galois keys and
 * the precomputed PlaintextPool — and keeps no per-request state in
 * the object: every execute() call starts its own backend run and
 * register file on the stack. The guard's prediction depends only on
 * the plan, so the executor computes it once, at construction, and
 * shares it read-only between requests. Every HE op dispatches through
 * the ExecutionBackend named in ExecOptions::backend
 * (src/hecnn/backend.hpp), so the same interpreter drives the host CPU
 * path and the cycle-approximate FPGA pipeline simulator unchanged.
 * One executor therefore serves any number of concurrent requests
 * (the InferenceEngine's worker pool), and the
 * FxHENN verification loop (Sec. VII) gets the plan-interpreter half
 * without dragging in the client role.
 */
#ifndef FXHENN_HECNN_PLAN_EXECUTOR_HPP
#define FXHENN_HECNN_PLAN_EXECUTOR_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/encoder.hpp"
#include "src/ckks/evaluator.hpp"
#include "src/ckks/keys.hpp"
#include "src/hecnn/backend.hpp"
#include "src/hecnn/guard.hpp"
#include "src/hecnn/plaintext_pool.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/stats.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/** Execution strategy knobs of one PlanExecutor. */
struct ExecOptions
{
    /**
     * Dispatch consecutive same-source rotations as one hoisted group
     * (one shared digit decomposition) instead of serial rotates.
     * Results are bitwise identical either way — the serial and
     * hoisted paths share the same decompose-then-permute core.
     */
    bool hoistRotations = true;
    /** Keyswitch reduction strategy for the per-run evaluators. */
    ckks::KswMode kswMode = ckks::KswMode::lazy;
    /**
     * Execution backend every HE op of this executor dispatches
     * through, by registry name ("cpu", "cpu-ref", "fpga-sim", ...).
     * Empty resolves the FXHENN_BACKEND environment variable and
     * falls back to "cpu" (hecnn::resolveBackendName()); an unknown
     * name is a ConfigError at executor construction.
     */
    std::string backend;
    /**
     * Honor RunControl::deadline at layer boundaries: an in-flight
     * request whose budget is blown aborts cooperatively with a
     * FailureReport (op "deadline") instead of running to completion.
     * Off means deadlines are checked only at admission.
     */
    bool deadlineCheckpoints = true;
};

/**
 * Per-call serving controls of one execute(). Unlike ExecOptions
 * (fixed per executor) these vary request by request, so the engine
 * passes them per call; the executor stays stateless.
 */
struct RunControl
{
    /**
     * Cooperative abort-by time. Checked between layers (the
     * checkpoint granularity of the interpreter); a blown deadline
     * degrades the run with a FailureReport regardless of the guard
     * policy — lateness is a serving concern, not a broken invariant.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /**
     * Observer invoked at each layer boundary (after the layer's
     * instructions ran, before the guard's layer-end check) with the
     * layer index and the live register file. The noise differential
     * tests use it to measure per-layer headroom against the static
     * certificate — square layers overwrite their inputs in place, so
     * intermediate states are unobservable after the run. Must not
     * mutate the registers; exceptions propagate like layer errors.
     */
    std::function<void(std::size_t layerIndex,
                       std::span<const std::optional<ckks::Ciphertext>>
                           regs)>
        layerProbe;
};

/** Everything one encrypted run produced, scoped to that request. */
struct ExecutionResult
{
    /** Final register file (the output registers hold the logits). */
    std::vector<std::optional<ckks::Ciphertext>> regs;
    /** Wall time + executed-op breakdown per layer. */
    std::vector<MeasuredLayerStats> layerStats;
    /** Backend op counters accumulated over the run. */
    ckks::OpCounts executed;
    /** Registry name of the backend that ran the request. */
    std::string backendName;
    /**
     * Per-layer simulated-latency timeline, one row per executed
     * layer; empty unless the backend simulates hardware (fpga-sim).
     */
    std::vector<SimLayerLatency> simulated;
    /** Set when the run degraded (GuardPolicy::degrade). */
    std::optional<robustness::FailureReport> failure;
    /** Predicted per-layer noise-budget trajectory. */
    std::vector<robustness::BudgetSample> budget;

    bool degraded() const { return failure.has_value(); }
};

/**
 * What a client receives for one guarded encrypted inference. Either
 * `logits` holds the decrypted result, or `failure` explains why the
 * run was aborted (GuardPolicy::degrade) — never garbage logits.
 */
struct InferOutcome
{
    std::vector<double> logits;
    std::optional<robustness::FailureReport> failure;
    /** Predicted per-layer noise-budget trajectory. */
    std::vector<robustness::BudgetSample> budget;
    /** Registry name of the execution backend that ran the request. */
    std::string backendName;
    /** HE ops the backend dispatched for this request. */
    std::uint64_t opsExecuted = 0;
    /** Per-layer simulated-latency timeline (empty unless the backend
     * simulates hardware, e.g. "fpga-sim"). */
    std::vector<SimLayerLatency> simulated;

    bool degraded() const { return failure.has_value(); }

    /** Total simulated seconds across the timeline (0 when empty). */
    double
    simulatedSeconds() const
    {
        double total = 0.0;
        for (const auto &row : simulated)
            total += row.simulatedSeconds;
        return total;
    }
};

/** Stateless-per-request interpreter of one compiled HE-CNN plan. */
class PlanExecutor
{
  public:
    /**
     * Borrow @p plan, @p context, the evaluation keys and @p pool.
     * All five must outlive the executor and stay unmodified; the pool
     * must have been built from the same plan/context.
     */
    PlanExecutor(const HeNetworkPlan &plan,
                 const ckks::CkksContext &context,
                 const ckks::RelinKey &relin,
                 const ckks::GaloisKeys &galois,
                 const PlaintextPool &pool,
                 robustness::GuardOptions guard = {},
                 ExecOptions exec = {});

    /**
     * Run every layer of the plan over @p inputs (the client's
     * encrypted input registers, in plan order). Under
     * GuardPolicy::degrade a violation or mid-layer
     * ConfigError/InternalError aborts the run with a FailureReport in
     * the result instead of propagating. Safe to call concurrently.
     */
    ExecutionResult execute(std::vector<ckks::Ciphertext> inputs) const;

    /**
     * execute() with per-request serving controls: when
     * ExecOptions::deadlineCheckpoints is on and @p control carries a
     * deadline, the run checks it at every layer boundary and aborts
     * with a FailureReport (op "deadline") once it is past — the
     * partial trajectory up to the abort is preserved.
     */
    ExecutionResult execute(std::vector<ckks::Ciphertext> inputs,
                            const RunControl &control) const;

    const HeNetworkPlan &plan() const { return plan_; }
    const robustness::GuardOptions &guardOptions() const
    {
        return guard_.options();
    }
    const ExecOptions &execOptions() const { return execOptions_; }

    /** The execution backend every op of this executor runs through
     * (resolved once at construction from ExecOptions::backend). */
    const ExecutionBackend &backend() const { return *backend_; }

  private:
    /** Mutable state of one in-flight request, stack-allocated. */
    struct Run
    {
        std::unique_ptr<BackendRun> ops;
        std::vector<std::optional<ckks::Ciphertext>> regs;
        std::vector<MeasuredLayerStats> layerStats;
        /** Layers whose layer-end check ran: the budget samples a
         *  FailureReport of this run carries. */
        std::size_t layersChecked = 0;
    };

    void executeLayer(Run &run, std::size_t layer) const;
    void guardViolation(Run &run, const std::string &layer,
                        const char *op, const std::string &reason) const;

    const HeNetworkPlan &plan_;
    const ckks::CkksContext &context_;
    const ckks::RelinKey &relin_;
    const ckks::GaloisKeys &galois_;
    const PlaintextPool &pool_;
    ckks::Encoder encoder_; ///< re-entrant (bias encodes at run scale)
    ExecOptions execOptions_;
    std::unique_ptr<ExecutionBackend> backend_;
    /** Plan-only guard prediction, computed once at construction. */
    RuntimeGuard guard_;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAN_EXECUTOR_HPP
