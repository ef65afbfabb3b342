/**
 * @file
 * The serial reference the tests compare against: one ClientSession,
 * PlaintextPool and PlanExecutor for a plan, built in the order the
 * InferenceEngine builds them, so the same key seed yields the same
 * keys. Request r encrypts with the session's (seed, r) noise stream,
 * which is what the engine uses for its r-th request at B = 1.
 */
#ifndef FXHENN_TESTS_SUPPORT_SERIAL_INFERENCE_HPP
#define FXHENN_TESTS_SUPPORT_SERIAL_INFERENCE_HPP

#include <cstdint>
#include <vector>

#include "src/common/assert.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plaintext_pool.hpp"

namespace fxhenn::test_support {

struct SerialInference
{
    SerialInference(const hecnn::HeNetworkPlan &plan,
                    const ckks::CkksContext &ctx, std::uint64_t seed = 1,
                    robustness::GuardOptions guard = {},
                    hecnn::ExecOptions exec = {})
        : session(plan, ctx, seed), pool(plan, ctx),
          executor(plan, ctx, session.relinKey(), session.galoisKeys(),
                   pool, guard, exec)
    {}

    /** Encrypt @p input as request @p r and execute the plan on it. */
    hecnn::ExecutionResult
    run(const nn::Tensor &input, std::uint64_t r = 0) const
    {
        return executor.execute(session.encryptInput(input, r));
    }

    /** Decrypted logits of request @p r; throws if the run degrades. */
    std::vector<double>
    infer(const nn::Tensor &input, std::uint64_t r = 0) const
    {
        const auto result = run(input, r);
        FXHENN_PANIC_IF(result.failure.has_value(),
                        "encrypted inference degraded at layer " +
                            result.failure->layer + ": " +
                            result.failure->reason);
        return session.decryptLogits(result.regs);
    }

    hecnn::ClientSession session;
    hecnn::PlaintextPool pool;
    hecnn::PlanExecutor executor;
};

} // namespace fxhenn::test_support

#endif // FXHENN_TESTS_SUPPORT_SERIAL_INFERENCE_HPP
