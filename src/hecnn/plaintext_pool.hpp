/**
 * @file
 * Precomputed pool of encoded scheme-scale plaintexts for one plan.
 *
 * Every pcMult instruction references a PlanPlaintext that encodes at
 * the fixed scheme scale Delta and a fixed level, so its encoding is
 * identical for every request. The pool encodes each such plaintext
 * exactly once at build time and is then shared read-only by all
 * concurrent PlanExecutors.
 *
 * pcAdd (bias) plaintexts encode at the *current ciphertext scale*,
 * which depends on run state, so they are intentionally not pooled.
 */
#ifndef FXHENN_HECNN_PLAINTEXT_POOL_HPP
#define FXHENN_HECNN_PLAINTEXT_POOL_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "src/ckks/context.hpp"
#include "src/ckks/plaintext.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** Immutable pt_id -> encoded Plaintext table for one plan. */
class PlaintextPool
{
  public:
    PlaintextPool() = default;

    /**
     * Encode every scheme-scale plaintext any pcMult instruction of
     * @p plan references. Encoding is data-parallel over the distinct
     * pt_ids (the encoder is re-entrant).
     */
    PlaintextPool(const HeNetworkPlan &plan,
                  const ckks::CkksContext &context);

    /** The pooled encoding of @p pt_id (must be a pooled id). */
    const ckks::Plaintext &at(std::int32_t pt_id) const;

    /** @return true when @p pt_id was pooled at build time. */
    bool contains(std::int32_t pt_id) const;

    /** Number of pooled plaintexts. */
    std::size_t size() const { return count_; }

    /** Approximate resident bytes of the pooled polynomials. */
    std::size_t bytes() const { return bytes_; }

  private:
    std::vector<std::optional<ckks::Plaintext>> pool_;
    std::size_t count_ = 0;
    std::size_t bytes_ = 0;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_PLAINTEXT_POOL_HPP
