/**
 * @file
 * 128-bit lazy (deferred-reduction) accumulator for keyswitch inner
 * products.
 *
 * The hybrid keyswitch digit inner product sums L products of residues
 * below q^2 per coefficient. The eager path Barrett-reduces every
 * product; this accumulator instead piles the unreduced 128-bit
 * products up and reduces ONCE per coefficient with
 * Modulus::reduceWide() — the software analogue of the wide
 * carry-save accumulators HE accelerators place behind their modular
 * multiplier arrays. Overflow budget: depth * (q-1)^2 < 2^128, i.e.
 * depth <= Modulus::maxLazyDepth() (>= 256 even for 60-bit primes,
 * far above any ciphertext level).
 *
 * Because (sum of products) mod q is reduced exactly, the result is
 * bitwise identical to the eager chain add(mul(a, b)) — both land on
 * the canonical representative in [0, q). The accumulator knows its
 * limb modulus, so the kernels can pick the 52-bit IFMA datapath when
 * q is narrow enough.
 */
#ifndef FXHENN_RNS_LAZY_ACCUMULATOR_HPP
#define FXHENN_RNS_LAZY_ACCUMULATOR_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/modarith/modulus.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/rns/workspace_pool.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::rns {

/**
 * The two rows of n unreduced 128-bit sums of one keyswitch target
 * limb (one row per key part), leased from the WorkspacePool. Both
 * rows take every digit limb together, so each limb coefficient is
 * loaded (or gathered) once for both key parts.
 */
class LazyLimbAccumulator
{
  public:
    /** Lease two zeroed n-slot rows for residues modulo @p q. */
    LazyLimbAccumulator(const Modulus &q, std::size_t n)
        : q_(q), acc0_(WorkspacePool::leaseU128(n)),
          acc1_(WorkspacePool::leaseU128(n))
    {
        std::fill(acc0_.begin(), acc0_.end(), 0);
        std::fill(acc1_.begin(), acc1_.end(), 0);
    }

    LazyLimbAccumulator(const LazyLimbAccumulator &) = delete;
    LazyLimbAccumulator &operator=(const LazyLimbAccumulator &) = delete;

    ~LazyLimbAccumulator()
    {
        WorkspacePool::release(std::move(acc0_));
        WorkspacePool::release(std::move(acc1_));
    }

    std::size_t size() const { return acc0_.size(); }
    std::uint64_t depth() const { return depth_; }

    /** acc0[k] += a[k] * b0[k] and acc1[k] += a[k] * b1[k],
     * unreduced (one lazy FMA pass); operands are residues below q. */
    void
    fma(std::span<const std::uint64_t> a, std::span<const std::uint64_t> b0,
        std::span<const std::uint64_t> b1)
    {
        FXHENN_ASSERT(a.size() == size() && b0.size() == size() &&
                          b1.size() == size(),
                      "lazy FMA operand size mismatch");
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        simd::kernels().fmaLazyPair(acc0_.data(), acc1_.data(), a.data(),
                                    b0.data(), b1.data(), size(), q_);
        ++depth_;
    }

    /**
     * fma() with a[perm[k]] in place of a[k]. Folds an NTT-domain
     * Galois permutation of @p a into the FMA pass, so hoisted
     * rotations pay O(n) gathers instead of extra NTT round trips.
     */
    void
    fmaGather(std::span<const std::uint64_t> a,
              std::span<const std::uint32_t> perm,
              std::span<const std::uint64_t> b0,
              std::span<const std::uint64_t> b1)
    {
        FXHENN_ASSERT(a.size() == size() && b0.size() == size() &&
                          b1.size() == size() && perm.size() == size(),
                      "lazy gather-FMA operand size mismatch");
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        simd::kernels().fmaLazyGatherPair(acc0_.data(), acc1_.data(),
                                          a.data(), perm.data(), b0.data(),
                                          b1.data(), size(), q_);
        ++depth_;
    }

    /**
     * dst0[k] = acc0[k] mod q and dst1[k] = acc1[k] mod q — the single
     * deferred Barrett reduction per row. Checks the overflow budget:
     * the accumulated depth must not exceed q's maxLazyDepth().
     */
    void
    reduceInto(std::span<std::uint64_t> dst0,
               std::span<std::uint64_t> dst1) const
    {
        FXHENN_ASSERT(dst0.size() == size() && dst1.size() == size(),
                      "lazy reduce destination size mismatch");
        FXHENN_ASSERT(depth_ <= q_.maxLazyDepth(),
                      "lazy accumulation depth exceeds the 128-bit "
                      "overflow budget for this modulus");
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 2);
        const auto &kern = simd::kernels();
        kern.reduceWideArray(dst0.data(), acc0_.data(), size(), q_);
        kern.reduceWideArray(dst1.data(), acc1_.data(), size(), q_);
    }

  private:
    Modulus q_;
    std::vector<unsigned __int128> acc0_;
    std::vector<unsigned __int128> acc1_;
    std::uint64_t depth_ = 0;
};

} // namespace fxhenn::rns

#endif // FXHENN_RNS_LAZY_ACCUMULATOR_HPP
