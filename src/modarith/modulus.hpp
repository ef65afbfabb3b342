/**
 * @file
 * Word-size modular arithmetic for RNS-CKKS.
 *
 * A Modulus wraps one RNS prime q_i (up to 60 bits) together with the
 * Barrett constant needed for fast reduction of 128-bit products. This is
 * the software analogue of the FPGA "Barrett Reduction" basic operation
 * module in the paper's Table I.
 */
#ifndef FXHENN_MODARITH_MODULUS_HPP
#define FXHENN_MODARITH_MODULUS_HPP

#include <cstdint>

namespace fxhenn {

/** One RNS prime with precomputed Barrett reduction constants. */
class Modulus
{
  public:
    Modulus() = default;

    /** Construct for prime (or at least odd) modulus @p value < 2^60. */
    explicit Modulus(std::uint64_t value);

    /** @return the modulus value q. */
    std::uint64_t value() const { return value_; }

    /** @return the bit width of q. */
    unsigned bits() const { return bits_; }

    /** Barrett reduction of @p x < 2^(2*bits()) into [0, q). */
    std::uint64_t
    reduce(unsigned __int128 x) const
    {
        // Barrett with k = 2^128 / q precomputed as a 128-bit constant
        // split into two 64-bit halves is overkill for our operand sizes:
        // all products we reduce are < q^2 <= 2^120. We use the classic
        // floor(x / 2^s * mu / 2^t) approximation with one correction.
        const std::uint64_t xlo = static_cast<std::uint64_t>(x);

        // q1 = floor(x / 2^(bits-1)), fits in ~bits+2 bits beyond 64 only
        // when x is close to q^2; keep full 128-bit shift.
        const unsigned __int128 q1 = x >> (bits_ - 1);
        const unsigned __int128 q2 =
            q1 * static_cast<unsigned __int128>(mu_);
        const std::uint64_t q3 =
            static_cast<std::uint64_t>(q2 >> (bits_ + 1));

        std::uint64_t r =
            xlo - q3 * value_; // low 64 bits suffice: r < 2q < 2^61
        if (r >= value_)
            r -= value_;
        if (r >= value_)
            r -= value_;
        return r;
    }

    /**
     * Barrett reduction of an arbitrary 128-bit value into [0, q).
     *
     * Unlike reduce(), which requires x < 2^(2*bits()), this uses the
     * full-range constant mu128 = floor(2^128 / q) and the exact high
     * half of the 128x128 product, so it is valid for every x — the
     * reduction step behind the lazy-accumulation keyswitch path, where
     * up to maxLazyDepth() unreduced q^2-sized products pile up.
     */
    std::uint64_t
    reduceWide(unsigned __int128 x) const
    {
        const std::uint64_t xh = static_cast<std::uint64_t>(x >> 64);
        const std::uint64_t xl = static_cast<std::uint64_t>(x);

        // t = floor(x * mu128 / 2^128) via the exact upper half of the
        // 256-bit product (schoolbook over 64-bit halves with carry).
        const unsigned __int128 ll =
            static_cast<unsigned __int128>(xl) * mu128Lo_;
        const unsigned __int128 lh =
            static_cast<unsigned __int128>(xl) * mu128Hi_;
        const unsigned __int128 hl =
            static_cast<unsigned __int128>(xh) * mu128Lo_;
        const unsigned __int128 hh =
            static_cast<unsigned __int128>(xh) * mu128Hi_;
        const unsigned __int128 mid =
            (ll >> 64) + static_cast<std::uint64_t>(lh) +
            static_cast<std::uint64_t>(hl);
        const unsigned __int128 t =
            hh + (lh >> 64) + (hl >> 64) + (mid >> 64);

        // t >= floor(x/q) - 1, so r = x - t*q < 2q < 2^61: the low
        // 64 bits of both operands suffice (wrapping arithmetic).
        std::uint64_t r = xl - static_cast<std::uint64_t>(t) * value_;
        if (r >= value_)
            r -= value_;
        return r;
    }

    /**
     * Shoup modular multiplication (a * b) mod q with the precomputed
     * constant @p bShoup = shoupConstant(b). Requires a < q and
     * b < q < 2^63. One high-half product and one wrapping multiply
     * instead of a full Barrett reduction — the same per-twiddle trick
     * the NTT butterflies use, exposed for callers outside ntt.hpp.
     */
    std::uint64_t
    mulShoup(std::uint64_t a, std::uint64_t b,
             std::uint64_t bShoup) const
    {
        const std::uint64_t hi = static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(a) * bShoup) >> 64);
        std::uint64_t r = a * b - hi * value_; // wrapping arithmetic
        if (r >= value_)
            r -= value_;
        return r;
    }

    /** Precompute floor(b * 2^64 / q) for mulShoup(); requires b < q. */
    std::uint64_t
    shoupConstant(std::uint64_t b) const
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(b) << 64) / value_);
    }

    /**
     * How many unreduced products a * b (a, b < q) a 128-bit
     * accumulator can absorb before reduceWide() would overflow:
     * 2^(128 - 2*bits()), capped at 2^63. Even 60-bit primes allow 256
     * terms — far above any keyswitch digit count.
     */
    std::uint64_t
    maxLazyDepth() const
    {
        const unsigned headroom = 128 - 2 * bits_;
        return headroom >= 63 ? (1ull << 63) : (1ull << headroom);
    }

    /** @return (a + b) mod q for a, b in [0, q). */
    std::uint64_t
    add(std::uint64_t a, std::uint64_t b) const
    {
        std::uint64_t s = a + b;
        if (s >= value_)
            s -= value_;
        return s;
    }

    /** @return (a - b) mod q for a, b in [0, q). */
    std::uint64_t
    sub(std::uint64_t a, std::uint64_t b) const
    {
        return a >= b ? a - b : a + value_ - b;
    }

    /** @return (a * b) mod q for a, b in [0, q). */
    std::uint64_t
    mul(std::uint64_t a, std::uint64_t b) const
    {
        return reduce(static_cast<unsigned __int128>(a) * b);
    }

    /** @return (-a) mod q for a in [0, q). */
    std::uint64_t
    negate(std::uint64_t a) const
    {
        return a == 0 ? 0 : value_ - a;
    }

    /** @return a^e mod q by square-and-multiply. */
    std::uint64_t pow(std::uint64_t a, std::uint64_t e) const;

    /**
     * @return the multiplicative inverse of @p a, which must be coprime
     * with q. For prime q this is a^(q-2).
     */
    std::uint64_t inverse(std::uint64_t a) const;

    /**
     * Reduce an arbitrary signed value into [0, q), exactly: reduce
     * the magnitude (reduceWide() only when it reaches q), then negate
     * for negative inputs. No 128-bit division.
     */
    std::uint64_t
    reduceSigned(__int128 x) const
    {
        // -x in unsigned arithmetic is exact even for x = -2^127.
        const unsigned __int128 mag =
            x < 0 ? -static_cast<unsigned __int128>(x)
                  : static_cast<unsigned __int128>(x);
        const std::uint64_t r = mag >= value_
                                    ? reduceWide(mag)
                                    : static_cast<std::uint64_t>(mag);
        return x < 0 ? negate(r) : r;
    }

    /** Map a residue to its centered representative in (-q/2, q/2]. */
    std::int64_t
    toCentered(std::uint64_t a) const
    {
        return a > value_ / 2
                   ? static_cast<std::int64_t>(a) -
                         static_cast<std::int64_t>(value_)
                   : static_cast<std::int64_t>(a);
    }

    bool operator==(const Modulus &other) const
    {
        return value_ == other.value_;
    }

    // --- raw Barrett constants for the SIMD kernel translation units
    // (src/modarith/simd_kernels_*.cpp), which re-derive reduce(),
    // reduceWide() and mulShoup() lane-wise from the same constants so
    // the vector paths stay bitwise identical to the methods above.

    /** floor(2^(2*bits) / q), the reduce() Barrett constant. */
    std::uint64_t barrettMu() const { return mu_; }
    /** Upper 64 bits of floor(2^128 / q) (reduceWide() constant). */
    std::uint64_t wideMuHi() const { return mu128Hi_; }
    /** Lower 64 bits of floor(2^128 / q) (reduceWide() constant). */
    std::uint64_t wideMuLo() const { return mu128Lo_; }

  private:
    std::uint64_t value_ = 0;
    std::uint64_t mu_ = 0; ///< floor(2^(2*bits) / q) Barrett constant
    std::uint64_t mu128Hi_ = 0; ///< floor(2^128 / q), upper 64 bits
    std::uint64_t mu128Lo_ = 0; ///< floor(2^128 / q), lower 64 bits
    unsigned bits_ = 0;
};

} // namespace fxhenn

#endif // FXHENN_MODARITH_MODULUS_HPP
