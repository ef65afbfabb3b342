#include "src/modarith/modulus.hpp"

#include "src/common/assert.hpp"
#include "src/common/math_util.hpp"

namespace fxhenn {

Modulus::Modulus(std::uint64_t value)
    : value_(value)
{
    FXHENN_FATAL_IF(value < 2, "modulus must be >= 2");
    FXHENN_FATAL_IF(value >> 60, "modulus must be < 2^60");
    bits_ = floorLog2(value) + 1;
    // mu = floor(2^(2*bits) / q); 2*bits <= 120 fits in 128-bit division.
    const unsigned __int128 numerator =
        static_cast<unsigned __int128>(1) << (2 * bits_);
    mu_ = static_cast<std::uint64_t>(numerator / value_);
    // mu128 = floor(2^128 / q) for reduceWide(). 2^128 itself does not
    // fit in 128 bits, but q never divides 2^128 (q is odd and > 1 in
    // every NTT-compatible chain), so floor((2^128 - 1) / q) equals it.
    FXHENN_FATAL_IF(value % 2 == 0, "modulus must be odd");
    const unsigned __int128 mu128 =
        ~static_cast<unsigned __int128>(0) / value_;
    mu128Hi_ = static_cast<std::uint64_t>(mu128 >> 64);
    mu128Lo_ = static_cast<std::uint64_t>(mu128);
}

std::uint64_t
Modulus::pow(std::uint64_t a, std::uint64_t e) const
{
    std::uint64_t base = a >= value_ ? a % value_ : a;
    std::uint64_t result = 1;
    while (e) {
        if (e & 1)
            result = mul(result, base);
        base = mul(base, base);
        e >>= 1;
    }
    return result;
}

std::uint64_t
Modulus::inverse(std::uint64_t a) const
{
    FXHENN_ASSERT(a % value_ != 0, "inverse of zero requested");
    // value_ is prime throughout the library, so Fermat applies.
    return pow(a, value_ - 2);
}

} // namespace fxhenn
