#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/rng.hpp"
#include "src/modarith/modulus.hpp"
#include "src/modarith/primes.hpp"

namespace fxhenn {
namespace {

TEST(Modulus, RejectsInvalidValues)
{
    EXPECT_THROW(Modulus(0), ConfigError);
    EXPECT_THROW(Modulus(1), ConfigError);
    EXPECT_THROW(Modulus(1ull << 60), ConfigError);
}

TEST(Modulus, BasicOps)
{
    const Modulus q(17);
    EXPECT_EQ(q.add(9, 9), 1u);
    EXPECT_EQ(q.sub(3, 9), 11u);
    EXPECT_EQ(q.mul(5, 7), 35u % 17);
    EXPECT_EQ(q.negate(0), 0u);
    EXPECT_EQ(q.negate(5), 12u);
    EXPECT_EQ(q.bits(), 5u);
}

TEST(Modulus, BarrettMatchesNaiveOnRandomInputs)
{
    Rng rng(123);
    for (std::uint64_t prime :
         {1073741789ull /* 30-bit */, 68719476389ull /* 36-bit */,
          1125899906842597ull /* 50-bit */}) {
        ASSERT_TRUE(isPrime(prime));
        const Modulus q(prime);
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t a = rng.uniform(prime);
            const std::uint64_t b = rng.uniform(prime);
            const unsigned __int128 wide =
                static_cast<unsigned __int128>(a) * b;
            EXPECT_EQ(q.mul(a, b),
                      static_cast<std::uint64_t>(wide % prime));
        }
    }
}

TEST(Modulus, ReduceWideMatchesNaiveOnFullRange)
{
    Rng rng(321);
    for (std::uint64_t prime :
         {17ull, 1073741789ull /* 30-bit */, 68719476389ull /* 36-bit */,
          1125899906842597ull /* 50-bit */,
          1152921504606830593ull /* 60-bit */}) {
        ASSERT_TRUE(isPrime(prime));
        const Modulus q(prime);
        // Boundary values first: reduceWide must be exact on all of
        // [0, 2^128), not just below q^2 like reduce().
        const unsigned __int128 all_ones =
            ~static_cast<unsigned __int128>(0);
        EXPECT_EQ(q.reduceWide(0), 0u);
        EXPECT_EQ(q.reduceWide(prime), 0u);
        EXPECT_EQ(q.reduceWide(all_ones),
                  static_cast<std::uint64_t>(all_ones % prime));
        for (int i = 0; i < 2000; ++i) {
            const unsigned __int128 x =
                (static_cast<unsigned __int128>(rng.next()) << 64) |
                rng.next();
            EXPECT_EQ(q.reduceWide(x),
                      static_cast<std::uint64_t>(x % prime));
        }
    }
}

TEST(Modulus, MulShoupMatchesMul)
{
    Rng rng(555);
    for (std::uint64_t prime :
         {1073741789ull, 68719476389ull, 1125899906842597ull}) {
        const Modulus q(prime);
        for (int i = 0; i < 500; ++i) {
            const std::uint64_t a = rng.uniform(prime);
            const std::uint64_t b = rng.uniform(prime);
            const std::uint64_t bShoup = q.shoupConstant(b);
            EXPECT_EQ(q.mulShoup(a, b, bShoup), q.mul(a, b));
        }
        // Edge operands.
        EXPECT_EQ(q.mulShoup(0, prime - 1, q.shoupConstant(prime - 1)),
                  0u);
        EXPECT_EQ(q.mulShoup(prime - 1, prime - 1,
                             q.shoupConstant(prime - 1)),
                  q.mul(prime - 1, prime - 1));
    }
}

TEST(Modulus, MaxLazyDepthBoundsAccumulation)
{
    // depth * (q-1)^2 must stay below 2^128 for depth = maxLazyDepth().
    for (std::uint64_t prime :
         {17ull, 1073741789ull, 1152921504606830593ull /* 60-bit */}) {
        const Modulus q(prime);
        const std::uint64_t depth = q.maxLazyDepth();
        EXPECT_GE(depth, 256u); // worst case: 60-bit primes
        if (2 * q.bits() + 64 <= 128)
            continue; // depth capped at 2^63, product trivially fits
        const long double bound =
            std::pow(2.0L, 128.0L) -
            static_cast<long double>(depth) *
                static_cast<long double>(prime - 1) *
                static_cast<long double>(prime - 1);
        EXPECT_GT(bound, 0.0L) << "prime " << prime;
    }
}

TEST(Modulus, PowMatchesRepeatedMultiplication)
{
    const Modulus q(1073741789ull);
    std::uint64_t expect = 1;
    for (unsigned e = 0; e < 40; ++e) {
        EXPECT_EQ(q.pow(3, e), expect);
        expect = q.mul(expect, 3);
    }
}

TEST(Modulus, InverseIsTwoSided)
{
    Rng rng(77);
    const Modulus q(1073741789ull);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t a = 1 + rng.uniform(q.value() - 1);
        const std::uint64_t inv = q.inverse(a);
        EXPECT_EQ(q.mul(a, inv), 1u);
        EXPECT_EQ(q.mul(inv, a), 1u);
    }
}

TEST(Modulus, ReduceSignedHandlesNegatives)
{
    const Modulus q(97);
    EXPECT_EQ(q.reduceSigned(-1), 96u);
    EXPECT_EQ(q.reduceSigned(-97), 0u);
    EXPECT_EQ(q.reduceSigned(-98), 96u);
    EXPECT_EQ(q.reduceSigned(194), 0u);
    const __int128 big = static_cast<__int128>(1) << 100;
    EXPECT_EQ(q.reduceSigned(big),
              static_cast<std::uint64_t>(big % 97));
}

TEST(Modulus, ReduceSignedMatchesInt128RemainderAtEveryPresetWidth)
{
    // The division-free reduction against the 128-bit `%` it replaced,
    // at the boundaries where magnitude, wide reduction and negation
    // meet, for one prime of every width the stack configures.
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u}) {
        const Modulus q(generateNttPrimes(bits, 4096, 1)[0]);
        const __int128 qv = static_cast<__int128>(q.value());
        const __int128 one = 1;
        const __int128 max128 = static_cast<__int128>(
            ~static_cast<unsigned __int128>(0) >> 1);
        std::vector<__int128> xs{0, max128, -max128, -max128 - 1};
        for (__int128 m : {one, qv - 1, qv, qv + 1, 2 * qv - 1, one << 63,
                           (one << 63) - 1, one << 100, qv * qv})
            for (__int128 sign : {one, -one})
                xs.push_back(sign * m);
        for (__int128 x : xs) {
            __int128 ref = x % qv;
            if (ref < 0)
                ref += qv;
            EXPECT_EQ(q.reduceSigned(x), static_cast<std::uint64_t>(ref))
                << "bits " << bits << ", x = " << static_cast<double>(x);
        }
    }
}

TEST(Modulus, ToCenteredRoundTrips)
{
    const Modulus q(101);
    for (std::uint64_t a = 0; a < 101; ++a) {
        const std::int64_t c = q.toCentered(a);
        EXPECT_GE(c, -50);
        EXPECT_LE(c, 50);
        EXPECT_EQ(q.reduceSigned(c), a);
    }
}

} // namespace
} // namespace fxhenn
