/**
 * @file
 * Property tests for the lazy-reduction keyswitch arithmetic: at every
 * prime a real parameter chain can produce (30..60-bit NTT primes plus
 * the wider special prime), a lazy 128-bit accumulation followed by a
 * single Modulus::reduceWide() must be bitwise identical to the eager
 * add(mul()) chain — including at the worst-case accumulation depth
 * the overflow budget permits for the widest primes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/modarith/modulus.hpp"
#include "src/modarith/primes.hpp"
#include "src/rns/lazy_accumulator.hpp"

namespace fxhenn {
namespace {

/** Every prime width the parameter presets use, plus the extremes. */
std::vector<Modulus>
chainPrimes()
{
    std::vector<Modulus> primes;
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u}) {
        for (std::uint64_t q : generateNttPrimes(bits, 4096, 2))
            primes.emplace_back(q);
    }
    return primes;
}

TEST(LazyReductionProperty, LazyEqualsEagerAtEveryChainPrime)
{
    Rng rng(20260805);
    const std::size_t n = 16;
    for (const Modulus &q : chainPrimes()) {
        std::vector<std::uint64_t> a(n), b0(n), b1(n), eager0(n, 0),
            eager1(n, 0);
        rns::LazyLimbAccumulator acc(q, n);
        // Depth 32 covers every level count the presets reach.
        for (int depth = 0; depth < 32; ++depth) {
            for (std::size_t k = 0; k < n; ++k) {
                a[k] = rng.uniform(q.value());
                b0[k] = rng.uniform(q.value());
                b1[k] = rng.uniform(q.value());
                eager0[k] = q.add(eager0[k], q.mul(a[k], b0[k]));
                eager1[k] = q.add(eager1[k], q.mul(a[k], b1[k]));
            }
            acc.fma(a, b0, b1);
        }
        std::vector<std::uint64_t> lazy0(n), lazy1(n);
        acc.reduceInto(lazy0, lazy1);
        ASSERT_EQ(lazy0, eager0) << "prime " << q.value();
        ASSERT_EQ(lazy1, eager1) << "prime " << q.value();
    }
}

TEST(LazyReductionProperty, WorstCaseDepthAtMaximalOperands)
{
    // Saturate the overflow budget: accumulate (q-1)^2 terms up to the
    // advertised maxLazyDepth() (capped for narrow primes where the
    // budget exceeds any feasible loop). For 60-bit primes the budget
    // is 2^8 = 256, so this runs AT the worst-case depth; the single
    // deferred reduction must still match the eager chain exactly.
    for (const Modulus &q : chainPrimes()) {
        const std::uint64_t depth =
            std::min<std::uint64_t>(q.maxLazyDepth(), 4096);
        const std::size_t n = 4;
        std::vector<std::uint64_t> worst(n, q.value() - 1);
        std::vector<std::uint64_t> eager(n, 0);
        rns::LazyLimbAccumulator acc(q, n);
        for (std::uint64_t d = 0; d < depth; ++d) {
            acc.fma(worst, worst, worst);
            for (std::size_t k = 0; k < n; ++k)
                eager[k] =
                    q.add(eager[k], q.mul(worst[k], worst[k]));
        }
        EXPECT_EQ(acc.depth(), depth);
        std::vector<std::uint64_t> lazy0(n), lazy1(n);
        acc.reduceInto(lazy0, lazy1);
        ASSERT_EQ(lazy0, eager)
            << "prime " << q.value() << " depth " << depth;
        ASSERT_EQ(lazy1, eager)
            << "prime " << q.value() << " depth " << depth;
    }
}

TEST(LazyReductionProperty, ReduceWideMatchesNativeModAtChainPrimes)
{
    Rng rng(99);
    for (const Modulus &q : chainPrimes()) {
        for (int i = 0; i < 500; ++i) {
            const unsigned __int128 x =
                (static_cast<unsigned __int128>(rng.next()) << 64) |
                rng.next();
            const std::uint64_t expect = static_cast<std::uint64_t>(
                x % static_cast<unsigned __int128>(q.value()));
            ASSERT_EQ(q.reduceWide(x), expect)
                << "prime " << q.value() << " iter " << i;
        }
    }
}

TEST(LazyReductionProperty, MulShoupMatchesPlainMulAtChainPrimes)
{
    Rng rng(7);
    for (const Modulus &q : chainPrimes()) {
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t a = rng.uniform(q.value());
            const std::uint64_t b = rng.uniform(q.value());
            const std::uint64_t bShoup = q.shoupConstant(b);
            ASSERT_EQ(q.mulShoup(a, b, bShoup), q.mul(a, b))
                << "prime " << q.value();
        }
    }
}

} // namespace
} // namespace fxhenn
