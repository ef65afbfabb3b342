/**
 * @file
 * Property tests for the SIMD modarith dispatch levels: boundary
 * coefficients (0, 1, q-1), the worst-case lazy accumulation depth
 * Modulus::maxLazyDepth() permits, and ragged tails (lengths that are
 * not a multiple of any vector width) must all be bitwise identical
 * to the scalar reference at every preset NTT prime x every dispatch
 * level reachable on this host. These are the edges the randomized
 * differential matrix (tests/modarith/test_simd_differential.cpp) is
 * least likely to sample.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/common/rng.hpp"
#include "src/modarith/ntt.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"

namespace fxhenn {
namespace {

/** Every prime width the parameter presets use, plus the extremes
 * and the primes that bracket the avx512 IFMA delegation threshold
 * (q >= 2^50): the largest below 2^50 and 2^52, and the smallest NTT
 * prime at or above 2^50. */
std::vector<Modulus>
chainPrimes()
{
    std::vector<Modulus> primes;
    for (unsigned bits : {30u, 36u, 42u, 50u, 52u, 55u, 60u}) {
        for (std::uint64_t q : generateNttPrimes(bits, 4096, 2))
            primes.emplace_back(q);
    }
    std::uint64_t wide = (std::uint64_t{1} << 50) + 1;
    while (!isPrime(wide))
        wide += 2 * 4096;
    primes.emplace_back(wide);
    return primes;
}

std::vector<simd::Level>
reachableLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512})
        if (simd::available(level))
            levels.push_back(level);
    return levels;
}

/** A vector mixing the boundary residues 0, 1 and q-1 with random
 * coefficients so every vector lane sees an edge value somewhere. */
std::vector<std::uint64_t>
boundaryResidues(Rng &rng, std::size_t n, std::uint64_t q)
{
    std::vector<std::uint64_t> v(n);
    for (std::size_t k = 0; k < n; ++k) {
        switch (k % 4) {
        case 0:
            v[k] = 0;
            break;
        case 1:
            v[k] = 1;
            break;
        case 2:
            v[k] = q - 1;
            break;
        default:
            v[k] = rng.uniform(q);
            break;
        }
    }
    return v;
}

TEST(SimdProperty, BoundaryCoefficientsAtEveryPrimeAndWidth)
{
    Rng rng(20260808);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    // One span per interesting tail class: aligned to the widest
    // vector, one short of it, one past it, sub-width, and single.
    for (const std::size_t n : {64ull, 63ull, 65ull, 7ull, 1ull}) {
        for (const Modulus &q : chainPrimes()) {
            const auto a = boundaryResidues(rng, n, q.value());
            auto b = boundaryResidues(rng, n, q.value());
            // Reverse so (0, q-1) and (q-1, 0) pairs both occur.
            std::reverse(b.begin(), b.end());
            for (simd::Level level : reachableLevels()) {
                const auto &kern = simd::kernelsFor(level);
                std::vector<std::uint64_t> want(n), got(n);
                ref.addArray(want.data(), a.data(), b.data(), n, q);
                kern.addArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "addArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                ref.subArray(want.data(), a.data(), b.data(), n, q);
                kern.subArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "subArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                ref.mulArray(want.data(), a.data(), b.data(), n, q);
                kern.mulArray(got.data(), a.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "mulArray n=" << n << " q=" << q.value() << " @"
                    << simd::levelName(level);
                want = a;
                got = a;
                ref.fmaModArray(want.data(), b.data(), b.data(), n, q);
                kern.fmaModArray(got.data(), b.data(), b.data(), n, q);
                ASSERT_EQ(want, got)
                    << "fmaModArray n=" << n << " q=" << q.value()
                    << " @" << simd::levelName(level);
                const std::uint64_t w = q.value() - 1;
                ref.subScaleArray(want.data(), a.data(), b.data(), n, q,
                                  w, q.shoupConstant(w));
                kern.subScaleArray(got.data(), a.data(), b.data(), n, q,
                                   w, q.shoupConstant(w));
                ASSERT_EQ(want, got)
                    << "subScaleArray n=" << n << " q=" << q.value()
                    << " @" << simd::levelName(level);
            }
        }
    }
}

TEST(SimdProperty, ReduceBoundariesIncludeBarrettEdgeInputs)
{
    // reduce()'s contract is src < 2^(2*bits); feed the extremes of
    // that range (0, 1, q-1, q, q+1, 2^(2*bits)-1) at every prime and
    // level, padded to a ragged length.
    Rng rng(31337);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    for (const Modulus &q : chainPrimes()) {
        const unsigned twob = 2 * q.bits();
        const std::uint64_t top =
            twob >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << twob) - 1;
        std::vector<std::uint64_t> src = {
            0, 1, q.value() - 1, q.value(), q.value() + 1, top};
        while (src.size() < 21)
            src.push_back(rng.next() % (top == ~std::uint64_t{0}
                                            ? top
                                            : top + 1));
        const std::size_t n = src.size();
        std::vector<std::uint64_t> want(n);
        ref.reduceArray(want.data(), src.data(), n, q);
        for (simd::Level level : reachableLevels()) {
            std::vector<std::uint64_t> got(n);
            simd::kernelsFor(level).reduceArray(got.data(), src.data(),
                                                n, q);
            ASSERT_EQ(want, got) << "reduceArray q=" << q.value()
                                 << " @" << simd::levelName(level);
        }
    }
}

bool
sameBytes(const std::vector<unsigned __int128> &x,
          const std::vector<unsigned __int128> &y)
{
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(),
                       x.size() * sizeof(unsigned __int128)) == 0;
}

TEST(SimdProperty, WorstCaseLazyDepthAtEveryPrimeAndWidth)
{
    // Saturate the 128-bit overflow budget with (q-1)^2 terms at the
    // advertised maxLazyDepth() (capped for narrow primes), then
    // compare both the raw 128-bit accumulator bytes and the deferred
    // reduction against scalar, over a ragged length.
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const std::size_t n = 13;
    for (const Modulus &q : chainPrimes()) {
        const std::uint64_t depth =
            std::min<std::uint64_t>(q.maxLazyDepth(), 1024);
        const std::vector<std::uint64_t> worst(n, q.value() - 1);
        for (simd::Level level : reachableLevels()) {
            const auto &kern = simd::kernelsFor(level);
            std::vector<unsigned __int128> want0(n, 0), want1(n, 0),
                got0(n, 0), got1(n, 0);
            for (std::uint64_t d = 0; d < depth; ++d) {
                ref.fmaLazyPair(want0.data(), want1.data(), worst.data(),
                                worst.data(), worst.data(), n, q);
                kern.fmaLazyPair(got0.data(), got1.data(), worst.data(),
                                 worst.data(), worst.data(), n, q);
            }
            ASSERT_TRUE(sameBytes(want0, got0) && sameBytes(want1, got1))
                << "accumulator bytes q=" << q.value() << " depth "
                << depth << " @" << simd::levelName(level);
            std::vector<std::uint64_t> wantR(n), gotR(n);
            ref.reduceWideArray(wantR.data(), want0.data(), n, q);
            kern.reduceWideArray(gotR.data(), got0.data(), n, q);
            ASSERT_EQ(wantR, gotR)
                << "reduceWide q=" << q.value() << " depth " << depth
                << " @" << simd::levelName(level);
        }
    }
}

TEST(SimdProperty, WorstCaseLazyDepthAtMaxLazyDepth)
{
    // The full budget, not a capped loop: each row starts at
    // (maxLazyDepth - 64) * (q-1)^2 and takes 64 more (q-1)^2 terms
    // through the kernels, ending at exactly maxLazyDepth terms — the
    // largest sum the overflow budget admits (2^28 terms for a 50-bit
    // prime, 2^26 past the IFMA threshold). Since (q-1)^2 = 1 mod q,
    // the reduction must also equal maxLazyDepth mod q.
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const std::size_t n = 21;
    const std::uint64_t tail = 64;
    for (const Modulus &q : chainPrimes()) {
        const std::uint64_t depth = q.maxLazyDepth();
        const unsigned __int128 term =
            static_cast<unsigned __int128>(q.value() - 1) *
            (q.value() - 1);
        const std::vector<std::uint64_t> worst(n, q.value() - 1);
        const std::vector<unsigned __int128> start(n, term * (depth - tail));
        std::vector<std::uint64_t> expect(n, depth % q.value());
        for (simd::Level level : reachableLevels()) {
            const auto &kern = simd::kernelsFor(level);
            auto want0 = start, want1 = start, got0 = start, got1 = start;
            for (std::uint64_t d = 0; d < tail; ++d) {
                ref.fmaLazyPair(want0.data(), want1.data(), worst.data(),
                                worst.data(), worst.data(), n, q);
                kern.fmaLazyPair(got0.data(), got1.data(), worst.data(),
                                 worst.data(), worst.data(), n, q);
            }
            ASSERT_EQ(want0[0], term * depth) << "q=" << q.value();
            ASSERT_TRUE(sameBytes(want0, got0) && sameBytes(want1, got1))
                << "accumulator bytes q=" << q.value() << " depth "
                << depth << " @" << simd::levelName(level);
            std::vector<std::uint64_t> gotR(n);
            kern.reduceWideArray(gotR.data(), got1.data(), n, q);
            ASSERT_EQ(expect, gotR)
                << "reduceWide q=" << q.value() << " depth " << depth
                << " @" << simd::levelName(level);
        }
    }
}

TEST(SimdProperty, GatherFmaRaggedTailsAndBoundaries)
{
    Rng rng(4242);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    for (const std::size_t n : {8ull, 9ull, 17ull, 33ull}) {
        for (const Modulus &q : chainPrimes()) {
            std::vector<std::uint32_t> perm(n);
            std::iota(perm.begin(), perm.end(), 0u);
            // Rotate rather than shuffle: the Galois maps the real
            // keyswitch feeds are permutations with long cycles.
            std::rotate(perm.begin(), perm.begin() + (n / 2),
                        perm.end());
            const auto a = boundaryResidues(rng, n, q.value());
            const auto b0 = boundaryResidues(rng, n, q.value());
            auto b1 = boundaryResidues(rng, n, q.value());
            std::reverse(b1.begin(), b1.end());
            for (simd::Level level : reachableLevels()) {
                std::vector<unsigned __int128> want0(n, 7), want1(n, 9),
                    got0(n, 7), got1(n, 9);
                ref.fmaLazyGatherPair(want0.data(), want1.data(), a.data(),
                                      perm.data(), b0.data(), b1.data(), n,
                                      q);
                simd::kernelsFor(level).fmaLazyGatherPair(
                    got0.data(), got1.data(), a.data(), perm.data(),
                    b0.data(), b1.data(), n, q);
                ASSERT_TRUE(sameBytes(want0, got0) &&
                            sameBytes(want1, got1))
                    << "fmaLazyGatherPair n=" << n << " q=" << q.value()
                    << " @" << simd::levelName(level);
            }
        }
    }
}

TEST(SimdProperty, NttBoundaryVectorsAtEveryPrimeAndWidth)
{
    // Impulse, constant-max and boundary-mixed inputs through
    // forward+inverse at each level: outputs must equal scalar
    // bitwise, and the roundtrip must restore the input.
    Rng rng(606);
    const std::uint64_t n = 64;
    for (unsigned bits : {30u, 36u, 42u, 50u, 55u, 60u}) {
        const Modulus q(generateNttPrimes(bits, n, 1)[0]);
        const NttTables ntt(n, q);
        std::vector<std::vector<std::uint64_t>> inputs;
        inputs.emplace_back(n, 0);
        inputs.back()[0] = 1; // impulse
        inputs.emplace_back(n, q.value() - 1);
        inputs.push_back(boundaryResidues(rng, n, q.value()));
        for (const auto &input : inputs) {
            auto fwdRef = input;
            {
                simd::ScopedLevel pin(simd::Level::scalar);
                ntt.forward(std::span<std::uint64_t>(fwdRef));
            }
            for (simd::Level level : reachableLevels()) {
                simd::ScopedLevel pin(level);
                auto buf = input;
                ntt.forward(std::span<std::uint64_t>(buf));
                ASSERT_EQ(fwdRef, buf)
                    << "forward bits=" << bits << " @"
                    << simd::levelName(level);
                ntt.inverse(std::span<std::uint64_t>(buf));
                ASSERT_EQ(input, buf)
                    << "roundtrip bits=" << bits << " @"
                    << simd::levelName(level);
            }
        }
    }
}

} // namespace
} // namespace fxhenn
