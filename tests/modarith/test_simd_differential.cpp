/**
 * @file
 * Scalar-vs-SIMD differential matrix: every kernel in the dispatch
 * table must be bitwise identical to the scalar reference
 * (simd_kernels_scalar.cpp) at every dispatch level reachable on this
 * host — first kernel by kernel over randomized residues across the
 * preset prime widths (including the >= 2^50 moduli that exercise the
 * avx512 wide-q delegation), then end to end over a full model-zoo
 * encrypted inference. Runs under the ASan and TSan presets like any
 * other fast-labeled suite; the simd-off preset shrinks the reachable
 * set to {scalar}, where the matrix degenerates to a self-check.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "src/ckks/params.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/modarith/ntt.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn {
namespace {

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

/** The smallest NTT prime at or above 2^50: the narrowest modulus the
 * avx512 kernels hand to avx2 instead of the 52-bit IFMA datapath. */
std::uint64_t
firstWideNttPrime(std::uint64_t n)
{
    std::uint64_t candidate = (std::uint64_t{1} << 50) + 1;
    while (!isPrime(candidate))
        candidate += 2 * n;
    return candidate;
}

/** Every preset data/special prime width the stack can configure,
 * including the ones past the avx512 52-bit datapath: the largest
 * NTT primes below 2^50 and 2^52 and the smallest at or above 2^50
 * bracket the IFMA delegation threshold. */
std::vector<Modulus>
presetPrimes()
{
    std::vector<Modulus> primes;
    for (unsigned bits : {30u, 36u, 42u, 50u, 52u, 55u, 60u})
        primes.emplace_back(generateNttPrimes(bits, 4096, 1)[0]);
    primes.emplace_back(firstWideNttPrime(4096));
    return primes;
}

std::vector<std::uint64_t>
randomResidues(std::mt19937_64 &rng, std::size_t n, std::uint64_t q)
{
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng() % q;
    return v;
}

TEST(SimdDifferential, ArrayKernelsMatchScalarBitwise)
{
    std::mt19937_64 rng(2024);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    // Ragged length on purpose: tails must agree too.
    const std::size_t n = 4096 + 3;
    for (const Modulus &q : presetPrimes()) {
        const auto a = randomResidues(rng, n, q.value());
        const auto b = randomResidues(rng, n, q.value());
        const auto dst0 = randomResidues(rng, n, q.value());
        std::vector<std::uint64_t> wide(n);
        for (auto &x : wide)
            x = rng() % (q.value() < (1ull << 32)
                             ? q.value() * q.value()
                             : ~0ull);
        for (simd::Level level : reachableLevels()) {
            const auto &kern = simd::kernelsFor(level);
            std::vector<std::uint64_t> want(n), got(n);

            ref.addArray(want.data(), a.data(), b.data(), n, q);
            kern.addArray(got.data(), a.data(), b.data(), n, q);
            EXPECT_EQ(want, got) << "addArray @" << simd::levelName(level)
                                 << " q=" << q.value();

            ref.subArray(want.data(), a.data(), b.data(), n, q);
            kern.subArray(got.data(), a.data(), b.data(), n, q);
            EXPECT_EQ(want, got) << "subArray @" << simd::levelName(level)
                                 << " q=" << q.value();

            ref.mulArray(want.data(), a.data(), b.data(), n, q);
            kern.mulArray(got.data(), a.data(), b.data(), n, q);
            EXPECT_EQ(want, got) << "mulArray @" << simd::levelName(level)
                                 << " q=" << q.value();

            want = dst0;
            got = dst0;
            ref.fmaModArray(want.data(), a.data(), b.data(), n, q);
            kern.fmaModArray(got.data(), a.data(), b.data(), n, q);
            EXPECT_EQ(want, got)
                << "fmaModArray @" << simd::levelName(level)
                << " q=" << q.value();

            ref.reduceArray(want.data(), wide.data(), n, q);
            kern.reduceArray(got.data(), wide.data(), n, q);
            EXPECT_EQ(want, got)
                << "reduceArray @" << simd::levelName(level)
                << " q=" << q.value();

            // Scalars at both ends of [0, q) plus a random one, with
            // dst aliasing a as in the limb drop.
            for (std::uint64_t w : {std::uint64_t{1}, q.value() - 1,
                                    dst0[0]}) {
                const std::uint64_t ws = q.shoupConstant(w);
                want = a;
                got = a;
                ref.subScaleArray(want.data(), want.data(), b.data(), n,
                                  q, w, ws);
                kern.subScaleArray(got.data(), got.data(), b.data(), n, q,
                                   w, ws);
                EXPECT_EQ(want, got)
                    << "subScaleArray @" << simd::levelName(level)
                    << " q=" << q.value() << " w=" << w;
            }
        }
    }
}

TEST(SimdDifferential, LazyAccumulatorKernelsMatchScalarBitwise)
{
    std::mt19937_64 rng(77);
    const auto &ref = simd::kernelsFor(simd::Level::scalar);
    const std::size_t n = 1024 + 5;
    const auto sameBytes = [n](const std::vector<unsigned __int128> &x,
                               const std::vector<unsigned __int128> &y) {
        return std::memcmp(x.data(), y.data(),
                           n * sizeof(unsigned __int128)) == 0;
    };
    for (const Modulus &q : presetPrimes()) {
        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        std::shuffle(perm.begin(), perm.end(), rng);
        const auto b0 = randomResidues(rng, n, q.value());
        const auto b1 = randomResidues(rng, n, q.value());
        const auto b2 = randomResidues(rng, n, q.value());
        const auto b3 = randomResidues(rng, n, q.value());
        const auto a0 = randomResidues(rng, n, q.value());
        const auto a1 = randomResidues(rng, n, q.value());
        // Two starting rows: zero, and low words within 2^20 of
        // 2^64 - 1 under random high words, so nearly every product
        // carries into the high word.
        std::vector<unsigned __int128> zero(n, 0), nearCarry(n);
        for (auto &x : nearCarry)
            x = (static_cast<unsigned __int128>(rng() >> 1) << 64) |
                (~std::uint64_t{0} - rng() % (1u << 20));
        for (const auto *start : {&zero, &nearCarry}) {
            const char *row = start == &zero ? "zero" : "near-carry";
            for (simd::Level level : reachableLevels()) {
                const auto &kern = simd::kernelsFor(level);
                auto want0 = *start, want1 = *start;
                auto got0 = *start, got1 = *start;
                ref.fmaLazyPair(want0.data(), want1.data(), a0.data(),
                                b0.data(), b1.data(), n, q);
                kern.fmaLazyPair(got0.data(), got1.data(), a0.data(),
                                 b0.data(), b1.data(), n, q);
                EXPECT_TRUE(sameBytes(want0, got0) && sameBytes(want1, got1))
                    << "fmaLazyPair @" << simd::levelName(level)
                    << " q=" << q.value() << " row=" << row;
                ref.fmaLazyGatherPair(want0.data(), want1.data(), a1.data(),
                                      perm.data(), b2.data(), b3.data(), n,
                                      q);
                kern.fmaLazyGatherPair(got0.data(), got1.data(), a1.data(),
                                       perm.data(), b2.data(), b3.data(), n,
                                       q);
                EXPECT_TRUE(sameBytes(want0, got0) && sameBytes(want1, got1))
                    << "fmaLazyGatherPair @" << simd::levelName(level)
                    << " q=" << q.value() << " row=" << row;

                std::vector<std::uint64_t> wantR(n), gotR(n);
                for (const auto *acc : {&want0, &want1}) {
                    ref.reduceWideArray(wantR.data(), acc->data(), n, q);
                    kern.reduceWideArray(gotR.data(), acc->data(), n, q);
                    EXPECT_EQ(wantR, gotR)
                        << "reduceWideArray @" << simd::levelName(level)
                        << " q=" << q.value() << " row=" << row;
                }
            }
        }
    }
}

TEST(SimdDifferential, NttMatchesScalarBitwiseAcrossPrimesAndSizes)
{
    std::mt19937_64 rng(55);
    for (const std::uint64_t n : {16ull, 64ull, 4096ull}) {
        for (unsigned bits : {30u, 50u, 55u, 60u}) {
            const Modulus q(generateNttPrimes(bits, n, 1)[0]);
            const NttTables ntt(n, q);
            const auto input = randomResidues(rng, n, q.value());

            auto fwdRef = input;
            auto invRef = input;
            {
                simd::ScopedLevel pin(simd::Level::scalar);
                ntt.forward(std::span<std::uint64_t>(fwdRef));
                ntt.inverse(std::span<std::uint64_t>(invRef));
            }
            for (simd::Level level : reachableLevels()) {
                simd::ScopedLevel pin(level);
                auto fwd = input;
                auto inv = input;
                ntt.forward(std::span<std::uint64_t>(fwd));
                ntt.inverse(std::span<std::uint64_t>(inv));
                EXPECT_EQ(fwdRef, fwd)
                    << "forward NTT @" << simd::levelName(level)
                    << " n=" << n << " bits=" << bits;
                EXPECT_EQ(invRef, inv)
                    << "inverse NTT @" << simd::levelName(level)
                    << " n=" << n << " bits=" << bits;
            }
        }
    }
}

bool
sameRegs(const std::vector<std::optional<ckks::Ciphertext>> &a,
         const std::vector<std::optional<ckks::Ciphertext>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r) {
        if (a[r].has_value() != b[r].has_value())
            return false;
        if (!a[r])
            continue;
        if (a[r]->parts.size() != b[r]->parts.size())
            return false;
        for (std::size_t p = 0; p < a[r]->parts.size(); ++p)
            if (!(a[r]->parts[p] == b[r]->parts[p]))
                return false;
    }
    return true;
}

TEST(SimdDifferential, ZooInferenceIsBitwiseIdenticalAcrossLevels)
{
    // End-to-end matrix: a full encrypted inference of the zoo test
    // network under each reachable dispatch level must produce the
    // exact ciphertext bytes (and so the exact logits) of the scalar
    // build. This is the suite a new kernel cannot land without.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    hecnn::ClientSession session(plan, ctx, /*seed=*/17);
    hecnn::PlaintextPool pool(plan, ctx);
    const hecnn::PlanExecutor executor(plan, ctx, session.relinKey(),
                                       session.galoisKeys(), pool);
    const auto input = nn::syntheticInput(net, 12);
    const auto encrypted = session.encryptInput(input, 0);

    std::optional<hecnn::ExecutionResult> ref;
    {
        simd::ScopedLevel pin(simd::Level::scalar);
        ref.emplace(executor.execute(encrypted));
    }
    ASSERT_FALSE(ref->degraded());
    const auto refLogits = session.decryptLogits(ref->regs);

    for (simd::Level level : reachableLevels()) {
        simd::ScopedLevel pin(level);
        const auto got = executor.execute(encrypted);
        ASSERT_FALSE(got.degraded());
        EXPECT_TRUE(sameRegs(ref->regs, got.regs))
            << "inference ciphertexts diverged from scalar at level "
            << simd::levelName(level);
        EXPECT_EQ(refLogits, session.decryptLogits(got.regs))
            << "logits diverged at level " << simd::levelName(level);
    }
}

} // namespace
} // namespace fxhenn
