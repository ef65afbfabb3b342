/**
 * @file
 * Differential tests over the keyswitch execution paths: the NTT-domain
 * Galois permutation vs the coefficient-domain automorphism, the lazy
 * 128-bit reduction vs the eager reference mode, and the hoisted
 * rotation group vs serial rotations — all required to be bitwise
 * identical, plus the telemetry pairing contract (every rotate records
 * exactly one "ckks.op.rotate" count AND one "ckks.time.rotate.ns"
 * sample, conjugation included).
 */
#include <gtest/gtest.h>

#include <vector>

#include "src/ckks/decryptor.hpp"
#include "src/ckks/encoder.hpp"
#include "src/ckks/encryptor.hpp"
#include "src/ckks/evaluator.hpp"
#include "src/ckks/keygen.hpp"
#include "src/common/rng.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::ckks {
namespace {

bool
sameCiphertext(const Ciphertext &a, const Ciphertext &b)
{
    if (a.parts.size() != b.parts.size())
        return false;
    for (std::size_t i = 0; i < a.parts.size(); ++i)
        if (!(a.parts[i] == b.parts[i]))
            return false;
    return true;
}

class KeyswitchPathTest : public ::testing::Test
{
  protected:
    KeyswitchPathTest()
        : ctx_(testParams(1024, 4, 30)), rng_(1331), keygen_(ctx_, rng_),
          encoder_(ctx_),
          encryptor_(ctx_, keygen_.makePublicKey(), rng_),
          decryptor_(ctx_, keygen_.secretKey())
    {}

    Ciphertext
    enc(std::uint64_t seed)
    {
        std::vector<double> v(ctx_.slots());
        Rng r(seed);
        for (auto &x : v)
            x = r.uniformReal(-1.0, 1.0);
        return encryptor_.encrypt(encoder_.encode(
            std::span<const double>(v), ctx_.params().scale, 4));
    }

    CkksContext ctx_;
    Rng rng_;
    KeyGenerator keygen_;
    Encoder encoder_;
    Encryptor encryptor_;
    Decryptor decryptor_;
};

TEST_F(KeyswitchPathTest, NttPermutationMatchesCoefficientGalois)
{
    // The identity behind the INTT/NTT-free rotation path:
    // ntt(galois(x)) == gather(ntt(x), table). Checked per limb over
    // data + special primes for rotation and conjugation elements.
    Rng r(5);
    for (std::uint64_t elt :
         {ctx_.galoisElt(1), ctx_.galoisElt(7), ctx_.galoisElt(-3),
          ctx_.conjugateElt()}) {
        RnsPoly x(ctx_.basis(), 4, /*withSpecial=*/true,
                  PolyDomain::coeff);
        x.sampleUniform(r);

        RnsPoly via_coeff = x.galois(elt);
        via_coeff.toNtt();

        RnsPoly x_ntt = x;
        x_ntt.toNtt();
        const RnsPoly via_perm =
            x_ntt.permuteNtt(ctx_.galoisNttTable(elt));

        EXPECT_TRUE(via_coeff == via_perm) << "elt " << elt;
    }
}

TEST_F(KeyswitchPathTest, LazyAndEagerKeyswitchAreBitwiseIdentical)
{
    Evaluator lazy(ctx_, KswMode::lazy);
    Evaluator eager(ctx_, KswMode::eager);
    ASSERT_EQ(lazy.kswMode(), KswMode::lazy);

    const auto rk = keygen_.makeRelinKey();
    const auto gk = keygen_.makeGaloisKeys({1, 5});
    const auto ct = enc(11);

    EXPECT_TRUE(sameCiphertext(lazy.mul(ct, ct, rk),
                               eager.mul(ct, ct, rk)));
    EXPECT_TRUE(sameCiphertext(lazy.rotate(ct, 5, gk),
                               eager.rotate(ct, 5, gk)));
    const auto lh = lazy.rotateHoisted(ct, {1, 5}, gk);
    const auto eh = eager.rotateHoisted(ct, {1, 5}, gk);
    ASSERT_EQ(lh.size(), eh.size());
    for (std::size_t i = 0; i < lh.size(); ++i)
        EXPECT_TRUE(sameCiphertext(lh[i], eh[i])) << "member " << i;

    GaloisKeys cgk;
    keygen_.addConjugateKey(cgk);
    EXPECT_TRUE(
        sameCiphertext(lazy.conjugate(ct, cgk), eager.conjugate(ct, cgk)));
}

TEST_F(KeyswitchPathTest, HoistedGroupMatchesSerialRotationsBitwise)
{
    // Serial rotate and every hoisted member run the same
    // decompose-then-permute core, so the hoisting optimization must
    // be invisible at the bit level — the PlanExecutor relies on this
    // when it fuses consecutive rotations into a group.
    Evaluator eval(ctx_);
    const auto gk = keygen_.makeGaloisKeys({1, 3, 16});
    const auto ct = enc(23);

    const std::vector<int> steps{1, 3, 16, 0};
    const auto hoisted = eval.rotateHoisted(ct, steps, gk);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const Ciphertext serial =
            steps[i] == 0 ? ct : eval.rotate(ct, steps[i], gk);
        EXPECT_TRUE(sameCiphertext(hoisted[i], serial))
            << "step " << steps[i];
    }
}

TEST_F(KeyswitchPathTest, RescaleAndKeyswitchNttBudgets)
{
    // The NTT-domain limb drops: a rescale at level l inverse-transforms
    // only the dropped limb of each part (2 inverse) and forward-
    // transforms its extension into the l-1 kept limbs (2(l-1)
    // forward). A keyswitch is its ModUp (l inverse, l*l forward: digit
    // i's own limb is the input's NTT limb) plus ModDown (2 inverse,
    // 2l forward).
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";
    Evaluator eval(ctx_);
    const auto gk = keygen_.makeGaloisKeys({1});
    Ciphertext ct = enc(31);
    auto &fwd = telemetry::counter("modarith.ntt.forward");
    auto &inv = telemetry::counter("modarith.ntt.inverse");
    telemetry::setEnabled(true);
    for (std::size_t level = ct.level(); level >= 2; --level) {
        SCOPED_TRACE(level);
        fwd.reset();
        inv.reset();
        const Ciphertext rotated = eval.rotate(ct, 1, gk);
        EXPECT_EQ(inv.value(), level + 2);
        EXPECT_EQ(fwd.value(), level * level + 2 * level);

        fwd.reset();
        inv.reset();
        eval.rescaleInplace(ct);
        EXPECT_EQ(inv.value(), 2u);
        EXPECT_EQ(fwd.value(), 2 * (level - 1));
    }
    telemetry::setEnabled(false);
}

TEST_F(KeyswitchPathTest, EveryRotatePairsOneCounterWithOneTimer)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";

    Evaluator eval(ctx_);
    const auto gk = keygen_.makeGaloisKeys({1, 3, 16});
    GaloisKeys cgk;
    keygen_.addConjugateKey(cgk);
    const auto ct = enc(31);

    telemetry::reset();
    telemetry::setEnabled(true);
    (void)eval.rotate(ct, 3, gk);              // serial: 1 rotate
    (void)eval.rotateHoisted(ct, {1, 16}, gk); // group: 2 rotates
    (void)eval.conjugate(ct, cgk);             // conjugation: 1 rotate
    telemetry::setEnabled(false);

    const std::uint64_t counted =
        telemetry::counter("ckks.op.rotate").value();
    EXPECT_EQ(counted, 4u);
    // The satellite contract: rotate counter == rotate timer count, so
    // mean rotate latency is computable from telemetry alone.
    EXPECT_EQ(telemetry::histogram("ckks.time.rotate.ns").count(),
              counted);
    EXPECT_EQ(telemetry::histogram("ckks.rotate.hoist_group_size")
                  .count(),
              1u);
    EXPECT_EQ(telemetry::histogram("ckks.rotate.hoist_group_size")
                  .sum(),
              2u);
    // 2 serial cores + 1 shared group decomposition + 2 group members'
    // cores: 3 decompositions, 4 keyswitch_core applications.
    EXPECT_EQ(
        telemetry::counter("ckks.keyswitch.decompositions").value(),
        3u);
    EXPECT_EQ(telemetry::counter("ckks.op.keyswitch_core").value(), 4u);
    telemetry::reset();
}

TEST_F(KeyswitchPathTest, LazyPathReportsSavedReductionsAndPoolHits)
{
    if (!telemetry::compiledIn())
        GTEST_SKIP() << "telemetry compiled out";

    Evaluator eval(ctx_);
    const auto gk = keygen_.makeGaloisKeys({1});
    const auto ct = enc(41);

    telemetry::reset();
    telemetry::setEnabled(true);
    (void)eval.rotate(ct, 1, gk); // warm the workspace pool
    (void)eval.rotate(ct, 1, gk);
    telemetry::setEnabled(false);

    // level 4, n 1024: each lazy application skips
    // 2*(level+1)*n*(level-1) eager Barrett reductions.
    EXPECT_EQ(telemetry::counter("ckks.keyswitch.lazy_reductions_saved")
                  .value(),
              2ull * 2 * 5 * 1024 * 3);
    EXPECT_GT(telemetry::counter("rns.workspace.hits").value(), 0u);
    telemetry::reset();
}

} // namespace
} // namespace fxhenn::ckks
