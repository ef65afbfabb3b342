#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "src/ckks/context.hpp"
#include "src/common/rng.hpp"
#include "src/modarith/primes.hpp"
#include "src/rns/crt.hpp"
#include "src/rns/rns_poly.hpp"

namespace fxhenn {
namespace {

class RnsPolyTest : public ::testing::Test
{
  protected:
    RnsPolyTest()
        : basis_(256, generateNttPrimes(30, 256, 4),
                 generateNttPrimes(40, 256, 1)[0]),
          rng_(99)
    {}

    /** Build a polynomial whose every coefficient is the integer v. */
    RnsPoly
    constantPoly(std::int64_t v, std::size_t level)
    {
        RnsPoly p(basis_, level, false, PolyDomain::coeff);
        for (std::size_t i = 0; i < level; ++i) {
            for (auto &x : p.limb(i))
                x = basis_.q(i).reduceSigned(v);
        }
        return p;
    }

    /** Reconstruct coefficient k of p at its level. */
    std::int64_t
    coeffValue(const RnsPoly &p, std::size_t k)
    {
        CrtReconstructor crt(basis_, p.level());
        std::vector<std::uint64_t> residues(p.level());
        for (std::size_t i = 0; i < p.level(); ++i)
            residues[i] = p.limb(i)[k];
        return static_cast<std::int64_t>(crt.reconstructCentered(residues));
    }

    RnsBasis basis_;
    Rng rng_;
};

TEST_F(RnsPolyTest, AddSubNegateAreConsistent)
{
    RnsPoly a(basis_, 3, false, PolyDomain::coeff);
    RnsPoly b(basis_, 3, false, PolyDomain::coeff);
    a.sampleUniform(rng_);
    b.sampleUniform(rng_);

    RnsPoly sum = a;
    sum.addInplace(b);
    RnsPoly back = sum;
    back.subInplace(b);
    EXPECT_TRUE(back == a);

    RnsPoly neg = a;
    neg.negateInplace();
    neg.addInplace(a);
    EXPECT_TRUE(neg == RnsPoly(basis_, 3, false, PolyDomain::coeff));
}

TEST_F(RnsPolyTest, NttRoundTrip)
{
    RnsPoly a(basis_, 4, true, PolyDomain::coeff);
    a.sampleUniform(rng_);
    RnsPoly original = a;
    a.toNtt();
    EXPECT_EQ(a.domain(), PolyDomain::ntt);
    a.fromNtt();
    EXPECT_TRUE(a == original);
}

TEST_F(RnsPolyTest, MulMatchesIntegerSemantics)
{
    // (3)(X^0) * (5)(X^0) = 15 in every coefficient-0 position.
    RnsPoly a(basis_, 2, false, PolyDomain::coeff);
    RnsPoly b(basis_, 2, false, PolyDomain::coeff);
    for (std::size_t i = 0; i < 2; ++i) {
        a.limb(i)[0] = 3;
        b.limb(i)[0] = 5;
    }
    a.toNtt();
    b.toNtt();
    a.mulInplace(b);
    a.fromNtt();
    EXPECT_EQ(coeffValue(a, 0), 15);
    for (std::size_t k = 1; k < basis_.n(); ++k)
        EXPECT_EQ(coeffValue(a, k), 0);
}

TEST_F(RnsPolyTest, RescaleDividesAndRounds)
{
    // Poly with constant coefficient v; after rescale by q_last the
    // coefficient must be round(v / q_last) up to rounding of +-1/2.
    const std::size_t level = 3;
    const double q_last = static_cast<double>(basis_.q(level - 1).value());
    const std::int64_t v = (1ll << 58) + 12345;
    RnsPoly p = constantPoly(v, level);
    p.toNtt();
    p.rescaleLastPrime();
    p.fromNtt();
    EXPECT_EQ(p.level(), level - 1);
    const std::int64_t got = coeffValue(p, 0);
    const double expect = static_cast<double>(v) / q_last;
    EXPECT_NEAR(static_cast<double>(got), expect, 1.0);
}

TEST_F(RnsPolyTest, ModDownSpecialDividesByP)
{
    const std::size_t level = 2;
    RnsPoly p(basis_, level, true, PolyDomain::coeff);
    const std::int64_t v = (1ll << 57) + 999;
    for (std::size_t i = 0; i < p.limbCount(); ++i) {
        const Modulus &q = p.limbModulus(i);
        for (auto &x : p.limb(i))
            x = q.reduceSigned(v);
    }
    p.toNtt();
    p.modDownSpecial();
    p.fromNtt();
    EXPECT_FALSE(p.hasSpecial());
    const double expect =
        static_cast<double>(v) /
        static_cast<double>(basis_.specialPrime().value());
    EXPECT_NEAR(static_cast<double>(coeffValue(p, 0)), expect, 1.0);
}

TEST_F(RnsPolyTest, GaloisPermutesWithSignFlips)
{
    // p = X; galois by elt maps it to X^elt (exponent < N, no flip).
    const std::uint64_t n = basis_.n();
    RnsPoly p(basis_, 1, false, PolyDomain::coeff);
    p.limb(0)[1] = 1;
    const std::uint64_t elt = 5;
    RnsPoly g = p.galois(elt);
    EXPECT_EQ(g.limb(0)[5], 1u);
    EXPECT_EQ(g.limb(0)[1], 0u);

    // p = X^(n-1): exponent (n-1)*5 = 4n + (n-5); X^(4n) = (+1)^2, so
    // the image is +X^(n-5) with no sign flip.
    RnsPoly h(basis_, 1, false, PolyDomain::coeff);
    h.limb(0)[n - 1] = 1;
    RnsPoly gh = h.galois(elt);
    EXPECT_EQ(gh.limb(0)[n - 5], 1u);

    // p = X^((n+1)/... ): pick k with k*elt mod 2n in [n, 2n) to force a
    // flip: k = n/2 gives n/2*5 = 2n + n/2 -> exponent n/2 after one full
    // 2n wrap (even, no flip); k = n/4*3? Use direct search instead.
    std::uint64_t flip_k = 0;
    for (std::uint64_t k = 1; k < n; ++k) {
        if ((k * elt) % (2 * n) >= n) {
            flip_k = k;
            break;
        }
    }
    ASSERT_NE(flip_k, 0u);
    RnsPoly f(basis_, 1, false, PolyDomain::coeff);
    f.limb(0)[flip_k] = 1;
    RnsPoly gf = f.galois(elt);
    const std::uint64_t q0 = basis_.q(0).value();
    EXPECT_EQ(gf.limb(0)[(flip_k * elt) % (2 * n) - n], q0 - 1);
}

TEST_F(RnsPolyTest, GaloisIsRingHomomorphism)
{
    // galois(a * b) == galois(a) * galois(b)
    RnsPoly a(basis_, 2, false, PolyDomain::coeff);
    RnsPoly b(basis_, 2, false, PolyDomain::coeff);
    a.sampleUniform(rng_);
    b.sampleUniform(rng_);
    const std::uint64_t elt = 25; // 5^2

    RnsPoly prod = a;
    RnsPoly bn = b;
    prod.toNtt();
    bn.toNtt();
    prod.mulInplace(bn);
    prod.fromNtt();
    RnsPoly lhs = prod.galois(elt);

    RnsPoly ga = a.galois(elt);
    RnsPoly gb = b.galois(elt);
    ga.toNtt();
    gb.toNtt();
    ga.mulInplace(gb);
    ga.fromNtt();

    EXPECT_TRUE(lhs == ga);
}

TEST_F(RnsPolyTest, DropLastPrimeKeepsResidues)
{
    RnsPoly p(basis_, 3, false, PolyDomain::coeff);
    p.sampleUniform(rng_);
    RnsPoly copy = p;
    p.dropLastPrime();
    EXPECT_EQ(p.level(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        for (std::size_t k = 0; k < basis_.n(); ++k)
            EXPECT_EQ(p.limb(i)[k], copy.limb(i)[k]);
    }
}

/** The division-free samplers draw the same stream and write the same
 * residues as Rng::uniform(q) / Modulus::reduceSigned per coefficient,
 * on narrow and 60-bit primes alike. */
TEST(RnsPolySampling, SamplersMatchTheirDivisionReference)
{
    const RnsBasis basis(256, generateNttPrimes(50, 256, 2),
                         generateNttPrimes(60, 256, 1)[0]);
    for (int kind = 0; kind < 3; ++kind) {
        Rng rng(7 + kind);
        Rng ref(7 + kind);
        RnsPoly p(basis, 2, true, PolyDomain::coeff);
        std::vector<std::int64_t> shared(basis.n());
        if (kind == 0) {
            p.sampleUniform(rng);
        } else if (kind == 1) {
            p.sampleTernary(rng);
            for (auto &v : shared)
                v = ref.ternary();
        } else {
            p.sampleGaussian(rng, 3.2);
            for (auto &v : shared)
                v = ref.gaussian(3.2);
        }
        for (std::size_t i = 0; i < p.limbCount(); ++i) {
            const Modulus &q = p.limbModulus(i);
            for (std::size_t k = 0; k < basis.n(); ++k) {
                const std::uint64_t want =
                    kind == 0 ? ref.uniform(q.value())
                              : q.reduceSigned(shared[k]);
                ASSERT_EQ(p.limb(i)[k], want)
                    << "sampler " << kind << " limb " << i << " k " << k;
            }
        }
        EXPECT_EQ(rng.next(), ref.next()) << "streams drifted apart";
    }
}

/** setSigned writes Modulus::reduceSigned's residue on both of its
 * branches: all magnitudes below every prime, and one beyond. */
TEST(RnsPolySampling, SetSignedMatchesReduceSigned)
{
    const RnsBasis basis(256, generateNttPrimes(30, 256, 2),
                         generateNttPrimes(60, 256, 1)[0]);
    const auto q0 = static_cast<std::int64_t>(basis.q(0).value());
    for (bool wide : {false, true}) {
        std::vector<std::int64_t> values(basis.n());
        for (std::size_t k = 0; k < values.size(); ++k) {
            const std::int64_t m = static_cast<std::int64_t>(k) - 128;
            values[k] = m * (q0 / 200);
        }
        values[0] = -(q0 / 2);
        values[1] = q0 / 2;
        if (wide) {
            values[2] = std::numeric_limits<std::int64_t>::min();
            values[3] = std::numeric_limits<std::int64_t>::max();
            values[4] = -q0;
        }
        RnsPoly p(basis, 2, true, PolyDomain::coeff);
        p.setSigned(values);
        for (std::size_t i = 0; i < p.limbCount(); ++i)
            for (std::size_t k = 0; k < values.size(); ++k)
                ASSERT_EQ(p.limb(i)[k],
                          p.limbModulus(i).reduceSigned(values[k]))
                    << "wide " << wide << " limb " << i << " k " << k;
    }
}

/**
 * The coefficient-domain divide-and-round the NTT-domain limb drop
 * replaced, kept here as its reference: for every limb j below the
 * last, c_j <- (c_j - [c_last]) * q_last^-1 (mod q_j) with [c_last]
 * the centred representative of the dropped limb. Takes and returns
 * coefficient-domain polynomials; the result has no special limb and,
 * for a data-prime drop, one level less.
 */
RnsPoly
referenceDivideByLastLimb(const RnsPoly &in)
{
    const std::size_t last = in.limbCount() - 1;
    const std::size_t keep = last;
    const Modulus &qLast = in.limbModulus(last);
    const auto tail = in.limb(last);
    const bool special = in.hasSpecial();
    RnsPoly out(in.basis(), special ? in.level() : in.level() - 1, false,
                PolyDomain::coeff);
    for (std::size_t j = 0; j < keep; ++j) {
        const Modulus &q = in.limbModulus(j);
        const std::uint64_t inv =
            special ? in.basis().invSpecial(j)
                    : in.basis().invLastPrime(in.level(), j);
        const auto src = in.limb(j);
        auto dst = out.limb(j);
        for (std::size_t k = 0; k < dst.size(); ++k) {
            const std::int64_t centred = qLast.toCentered(tail[k]);
            dst[k] = q.mul(q.sub(src[k], q.reduceSigned(centred)), inv);
        }
    }
    return out;
}

/**
 * NTT-domain rescale and ModDown against the coefficient-domain
 * reference, bit for bit, at every level of the preset chains, plus
 * two hand-made bases that reach the other extension branches: a
 * special prime as narrow as the data primes, and one more than twice
 * their width.
 */
TEST(RnsPolyLimbDrop, NttDomainMatchesCoefficientReferenceOnPresetChains)
{
    std::vector<std::unique_ptr<ckks::CkksContext>> contexts;
    for (const ckks::CkksParams &params :
         {ckks::mnistParams(), ckks::cifar10Params(), ckks::testParams()})
        contexts.push_back(std::make_unique<ckks::CkksContext>(params));
    const RnsBasis narrowSpecial(256, generateNttPrimes(30, 256, 3),
                                 generateNttPrimes(30, 256, 4)[3]);
    const RnsBasis wideSpecial(256, generateNttPrimes(20, 256, 3),
                               generateNttPrimes(60, 256, 1)[0]);
    std::vector<const RnsBasis *> bases{&narrowSpecial, &wideSpecial};
    for (const auto &ctx : contexts)
        bases.push_back(&ctx->basis());

    Rng rng(4242);
    for (const RnsBasis *basis : bases) {
        SCOPED_TRACE(basis->n());
        for (std::size_t level = 1; level <= basis->levels(); ++level) {
            SCOPED_TRACE(level);
            for (bool special : {false, true}) {
                if (!special && level < 2)
                    continue;
                RnsPoly x(*basis, level, special, PolyDomain::coeff);
                x.sampleUniform(rng);
                RnsPoly expect = referenceDivideByLastLimb(x);
                expect.toNtt();

                x.toNtt();
                if (special)
                    x.modDownSpecial();
                else
                    x.rescaleLastPrime();
                EXPECT_TRUE(x == expect)
                    << (special ? "ModDown" : "rescale")
                    << " diverged from the coefficient-domain reference";
            }
        }
    }
}

} // namespace
} // namespace fxhenn
