#include "src/rns/rns_poly.hpp"

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {

RnsPoly::RnsPoly(const RnsBasis &basis, std::size_t level, bool withSpecial,
                 PolyDomain domain)
    : basis_(&basis), level_(level), hasSpecial_(withSpecial),
      domain_(domain)
{
    FXHENN_FATAL_IF(level == 0 || level > basis.levels(),
                    "invalid polynomial level");
    const std::size_t count = level + (withSpecial ? 1 : 0);
    limbs_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        limbs_.emplace_back(basis.n());
}

std::span<std::uint64_t>
RnsPoly::limb(std::size_t i)
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return limbs_[i];
}

std::span<const std::uint64_t>
RnsPoly::limb(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return limbs_[i];
}

const Modulus &
RnsPoly::limbModulus(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return i < level_ ? basis_->q(i) : basis_->specialPrime();
}

const NttTables &
RnsPoly::limbNtt(std::size_t i) const
{
    FXHENN_ASSERT(i < limbs_.size(), "limb index out of range");
    return i < level_ ? basis_->ntt(i) : basis_->nttSpecial();
}

void
RnsPoly::checkCompatible(const RnsPoly &other) const
{
    FXHENN_ASSERT(basis_ == other.basis_, "operands from different bases");
    FXHENN_ASSERT(level_ == other.level_, "operand level mismatch");
    FXHENN_ASSERT(hasSpecial_ == other.hasSpecial_,
                  "special-limb mismatch");
    FXHENN_ASSERT(domain_ == other.domain_, "operand domain mismatch");
}

void
RnsPoly::addInplace(const RnsPoly &other)
{
    checkCompatible(other);
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.addArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::subInplace(const RnsPoly &other)
{
    checkCompatible(other);
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.subArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::negateInplace()
{
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        for (auto &x : limbs_[i])
            x = q.negate(x);
    }
}

void
RnsPoly::mulInplace(const RnsPoly &other)
{
    checkCompatible(other);
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "element-wise multiply requires NTT domain");
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.mulArray(dst.data(), dst.data(), other.limbs_[i].data(),
                      dst.size(), limbModulus(i));
    }
}

void
RnsPoly::addProduct(const RnsPoly &a, const RnsPoly &b)
{
    checkCompatible(a);
    checkCompatible(b);
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "addProduct requires NTT domain");
    const auto &kern = simd::kernels();
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        auto &dst = limbs_[i];
        kern.fmaModArray(dst.data(), a.limbs_[i].data(),
                         b.limbs_[i].data(), dst.size(), limbModulus(i));
    }
}

void
RnsPoly::mulScalarPerLimb(std::span<const std::uint64_t> scalars)
{
    FXHENN_ASSERT(scalars.size() == limbs_.size(),
                  "one scalar per limb required");
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        const std::uint64_t s = scalars[i];
        for (auto &x : limbs_[i])
            x = q.mul(x, s);
    }
}

void
RnsPoly::toNtt()
{
    FXHENN_ASSERT(domain_ == PolyDomain::coeff, "already in NTT domain");
    // Limbs are independent polynomials mod distinct primes — the same
    // parallelism the FPGA design's P_intra knob exploits (Sec. V-B).
    parallelFor(limbs_.size(), [this](std::size_t i) {
        limbNtt(i).forward(limbs_[i]);
    });
    domain_ = PolyDomain::ntt;
}

void
RnsPoly::fromNtt()
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "already in coefficient domain");
    parallelFor(limbs_.size(), [this](std::size_t i) {
        limbNtt(i).inverse(limbs_[i]);
    });
    domain_ = PolyDomain::coeff;
}

void
RnsPoly::divideByLastLimb()
{
    // Only the dropped limb leaves the NTT domain. Its centred
    // coefficients v (in (-q_last/2, q_last/2]) are extended into each
    // kept limb j and forward-NTT'd there; since the NTT is linear with
    // canonical outputs, (x_j - NTT_j(v)) * q_last^-1 is bit for bit
    // the NTT of the coefficient-domain quotient.
    auto &pos = limbs_.back();
    const NttTables &tailNtt = limbNtt(limbs_.size() - 1);
    const Modulus &qLast = tailNtt.modulus();
    tailNtt.inverse(pos);

    // Split v = pos - neg once, with pos and neg in [0, q_last/2], so
    // every kept limb gets v mod q_j from the subArray kernel: directly
    // when q_last/2 < q_j, else after reducing both halves mod q_j.
    const std::uint64_t half = qLast.value() / 2;
    const std::size_t n = pos.size();
    std::vector<std::uint64_t> neg = rns::WorkspacePool::leaseU64(n);
    for (std::size_t k = 0; k < n; ++k) {
        const bool up = pos[k] > half;
        neg[k] = up ? qLast.value() - pos[k] : 0;
        pos[k] = up ? 0 : pos[k];
    }

    const auto &kern = simd::kernels();
    parallelFor(limbs_.size() - 1, [&](std::size_t j) {
        const Modulus &q = limbModulus(j);
        std::vector<std::uint64_t> ext = rns::WorkspacePool::leaseU64(n);
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        if (half < q.value()) {
            kern.subArray(ext.data(), pos.data(), neg.data(), n, q);
        } else {
            std::vector<std::uint64_t> tmp =
                rns::WorkspacePool::leaseU64(n);
            // Barrett reduce() needs x < 2^(2*bits()); reduceWide()
            // takes anything.
            if (qLast.bits() <= 2 * q.bits()) {
                kern.reduceArray(ext.data(), pos.data(), n, q);
                kern.reduceArray(tmp.data(), neg.data(), n, q);
            } else {
                for (std::size_t k = 0; k < n; ++k) {
                    ext[k] = q.reduceWide(pos[k]);
                    tmp[k] = q.reduceWide(neg[k]);
                }
            }
            kern.subArray(ext.data(), ext.data(), tmp.data(), n, q);
            rns::WorkspacePool::release(std::move(tmp));
        }
        limbNtt(j).forward(ext);
        const std::uint64_t inv = hasSpecial_
                                      ? basis_->invSpecial(j)
                                      : basis_->invLastPrime(level_, j);
        FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
        kern.subScaleArray(limbs_[j].data(), limbs_[j].data(), ext.data(),
                           n, q, inv, q.shoupConstant(inv));
        rns::WorkspacePool::release(std::move(ext));
    });
    rns::WorkspacePool::release(std::move(neg));
    limbs_.pop_back();
}

void
RnsPoly::rescaleLastPrime()
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "rescale requires NTT domain");
    FXHENN_ASSERT(!hasSpecial_, "rescale with special limb present");
    FXHENN_ASSERT(level_ >= 2, "cannot rescale a level-1 polynomial");
    divideByLastLimb();
    --level_;
}

void
RnsPoly::modDownSpecial()
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "modDown requires NTT domain");
    FXHENN_ASSERT(hasSpecial_, "no special limb to remove");
    divideByLastLimb();
    hasSpecial_ = false;
}

void
RnsPoly::dropLastPrime()
{
    FXHENN_ASSERT(!hasSpecial_, "drop with special limb present");
    FXHENN_ASSERT(level_ >= 2, "cannot drop below level 1");
    limbs_.pop_back();
    --level_;
}

void
RnsPoly::sampleUniform(Rng &rng)
{
    // The draws of Rng::uniform(q) with its rejection threshold hoisted
    // per limb and the remainder taken by Barrett instead of a divide.
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        const std::uint64_t threshold = (0 - q.value()) % q.value();
        for (auto &x : limbs_[i]) {
            std::uint64_t r = rng.next();
            while (r < threshold)
                r = rng.next();
            x = q.reduceWide(r);
        }
    }
    domain_ = PolyDomain::coeff;
}

void
RnsPoly::setSigned(std::span<const std::int64_t> values)
{
    FXHENN_ASSERT(values.size() == basis_->n(), "one value per coefficient");
    std::uint64_t maxAbs = 0;
    for (std::int64_t v : values)
        maxAbs = std::max(maxAbs, v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                        : static_cast<std::uint64_t>(v));
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        auto &dst = limbs_[i];
        if (maxAbs < q.value()) {
            // Branch-free residue of |v| < q: v, or v + q when negative.
            for (std::size_t k = 0; k < values.size(); ++k)
                dst[k] = static_cast<std::uint64_t>(values[k]) +
                         (q.value() &
                          static_cast<std::uint64_t>(values[k] >> 63));
        } else {
            for (std::size_t k = 0; k < values.size(); ++k)
                dst[k] = q.reduceSigned(values[k]);
        }
    }
    domain_ = PolyDomain::coeff;
}

void
RnsPoly::sampleTernary(Rng &rng)
{
    std::vector<std::int64_t> secret(basis_->n());
    for (auto &s : secret)
        s = rng.ternary();
    setSigned(secret);
}

void
RnsPoly::sampleGaussian(Rng &rng, double sigma)
{
    std::vector<std::int64_t> err(basis_->n());
    for (auto &e : err)
        e = rng.gaussian(sigma);
    setSigned(err);
}

RnsPoly
RnsPoly::galois(std::uint64_t galoisElt) const
{
    FXHENN_ASSERT(domain_ == PolyDomain::coeff,
                  "galois requires coefficient domain");
    FXHENN_ASSERT(galoisElt % 2 == 1, "galois element must be odd");

    const std::uint64_t n = basis_->n();
    RnsPoly out(*basis_, level_, hasSpecial_, PolyDomain::coeff);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const Modulus &q = limbModulus(i);
        const auto &src = limbs_[i];
        auto dst = out.limb(i);
        for (std::uint64_t k = 0; k < n; ++k) {
            // X^k -> X^(k * elt mod 2N), with sign flip when the image
            // exponent wraps past N (negacyclic ring).
            const std::uint64_t idx = (k * galoisElt) % (2 * n);
            if (idx < n) {
                dst[idx] = src[k];
            } else {
                dst[idx - n] = q.negate(src[k]);
            }
        }
    }
    return out;
}

RnsPoly
RnsPoly::permuteNtt(std::span<const std::uint32_t> perm) const
{
    FXHENN_ASSERT(domain_ == PolyDomain::ntt,
                  "permuteNtt requires NTT domain");
    FXHENN_ASSERT(perm.size() == basis_->n(),
                  "permutation table size mismatch");
    RnsPoly out(*basis_, level_, hasSpecial_, PolyDomain::ntt);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
        const auto &src = limbs_[i];
        auto dst = out.limb(i);
        for (std::size_t t = 0; t < dst.size(); ++t)
            dst[t] = src[perm[t]];
    }
    return out;
}

bool
RnsPoly::operator==(const RnsPoly &other) const
{
    return basis_ == other.basis_ && level_ == other.level_ &&
           hasSpecial_ == other.hasSpecial_ && domain_ == other.domain_ &&
           limbs_ == other.limbs_;
}

} // namespace fxhenn
