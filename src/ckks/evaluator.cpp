#include "src/ckks/evaluator.hpp"

#include <cmath>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/rns/lazy_accumulator.hpp"
#include "src/robustness/fault_injection.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn::ckks {

Evaluator::Evaluator(const CkksContext &context, KswMode kswMode)
    : context_(context),
      kswMode_(kswMode)
{}

void
Evaluator::checkSameShape(const Ciphertext &a, const Ciphertext &b) const
{
    FXHENN_FATAL_IF(a.level() != b.level(),
                    "ciphertext levels differ; modSwitch first");
    FXHENN_FATAL_IF(a.size() != b.size(),
                    "ciphertext part counts differ");
}

void
Evaluator::checkScaleClose(double a, double b) const
{
    const double ratio = a / b;
    FXHENN_FATAL_IF(ratio < 0.99 || ratio > 1.01,
                    "operand scales differ by more than 1%; align scales "
                    "before additive operations");
}

void
Evaluator::checkScaleSane(double scale) const
{
    FXHENN_FATAL_IF(!std::isfinite(scale) || scale <= 0.0,
                    "ciphertext scale is non-finite or non-positive");
}

void
Evaluator::checkScaleFits(double scale, std::size_t level) const
{
    // SEAL-style "scale out of bounds". A legitimate product at the
    // last usable level sits within a fraction of a bit of logQ (prime
    // drift), while a missing rescale overshoots by a full ~scaleBits,
    // so a 2-bit margin separates the two cleanly.
    FXHENN_FATAL_IF(std::log2(scale) > context_.basis().logQ(level) + 2.0,
                    "product scale exceeds the modulus at this level; "
                    "rescale before multiplying again");
}

Ciphertext
Evaluator::add(const Ciphertext &a, const Ciphertext &b)
{
    Ciphertext out = a;
    addInplace(out, b);
    return out;
}

void
Evaluator::addInplace(Ciphertext &a, const Ciphertext &b)
{
    checkSameShape(a, b);
    checkScaleSane(a.scale);
    checkScaleClose(a.scale, b.scale);
    FXHENN_TELEM_COUNT("ckks.op.cc_add", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", a.level() * a.parts.size());
    for (std::size_t k = 0; k < a.parts.size(); ++k)
        a.parts[k].addInplace(b.parts[k]);
    ++counts_.ccAdd;
}

Ciphertext
Evaluator::sub(const Ciphertext &a, const Ciphertext &b)
{
    checkSameShape(a, b);
    checkScaleClose(a.scale, b.scale);
    Ciphertext out = a;
    for (std::size_t k = 0; k < out.parts.size(); ++k)
        out.parts[k].subInplace(b.parts[k]);
    ++counts_.ccAdd;
    return out;
}

Ciphertext
Evaluator::addPlain(const Ciphertext &a, const Plaintext &p)
{
    Ciphertext out = a;
    addPlainInplace(out, p);
    return out;
}

void
Evaluator::addPlainInplace(Ciphertext &a, const Plaintext &p)
{
    FXHENN_FATAL_IF(a.level() != p.level(),
                    "plaintext level does not match ciphertext");
    checkScaleClose(a.scale, p.scale);
    FXHENN_TELEM_COUNT("ckks.op.pc_add", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", a.level());
    a.parts[0].addInplace(p.poly);
    ++counts_.pcAdd;
}

Ciphertext
Evaluator::negate(const Ciphertext &a)
{
    Ciphertext out = a;
    for (auto &part : out.parts)
        part.negateInplace();
    return out;
}

Ciphertext
Evaluator::addMany(std::span<const Ciphertext> operands)
{
    FXHENN_FATAL_IF(operands.empty(), "addMany needs >= 1 operand");
    std::vector<Ciphertext> layer(operands.begin(), operands.end());
    while (layer.size() > 1) {
        std::vector<Ciphertext> next;
        next.reserve((layer.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
            next.push_back(add(layer[i], layer[i + 1]));
        if (layer.size() % 2 == 1)
            next.push_back(std::move(layer.back()));
        layer = std::move(next);
    }
    return std::move(layer.front());
}

void
Evaluator::mulScalarInplace(Ciphertext &a, std::int64_t scalar)
{
    for (auto &part : a.parts) {
        for (std::size_t i = 0; i < part.limbCount(); ++i) {
            const Modulus &q = part.limbModulus(i);
            const std::uint64_t s = q.reduceSigned(scalar);
            for (auto &x : part.limb(i))
                x = q.mul(x, s);
        }
    }
}

Ciphertext
Evaluator::mulPlain(const Ciphertext &a, const Plaintext &p)
{
    Ciphertext out = a;
    mulPlainInplace(out, p);
    return out;
}

void
Evaluator::mulPlainInplace(Ciphertext &a, const Plaintext &p)
{
    FXHENN_FATAL_IF(a.level() != p.level(),
                    "plaintext level does not match ciphertext");
    checkScaleSane(a.scale);
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.pc_mult.ns");
    FXHENN_TELEM_COUNT("ckks.op.pc_mult", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", a.level() * a.parts.size());
    for (auto &part : a.parts)
        part.mulInplace(p.poly);
    a.scale *= p.scale;
    checkScaleFits(a.scale, a.level());
    if (auto fault = robustness::fireFault("evaluator.scale")) {
        if (fault->kind == "perturb")
            a.scale *= 1.25;
    }
    ++counts_.pcMult;
}

Ciphertext
Evaluator::mulNoRelin(const Ciphertext &a, const Ciphertext &b)
{
    checkSameShape(a, b);
    FXHENN_FATAL_IF(a.size() != 2 || b.size() != 2,
                    "multiply requires 2-part operands");
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.cc_mult.ns");
    FXHENN_TELEM_COUNT("ckks.op.cc_mult", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", a.level() * 4);

    Ciphertext out;
    out.scale = a.scale * b.scale;
    checkScaleFits(out.scale, a.level());
    // r0 = a0 b0, r1 = a0 b1 + a1 b0, r2 = a1 b1
    RnsPoly r0 = a.parts[0];
    r0.mulInplace(b.parts[0]);
    RnsPoly r1 = a.parts[0];
    r1.mulInplace(b.parts[1]);
    r1.addProduct(a.parts[1], b.parts[0]);
    RnsPoly r2 = a.parts[1];
    r2.mulInplace(b.parts[1]);
    out.parts.push_back(std::move(r0));
    out.parts.push_back(std::move(r1));
    out.parts.push_back(std::move(r2));
    ++counts_.ccMult;
    return out;
}

Ciphertext
Evaluator::mul(const Ciphertext &a, const Ciphertext &b, const RelinKey &rk)
{
    return relinearize(mulNoRelin(a, b), rk);
}

Ciphertext
Evaluator::square(const Ciphertext &a, const RelinKey &rk)
{
    return mul(a, a, rk);
}

std::vector<RnsPoly>
Evaluator::decomposeKsw(const RnsPoly &d)
{
    const RnsBasis &basis = context_.basis();
    const std::size_t level = d.level();
    FXHENN_ASSERT(d.domain() == PolyDomain::ntt,
                  "decomposition input must be in NTT form");
    FXHENN_ASSERT(!d.hasSpecial(), "input must not carry the special limb");
    FXHENN_TELEM_COUNT("ckks.keyswitch.decompositions", 1);
    RnsPoly coeff = d;
    coeff.fromNtt();

    std::vector<RnsPoly> digits;
    digits.reserve(level);
    for (std::size_t i = 0; i < level; ++i)
        digits.emplace_back(basis, level, /*withSpecial=*/true,
                            PolyDomain::coeff);

    // One flat batch over every (digit, target limb) pair: extend limb
    // i of d into modulus j, then forward-NTT it there. All writes are
    // disjoint, so the whole ModUp is a single parallelFor (the
    // software mirror of P_intra) instead of L serial NTT sweeps.
    parallelFor(level * (level + 1), [&](std::size_t job) {
        const std::size_t i = job / (level + 1);
        const std::size_t j = job % (level + 1);
        const Modulus &qj =
            (j < level) ? basis.q(j) : basis.specialPrime();
        const NttTables &ntt_j =
            (j < level) ? basis.ntt(j) : basis.nttSpecial();
        const auto src = coeff.limb(i);
        auto dst = digits[i].limb(j);
        if (j == i) {
            // Same modulus: the input's own NTT-domain limb, exactly
            // the forward NTT of its coefficients.
            const auto own = d.limb(i);
            std::copy(own.begin(), own.end(), dst.begin());
            return;
        }
        if (basis.q(i).value() < qj.value()) {
            // q_i < q_j: the [0, q_i) representative is already
            // canonical mod q_j.
            std::copy(src.begin(), src.end(), dst.begin());
        } else {
            // Fast (approximate) base extension: take the
            // representative in [0, q_i) and reduce (Barrett — data
            // primes share a width, so src[k] < 2^(2*bits) holds).
            // The induced error is < q_i and is scaled away by the
            // final division by p.
            FXHENN_TELEM_COUNT("modarith.simd.dispatches", 1);
            simd::kernels().reduceArray(dst.data(), src.data(),
                                        dst.size(), qj);
        }
        ntt_j.forward(dst);
    });
    for (auto &digit : digits)
        digit.setDomain(PolyDomain::ntt);
    return digits;
}

std::pair<RnsPoly, RnsPoly>
Evaluator::keyswitchCore(const std::vector<RnsPoly> &digits,
                         const KswKey &key,
                         std::span<const std::uint32_t> perm)
{
    const RnsBasis &basis = context_.basis();
    const std::size_t level = digits.size();
    FXHENN_ASSERT(level > 0, "keyswitch needs >= 1 digit");
    FXHENN_ASSERT(key.pairs.size() >= level, "key too short for level");
    const std::size_t n = digits.front().n();
    FXHENN_TELEM_COUNT("ckks.op.keyswitch_core", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", level * (level + 1));
    if (kswMode_ == KswMode::lazy && level > 1) {
        // Eager reduces every FMA (level Barrett reductions per
        // coefficient per accumulator); lazy reduces once.
        FXHENN_TELEM_COUNT("ckks.keyswitch.lazy_reductions_saved",
                           2 * (level + 1) * n * (level - 1));
    }

    RnsPoly u0(basis, level, /*withSpecial=*/true, PolyDomain::ntt);
    RnsPoly u1(basis, level, /*withSpecial=*/true, PolyDomain::ntt);

    // Every target limb j of the accumulators is independent; all
    // writes stay disjoint. When perm is given, the Galois
    // automorphism is a pure gather on NTT-domain digits, fused into
    // the inner product (the hoisted-rotation path).
    parallelFor(level + 1, [&](std::size_t j) {
        const Modulus &qj =
            (j < level) ? basis.q(j) : basis.specialPrime();
        auto a0 = u0.limb(j);
        auto a1 = u1.limb(j);
        if (kswMode_ == KswMode::lazy) {
            rns::LazyLimbAccumulator acc(qj, n);
            for (std::size_t i = 0; i < level; ++i) {
                // Key limbs span all L data primes plus the special.
                const RnsPoly &k0 = key.pairs[i].first;
                const RnsPoly &k1 = key.pairs[i].second;
                const std::size_t kj = (j < level) ? j : k0.level();
                if (perm.empty())
                    acc.fma(digits[i].limb(j), k0.limb(kj), k1.limb(kj));
                else
                    acc.fmaGather(digits[i].limb(j), perm, k0.limb(kj),
                                  k1.limb(kj));
            }
            acc.reduceInto(a0, a1);
        } else {
            for (std::size_t i = 0; i < level; ++i) {
                const RnsPoly &k0 = key.pairs[i].first;
                const RnsPoly &k1 = key.pairs[i].second;
                const std::size_t kj = (j < level) ? j : k0.level();
                auto e = digits[i].limb(j);
                auto s0 = k0.limb(kj);
                auto s1 = k1.limb(kj);
                if (perm.empty()) {
                    for (std::size_t k = 0; k < n; ++k) {
                        a0[k] = qj.add(a0[k], qj.mul(e[k], s0[k]));
                        a1[k] = qj.add(a1[k], qj.mul(e[k], s1[k]));
                    }
                } else {
                    for (std::size_t k = 0; k < n; ++k) {
                        a0[k] = qj.add(a0[k], qj.mul(e[perm[k]], s0[k]));
                        a1[k] = qj.add(a1[k], qj.mul(e[perm[k]], s1[k]));
                    }
                }
            }
        }
    });

    // Exact scale-down by p (ModDown), in the NTT domain: only the
    // special limb of each accumulator is inverse transformed.
    u0.modDownSpecial();
    u1.modDownSpecial();
    return {std::move(u0), std::move(u1)};
}

std::pair<RnsPoly, RnsPoly>
Evaluator::applyKsw(const RnsPoly &d, const KswKey &key)
{
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.keyswitch.ns");
    return keyswitchCore(decomposeKsw(d), key, {});
}

Ciphertext
Evaluator::relinearize(const Ciphertext &a, const RelinKey &rk)
{
    FXHENN_FATAL_IF(a.size() != 3,
                    "relinearize expects a 3-part ciphertext");
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.relinearize.ns");
    FXHENN_TELEM_COUNT("ckks.op.relinearize", 1);
    auto [u0, u1] = applyKsw(a.parts[2], rk.key);

    Ciphertext out;
    out.scale = a.scale;
    RnsPoly c0 = a.parts[0];
    c0.addInplace(u0);
    RnsPoly c1 = a.parts[1];
    c1.addInplace(u1);
    out.parts.push_back(std::move(c0));
    out.parts.push_back(std::move(c1));
    ++counts_.relinearize;
    return out;
}

Ciphertext
Evaluator::rescale(const Ciphertext &a)
{
    Ciphertext out = a;
    rescaleInplace(out);
    return out;
}

void
Evaluator::rescaleInplace(Ciphertext &a)
{
    FXHENN_FATAL_IF(a.level() < 2, "no prime left to rescale into");
    checkScaleSane(a.scale);
    const auto fault = robustness::fireFault("evaluator.rescale");
    if (fault && fault->kind == "drop")
        return; // injected fault: the rescale silently never happens
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.rescale.ns");
    FXHENN_TELEM_COUNT("ckks.op.rescale", 1);
    FXHENN_TELEM_COUNT("ckks.limbs", a.level() * a.parts.size());
    const std::uint64_t q_last =
        context_.basis().q(a.level() - 1).value();
    for (auto &part : a.parts)
        part.rescaleLastPrime();
    a.scale /= static_cast<double>(q_last);
    if (fault && fault->kind == "bitflip")
        robustness::corruptResidues(a.parts[0], fault->seed);
    ++counts_.rescale;
}

Ciphertext
Evaluator::modSwitchToLevel(const Ciphertext &a, std::size_t level)
{
    FXHENN_FATAL_IF(level == 0 || level > a.level(),
                    "invalid modSwitch target level");
    Ciphertext out = a;
    for (auto &part : out.parts) {
        while (part.level() > level)
            part.dropLastPrime();
    }
    return out;
}

Ciphertext
Evaluator::rotateFromDigits(const Ciphertext &a,
                            const std::vector<RnsPoly> &digits,
                            std::uint64_t elt, const KswKey &key)
{
    const auto &perm = context_.galoisNttTable(elt);
    std::pair<RnsPoly, RnsPoly> u = [&] {
        FXHENN_TELEM_SCOPED_TIMER("ckks.time.keyswitch.ns");
        return keyswitchCore(digits, key, perm);
    }();

    // c0 never leaves the NTT domain: the automorphism is the same
    // gather the keyswitch fused into its inner product.
    u.first.addInplace(a.parts[0].permuteNtt(perm));

    Ciphertext out;
    out.scale = a.scale;
    out.parts.push_back(std::move(u.first));
    out.parts.push_back(std::move(u.second));
    ++counts_.rotate;
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext &a, int steps, const GaloisKeys &gk)
{
    FXHENN_FATAL_IF(a.size() != 2, "rotate expects a 2-part ciphertext");
    if (steps == 0)
        return a;
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.rotate.ns");
    FXHENN_TELEM_COUNT("ckks.op.rotate", 1);
    const std::uint64_t elt = context_.galoisElt(steps);
    FXHENN_FATAL_IF(!gk.has(elt),
                    "missing Galois key for requested rotation");

    return rotateFromDigits(a, decomposeKsw(a.parts[1]), elt,
                            gk.keys.at(elt));
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext &a,
                         const std::vector<int> &steps,
                         const GaloisKeys &gk)
{
    FXHENN_FATAL_IF(a.size() != 2,
                    "rotateHoisted expects a 2-part ciphertext");
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.rotate_hoisted.ns");
#if FXHENN_TELEMETRY_ENABLED
    if (telemetry::enabled())
        telemetry::histogram("ckks.rotate.hoist_group_size")
            .record(steps.size());
#endif

    // Hoisted part (Halevi-Shoup): decompose + base-extend + NTT c1
    // once; every rotation of the group reuses the digits through its
    // own Galois gather.
    const std::vector<RnsPoly> digits = decomposeKsw(a.parts[1]);

    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    for (int step : steps) {
        if (step == 0) {
            out.push_back(a);
            continue;
        }
        FXHENN_TELEM_SCOPED_TIMER("ckks.time.rotate.ns");
        FXHENN_TELEM_COUNT("ckks.op.rotate", 1);
        const std::uint64_t elt = context_.galoisElt(step);
        FXHENN_FATAL_IF(!gk.has(elt),
                        "missing Galois key for hoisted rotation");
        out.push_back(rotateFromDigits(a, digits, elt, gk.keys.at(elt)));
    }
    return out;
}

Ciphertext
Evaluator::conjugate(const Ciphertext &a, const GaloisKeys &gk)
{
    FXHENN_FATAL_IF(a.size() != 2,
                    "conjugate expects a 2-part ciphertext");
    FXHENN_TELEM_SCOPED_TIMER("ckks.time.rotate.ns");
    FXHENN_TELEM_COUNT("ckks.op.rotate", 1);
    const std::uint64_t elt = context_.conjugateElt();
    FXHENN_FATAL_IF(!gk.has(elt), "missing conjugation key");

    return rotateFromDigits(a, decomposeKsw(a.parts[1]), elt,
                            gk.keys.at(elt));
}

} // namespace fxhenn::ckks
