/**
 * @file
 * Polynomials in RNS (double-CRT) representation.
 *
 * An RnsPoly is an element of R_Q = Z_Q[X]/(X^N + 1) stored as one limb
 * of N residues per active data prime, plus an optional extra limb for
 * the key-switching special prime. Each limb is independently in either
 * coefficient or NTT (evaluation) domain; the whole polynomial carries a
 * single domain tag, matching the per-RNS-polynomial processing the
 * paper's HE operation modules pipeline over (Sec. V-B).
 */
#ifndef FXHENN_RNS_RNS_POLY_HPP
#define FXHENN_RNS_RNS_POLY_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/rns/rns_basis.hpp"
#include "src/rns/workspace_pool.hpp"

namespace fxhenn {

/** Representation domain of an RnsPoly. */
enum class PolyDomain { coeff, ntt };

/** An element of R_{Q_level} (optionally extended by the special prime). */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /**
     * Construct the zero polynomial.
     *
     * @param basis       the RNS basis (must outlive the polynomial)
     * @param level       number of active data primes (1..basis.levels())
     * @param withSpecial also allocate the special-prime limb
     * @param domain      initial domain tag
     */
    RnsPoly(const RnsBasis &basis, std::size_t level,
            bool withSpecial = false, PolyDomain domain = PolyDomain::ntt);

    const RnsBasis &basis() const { return *basis_; }
    std::size_t level() const { return level_; }
    bool hasSpecial() const { return hasSpecial_; }
    PolyDomain domain() const { return domain_; }
    void setDomain(PolyDomain d) { domain_ = d; }
    std::uint64_t n() const { return basis_->n(); }

    /** Number of limbs including the special limb when present. */
    std::size_t limbCount() const { return limbs_.size(); }

    /** Mutable access to data limb @p i (special limb = index level()). */
    std::span<std::uint64_t> limb(std::size_t i);
    std::span<const std::uint64_t> limb(std::size_t i) const;

    /** Modulus of limb @p i (the special prime for i == level()). */
    const Modulus &limbModulus(std::size_t i) const;

    /** NTT tables of limb @p i. */
    const NttTables &limbNtt(std::size_t i) const;

    // --- element-wise arithmetic (operands must share basis/level/domain)

    /** this += other */
    void addInplace(const RnsPoly &other);
    /** this -= other */
    void subInplace(const RnsPoly &other);
    /** this = -this */
    void negateInplace();
    /** this *= other, element-wise; both must be in NTT domain. */
    void mulInplace(const RnsPoly &other);
    /** this += a * b, element-wise; all in NTT domain. */
    void addProduct(const RnsPoly &a, const RnsPoly &b);
    /** Multiply every limb j by scalar[j] (one scalar per limb). */
    void mulScalarPerLimb(std::span<const std::uint64_t> scalars);

    // --- domain conversion

    /** Convert all limbs coefficient -> NTT domain. */
    void toNtt();
    /** Convert all limbs NTT -> coefficient domain. */
    void fromNtt();

    // --- level management

    /**
     * Drop the last data prime with scaling: the RNS-CKKS Rescale core.
     * For each remaining limb j:
     *     c_j <- (c_j - [c_last]) * q_last^-1  (mod q_j)
     * where [c_last] is the centred representative of the dropped
     * limb. Works in the NTT domain: only the dropped limb is inverse
     * transformed (1 inverse + level()-1 forward NTTs), and the result
     * is bitwise the NTT of the coefficient-domain quotient. The
     * polynomial must be in NTT domain and have no special limb.
     * Decreases level() by one.
     */
    void rescaleLastPrime();

    /**
     * Exact divide-and-round by the special prime (hybrid key-switch
     * ModDown), in the NTT domain like rescaleLastPrime() (1 inverse +
     * level() forward NTTs). Requires NTT domain and a special limb;
     * removes the special limb.
     */
    void modDownSpecial();

    /** Drop the last data prime without scaling (ModSwitch). */
    void dropLastPrime();

    // --- sampling (all produce coefficient-domain polynomials)

    /** Fill with uniform residues (independent per limb); the same
     * draws as Rng::uniform(q) per coefficient. */
    void sampleUniform(Rng &rng);
    /** Fill with a shared ternary secret across all limbs. */
    void sampleTernary(Rng &rng);
    /** Fill with a shared centered Gaussian error across all limbs. */
    void sampleGaussian(Rng &rng, double sigma);

    /**
     * Set every limb to the residues of the signed integers @p values,
     * one per coefficient (coefficient domain). Exact for any int64;
     * when every |value| < q — the samplers' draws (|e| <= 28 at
     * sigma = 3.2, since Rng::gaussian stays below about 8.6 sigma) and
     * typical encodings — a limb is filled branch-free as
     * v + (q & (v >> 63)), else through Modulus::reduceSigned().
     */
    void setSigned(std::span<const std::int64_t> values);

    /**
     * Apply the Galois automorphism X -> X^galoisElt to a coefficient
     * domain polynomial. @p galoisElt must be odd.
     */
    RnsPoly galois(std::uint64_t galoisElt) const;

    /**
     * Apply a Galois automorphism to an NTT-domain polynomial as a
     * pure permutation of every limb: out.limb(i)[t] =
     * limb(i)[perm[t]]. The table comes from the context's Galois
     * cache (the automorphism permutes the odd 2N-th roots, so in
     * evaluation form it is a gather with no negations and no domain
     * round trip).
     */
    RnsPoly permuteNtt(std::span<const std::uint32_t> perm) const;

    bool operator==(const RnsPoly &other) const;

  private:
    void checkCompatible(const RnsPoly &other) const;

    /** NTT-domain divide-and-round of every other limb by the last
     * limb's modulus (the special prime when present, else the last
     * data prime); pops the last limb. */
    void divideByLastLimb();


    const RnsBasis *basis_ = nullptr;
    std::size_t level_ = 0;
    bool hasSpecial_ = false;
    PolyDomain domain_ = PolyDomain::ntt;
    /** Pooled storage: limb buffers recycle through the WorkspacePool. */
    std::vector<rns::PooledBuffer> limbs_;
};

} // namespace fxhenn

#endif // FXHENN_RNS_RNS_POLY_HPP
