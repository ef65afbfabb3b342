/**
 * @file
 * Homomorphic evaluation for RNS-CKKS.
 *
 * Implements the HE operations of the paper's Table I:
 *   OP1 CCadd, OP2 PCmult, OP3 CCmult, OP4 Rescale,
 *   OP5 KeySwitch (Relinearize and Rotate).
 * The evaluator also counts how often each operation runs, which the
 * HE-CNN compiler cross-checks against its static HOP model (Table IV,
 * Table VI, Table VII "HOP"/"KS" columns).
 */
#ifndef FXHENN_CKKS_EVALUATOR_HPP
#define FXHENN_CKKS_EVALUATOR_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/ckks/ciphertext.hpp"
#include "src/ckks/context.hpp"
#include "src/ckks/keys.hpp"
#include "src/ckks/plaintext.hpp"

namespace fxhenn::ckks {

/** Dynamic HE-operation counters (HOPs executed so far). */
struct OpCounts
{
    std::uint64_t ccAdd = 0;
    std::uint64_t pcAdd = 0;
    std::uint64_t pcMult = 0;
    std::uint64_t ccMult = 0;
    std::uint64_t rescale = 0;
    std::uint64_t relinearize = 0;
    std::uint64_t rotate = 0;

    /** Total HE operation count (the paper's "HOP"). */
    std::uint64_t
    total() const
    {
        return ccAdd + pcAdd + pcMult + ccMult + rescale + relinearize +
               rotate;
    }

    /** KeySwitch count (the paper's "KS" = Relinearize + Rotate). */
    std::uint64_t keySwitch() const { return relinearize + rotate; }

    void
    reset()
    {
        *this = OpCounts{};
    }
};

/**
 * Keyswitch inner-product reduction strategy.
 *
 * lazy (the default) accumulates the digit inner product in 128-bit
 * lanes and Barrett-reduces once per limb (Modulus::reduceWide);
 * eager reduces every FMA like the original implementation. Both land
 * on the canonical representative in [0, q) for every coefficient, so
 * the two modes are bitwise identical — eager exists as the reference
 * side of that differential.
 */
enum class KswMode {
    eager, ///< reduce every FMA (reference path)
    lazy,  ///< 128-bit deferred reduction, once per limb
};

/**
 * Stateless homomorphic operation engine (counters aside).
 *
 * Thread-safety: the only mutable state is the OpCounts member, which
 * is plain (non-atomic) on purpose — an Evaluator is meant to be
 * per-request/per-thread, so counter updates never contend and the hot
 * path stays branch-free. Construction is cheap (one context
 * reference), so concurrent executors each create their own instead of
 * sharing one. The CkksContext, key structs and Plaintext operands are
 * read-only here and safe to share across any number of Evaluators.
 */
class Evaluator
{
  public:
    explicit Evaluator(const CkksContext &context,
                       KswMode kswMode = KswMode::lazy);

    // --- additive ops ----------------------------------------------------

    /** OP1: ciphertext + ciphertext (levels and scales must match). */
    Ciphertext add(const Ciphertext &a, const Ciphertext &b);
    /** a += b in place. */
    void addInplace(Ciphertext &a, const Ciphertext &b);
    /** ciphertext - ciphertext. */
    Ciphertext sub(const Ciphertext &a, const Ciphertext &b);
    /** ciphertext + plaintext. */
    Ciphertext addPlain(const Ciphertext &a, const Plaintext &p);
    void addPlainInplace(Ciphertext &a, const Plaintext &p);
    /** Negate. */
    Ciphertext negate(const Ciphertext &a);

    /**
     * Sum many ciphertexts by balanced tree reduction (log-depth noise
     * growth instead of linear; the accumulation pattern of the conv
     * layers). All operands must share level and scale.
     */
    Ciphertext addMany(std::span<const Ciphertext> operands);

    /**
     * Multiply by a small integer constant in place without consuming
     * a level or changing the scale (repeated residue multiplication).
     * Useful for power-of-two gains and averaging denominators.
     */
    void mulScalarInplace(Ciphertext &a, std::int64_t scalar);

    // --- multiplicative ops ----------------------------------------------

    /** OP2: plaintext-ciphertext multiply; scales multiply. */
    Ciphertext mulPlain(const Ciphertext &a, const Plaintext &p);
    void mulPlainInplace(Ciphertext &a, const Plaintext &p);

    /**
     * OP3: ciphertext-ciphertext multiply producing a 3-part ciphertext;
     * relinearize() must follow before further multiplies/rotations.
     */
    Ciphertext mulNoRelin(const Ciphertext &a, const Ciphertext &b);

    /** OP3 + OP5: multiply then relinearize. */
    Ciphertext mul(const Ciphertext &a, const Ciphertext &b,
                   const RelinKey &rk);

    /** Homomorphic square (the HE-CNN activation), relinearized. */
    Ciphertext square(const Ciphertext &a, const RelinKey &rk);

    /** OP5 (Relinearize): 3-part -> 2-part. */
    Ciphertext relinearize(const Ciphertext &a, const RelinKey &rk);

    // --- maintenance ops ---------------------------------------------

    /** OP4: drop the last prime and divide the scale by it. */
    Ciphertext rescale(const Ciphertext &a);
    void rescaleInplace(Ciphertext &a);

    /** Drop primes without scaling until @p level is reached. */
    Ciphertext modSwitchToLevel(const Ciphertext &a, std::size_t level);

    /** Exactly set the scale tag (used after rescale rounding). */
    static void setScale(Ciphertext &a, double scale) { a.scale = scale; }

    // --- rotations ------------------------------------------------------

    /** OP5 (Rotate): cyclic left rotation of the slot vector. */
    Ciphertext rotate(const Ciphertext &a, int steps,
                      const GaloisKeys &gk);

    /**
     * Hoisted rotations (Halevi-Shoup): compute several rotations of
     * the same ciphertext while performing the expensive c1
     * decomposition (INTT + per-prime base extension) only once —
     * the automorphism commutes with the RNS decomposition, so the
     * extended limbs are rotated instead of the ciphertext. Exactly
     * the access pattern the rotate-and-sum dense layers need.
     *
     * @return one ciphertext per entry of @p steps (step 0 allowed).
     */
    std::vector<Ciphertext> rotateHoisted(const Ciphertext &a,
                                          const std::vector<int> &steps,
                                          const GaloisKeys &gk);

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext &a, const GaloisKeys &gk);

    // --- introspection ----------------------------------------------------

    const OpCounts &counts() const { return counts_; }
    void resetCounts() { counts_.reset(); }
    KswMode kswMode() const { return kswMode_; }

  private:
    /**
     * ModUp half of the hybrid key switch: decompose NTT-domain @p d
     * (level L, no special limb) into L digits, each base-extended to
     * Q*p and NTT'd — one parallelFor over all L*(L+1) (digit, limb)
     * jobs. Digit i's own limb i is d's limb i as given, so a
     * decomposition costs L inverse and L*L forward NTTs. A rotation
     * group shares one decomposition across all its members
     * (Halevi-Shoup hoisting).
     */
    std::vector<RnsPoly> decomposeKsw(const RnsPoly &d);

    /**
     * Digit inner product with the key plus ModDown. @p perm, when
     * non-empty, applies a Galois automorphism to every digit in NTT
     * form as a gather fused into the FMA (the hoisted-rotation path).
     * Reduction strategy follows kswMode().
     */
    std::pair<RnsPoly, RnsPoly>
    keyswitchCore(const std::vector<RnsPoly> &digits, const KswKey &key,
                  std::span<const std::uint32_t> perm);

    /**
     * Hybrid key switch: given NTT-domain poly @p d decrypting under
     * s', produce NTT-domain (u0, u1) decrypting the same value under
     * s (up to ModDown noise).
     */
    std::pair<RnsPoly, RnsPoly> applyKsw(const RnsPoly &d,
                                         const KswKey &key);

    /** One rotation of @p a from an already-hoisted decomposition. */
    Ciphertext rotateFromDigits(const Ciphertext &a,
                                const std::vector<RnsPoly> &digits,
                                std::uint64_t elt, const KswKey &key);

    void checkSameShape(const Ciphertext &a, const Ciphertext &b) const;
    void checkScaleClose(double a, double b) const;
    void checkScaleSane(double scale) const;
    void checkScaleFits(double scale, std::size_t level) const;

    const CkksContext &context_;
    OpCounts counts_;
    KswMode kswMode_;
};

} // namespace fxhenn::ckks

#endif // FXHENN_CKKS_EVALUATOR_HPP
