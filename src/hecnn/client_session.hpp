/**
 * @file
 * The client role of the MLaaS split (Sec. I): key generation, input
 * packing + encryption, output decryption + logit extraction.
 *
 * A ClientSession owns everything derived from the secret key for one
 * (plan, context) pair: the secret/public keys, the relinearization
 * key and the Galois keys for every rotation step the plan uses. The
 * evaluation keys are exposed by const reference so any number of
 * PlanExecutors (server role) can borrow them concurrently; the secret
 * key never leaves the session.
 *
 * Thread-safety: immutable after construction. encryptInput() derives
 * an independent noise stream per requestIndex, so concurrent requests
 * encrypt deterministically — request r of a batch produces bitwise
 * the same ciphertexts whether it runs serially or on a worker pool.
 */
#ifndef FXHENN_HECNN_CLIENT_SESSION_HPP
#define FXHENN_HECNN_CLIENT_SESSION_HPP

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/ckks/decryptor.hpp"
#include "src/ckks/encoder.hpp"
#include "src/ckks/encryptor.hpp"
#include "src/ckks/keygen.hpp"
#include "src/hecnn/plan.hpp"
#include "src/nn/tensor.hpp"

namespace fxhenn::hecnn {

/** Client-side key material + codec for one compiled HE-CNN. */
class ClientSession
{
  public:
    /**
     * Generate all key material for @p plan (public, relinearization,
     * and the Galois keys for every rotation step the plan uses) from
     * @p seed. Throws ConfigError for a values-elided plan or one
     * with no batch lane.
     */
    ClientSession(const HeNetworkPlan &plan,
                  const ckks::CkksContext &context,
                  std::uint64_t seed = 1);

    const HeNetworkPlan &plan() const { return plan_; }
    const ckks::CkksContext &context() const { return context_; }

    /** Evaluation keys, shared read-only with the server role. */
    const ckks::RelinKey &relinKey() const { return relin_; }
    const ckks::GaloisKeys &galoisKeys() const { return galois_; }

    /** Number of Galois keys generated (rotation key footprint). */
    std::size_t galoisKeyCount() const { return galois_.keys.size(); }

    /** Batch lane count B of the plan (1 = unbatched). */
    std::size_t batchLanes() const { return plan_.batchLanes; }

    /**
     * Check @p input against the plan's gather spec without encrypting
     * anything; throws the same ConfigError encryptInput would. The
     * engine pre-validates batch members with this so one malformed
     * request degrades alone instead of poisoning its batch.
     */
    void validateInput(const nn::Tensor &input) const;

    /**
     * Deterministic encryption-stream key for a batch composed of
     * @p memberIndices (per-request indices, in lane order): a
     * splitmix64 fold, so any distinct member composition draws an
     * independent noise stream and the same composition reproduces
     * bitwise. A single-member fold of {r} is r itself, so a batch
     * of one draws request r's stream.
     */
    static std::uint64_t batchRequestKey(
        std::span<const std::uint64_t> memberIndices);

    /**
     * Pack B = batchLanes() member inputs lane-wise per the plan's
     * stride-B gather spec and encrypt the shared ciphertexts: member
     * b's element e lands at physical slot s*B + b where the gather
     * places e at lane-0 slot s*B. A null member pointer leaves its
     * lane zeroed (partial batch). @p requestKey selects the noise
     * stream — pass batchRequestKey() over the member indices.
     * Throws ConfigError when inputs.size() != batchLanes() or any
     * non-null member fails validateInput().
     */
    std::vector<ckks::Ciphertext> encryptInputBatch(
        std::span<const nn::Tensor *const> inputs,
        std::uint64_t requestKey) const;

    /**
     * Decrypt the output registers once and demux the per-lane logits:
     * result[b][e] is member b's logit e, read from physical slot
     * outputLayout.pos[e].slot + b. The demux is pure slot extraction
     * — no arithmetic — so each member's logits are a deterministic
     * function of the shared ciphertexts.
     */
    std::vector<std::vector<double>> decryptLogitsBatch(
        std::span<const std::optional<ckks::Ciphertext>> regs) const;

    /**
     * One request as a batch of one: encryptInputBatch() with
     * @p input in lane 0, every other lane zeroed, and @p requestIndex
     * as the request key (batchRequestKey({r}) == r). Distinct indices
     * give statistically independent encryption randomness.
     */
    std::vector<ckks::Ciphertext> encryptInput(
        const nn::Tensor &input, std::uint64_t requestIndex = 0) const;

    /** Lane 0 of decryptLogitsBatch(): the logits of a batch of one. */
    std::vector<double> decryptLogits(
        std::span<const std::optional<ckks::Ciphertext>> regs) const;

    /**
     * Measured headroom over the output registers of @p regs: min of
     * ckks::headroomBits(). Negative means the logits are garbage.
     */
    double outputHeadroomBits(
        std::span<const std::optional<ckks::Ciphertext>> regs) const;

    /**
     * Measured headroom of one ciphertext (ckks::headroomBits with
     * this session's secret key). The noise differential tests probe
     * intermediate layers with it; production servers never see this
     * side of the split.
     */
    double headroomBits(const ckks::Ciphertext &ct) const;

  private:
    const HeNetworkPlan &plan_;
    const ckks::CkksContext &context_;
    std::uint64_t seed_;
    std::size_t minInputElements_ = 0; ///< from the gather spec
    Rng rng_; ///< key-generation stream only
    ckks::KeyGenerator keygen_;
    ckks::Encoder encoder_;
    ckks::Encryptor encryptor_;
    ckks::Decryptor decryptor_;
    ckks::RelinKey relin_;
    ckks::GaloisKeys galois_;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_CLIENT_SESSION_HPP
