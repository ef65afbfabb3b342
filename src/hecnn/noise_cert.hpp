/**
 * @file
 * Static noise-budget certifier over the plan IR.
 *
 * certifyPlan() is an interpretPlan() visitor (src/hecnn/plan_interp):
 * next to each register's shared (level, scale, parts) shape it carries
 * a noise bound under the ckks::NoiseModel growth rules (fresh
 * encryption, pcMult / add / square / keyswitch / rescale) over the
 * exact NTT prime chain, and emits a per-layer certificate: the
 * worst-case noise trajectory and the minimum modulus headroom any
 * execution can have. A negative
 * certified headroom means the plan can overflow the modulus for some
 * in-spec input — `fxhenn lint` refuses such plans (exit 4) and
 * hecnn::compile's self-check rejects them before they are saved.
 *
 * The certificate is also the contract the runtime checks against:
 * RuntimeGuard takes its per-layer budget samples from it, and the
 * differential tests assert measured headroom >= certified headroom at
 * every layer of every zoo model. This file lives in src/hecnn (not src/analysis)
 * because fxhenn_analysis links fxhenn_hecnn, never the reverse; the
 * analysis NoiseBudgetPass is a thin wrapper over certifyPlan().
 */
#ifndef FXHENN_HECNN_NOISE_CERT_HPP
#define FXHENN_HECNN_NOISE_CERT_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** Knobs for the static certifier. */
struct CertifyOptions
{
    /**
     * log2 of the maximum |message| the client promises per slot.
     * Matches robustness::GuardOptions::messageBits (zoo inputs are
     * normalized well below 1.0).
     */
    double messageBits = -2.0;

    /**
     * Certify the plan as if it ran with `levelShift` fewer data
     * primes: plan level l maps to l - levelShift over a freshly
     * generated (levels - levelShift)-prime chain. Used by the DSE
     * explorer to find the shortest modulus chain a plan still
     * certifies on.
     */
    std::size_t levelShift = 0;
};

/** Certified worst-case bound at one layer boundary. */
struct LayerNoiseBound
{
    std::string layer;
    std::size_t level = 0;      ///< effective level after the layer
    double scaleBits = 0.0;     ///< log2(max output register scale)
    double noiseBits = 0.0;     ///< log2 worst-case coefficient noise
    /** min over output registers of logQ(level)-1 - logAdd(message,
     *  noise); negative = the modulus can overflow here. */
    double headroomBits = 0.0;
};

/** The full certificate for one plan. */
struct NoiseCertificate
{
    std::string plan;         ///< plan name
    bool valid = false;       ///< false: certification itself failed
    std::string invalidReason;
    double messageBits = 0.0; ///< assumption baked into the bound
    std::size_t levels = 0;   ///< effective modulus-chain length
    std::vector<LayerNoiseBound> layers;
    double minHeadroomBits = 0.0; ///< min over layers (0 if no layers)

    /** Artifact traceability (set by callers that loaded a file). */
    std::string artifactPath;
    std::uint32_t artifactCrc32 = 0;
    bool hasArtifact = false;

    /** True when the plan is certified safe: valid and headroom >= 0. */
    bool certified() const { return valid && minHeadroomBits >= 0.0; }

    /** Human-readable trajectory table. */
    std::string renderText() const;

    /** Machine-readable certificate ("fxhenn-noise-cert-v1"). */
    std::string renderJson() const;
};

/**
 * Statically certify @p plan. Never throws: any internal failure
 * (invalid params, malformed register use, level underflow under a
 * levelShift) is reported as valid = false with a reason.
 */
NoiseCertificate certifyPlan(const HeNetworkPlan &plan,
                             const CertifyOptions &opts = {});

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_NOISE_CERT_HPP
