/**
 * @file
 * The HE-CNN compiler: lowers a plaintext CNN to an HeNetworkPlan.
 *
 * Packing strategy (LoLa-style, Sec. II-B and Listing 1 of the paper):
 *
 *  - First-layer convolution ("tap packing"): one input ciphertext per
 *    kernel tap; slot (f * P + p) of tap ciphertext i holds the input
 *    pixel that tap i needs for output position p. The layer is then a
 *    single loop of PCmult / Rescale / CCadd over the taps — an NKS
 *    layer (75 HOPs for LoLa-MNIST Cnv1, matching Table IV).
 *
 *  - Square activation: CCmult + Relinearize + Rescale per ciphertext
 *    (a KS layer via Relinearize).
 *
 *  - Dense (and mid-network convolution via implicit im2col): the
 *    rotate-and-sum matrix-vector product of Sec. V-A. When the input is
 *    one ciphertext with contiguous elements, the vector is replicated
 *    into vpad-slot blocks and the layer uses the Halevi-Shoup hybrid
 *    diagonal lowering: every block computes Rp rows from Rp packed
 *    diagonals, the Rp rotations of the replicated input run
 *    baby-step/giant-step (the baby steps are one run of same-source
 *    rotations, so they execute hoisted; the giant-step diagonals are
 *    pre-rotated), and a log2(vpad/Rp) rotate-and-sum folds each block.
 *    Rp = 1 is LoLa's lowering: one row per block, whole row groups per
 *    PCmult + log2(vpad) Rotate/CCadd pipeline. A per-layer analytic
 *    cost model (keyswitches weighted by level, a hoisted baby step
 *    cheaper than a full rotation) picks Rp and the baby-step count;
 *    CompileOptions::matVec = lola pins Rp = 1 for the paper
 *    reproduction. Any other input layout reduces each row with a
 *    full-width rotate-and-sum. All are KS layers dominated by Rotate.
 *
 * Non-final dense layers merge their scattered row results into one
 * ciphertext with mask multiplies (one extra level); the final layer
 * leaves results scattered so the total depth fits L = 7 (Sec. VII-A).
 * The cost-model lowering masks each block and rotates it into place,
 * so row r lands in slot r and the next dense layer can take the
 * replicated path again; LoLa leaves row g*copies+k at slot k*vpad+g.
 */
#ifndef FXHENN_HECNN_COMPILER_HPP
#define FXHENN_HECNN_COMPILER_HPP

#include "src/ckks/params.hpp"
#include "src/hecnn/plan.hpp"
#include "src/nn/network.hpp"

namespace fxhenn::hecnn {

/** How replicated dense layers are lowered (CompileOptions::matVec). */
enum class MatVecLowering
{
    costModel, ///< diagonal BSGS, shape chosen per layer by cost
    lola,      ///< one output row per replica block (the paper's)
};

/** Compiler knobs. */
struct CompileOptions
{
    /**
     * Build a statistics-only plan: plaintext payloads are dropped
     * (counts, levels and layouts stay exact). Needed for CIFAR10-scale
     * plans whose packed weights would occupy hundreds of megabytes.
     */
    bool elideValues = false;

    /**
     * Decompose arbitrary rotation amounts (the dense layers' group
     * offsets) into power-of-two steps. Trades a few extra Rotate HOPs
     * for a logarithmic Galois key count — each rotation key is
     * 2L(L+1)N words (Table VI scale), so key material shrinks
     * substantially for wide dense layers.
     */
    bool decomposeRotations = false;

    /**
     * Run the plan verifier over the lowered plan before returning it
     * (a miscompile becomes a ConfigError at the compiler's doorstep
     * instead of garbage at decrypt time). Defaults to on in debug
     * builds; a no-op when no verifier is linked in — see
     * plan_check.hpp.
     */
#ifdef NDEBUG
    bool selfCheck = false;
#else
    bool selfCheck = true;
#endif

    /**
     * Re-place rescales with the certified waterline rewriter
     * (rescale_rewriter.hpp): sink each eager per-tap rescale to its
     * first use and merge deferred rescales at accumulation adds. The
     * rewrite is applied only when the static noise certifier proves
     * the rewritten plan's minimum headroom is no worse and the
     * rescale count strictly drops; otherwise the plan is unchanged.
     */
    bool rescaleWaterline = false;

    /**
     * Run the static noise-budget certifier (noise_cert.hpp) over the
     * lowered plan and refuse (ConfigError) any plan whose certified
     * minimum headroom is negative — i.e. a plan that can overflow the
     * modulus for an in-spec input. Same default policy as selfCheck.
     */
#ifdef NDEBUG
    bool certifyNoise = false;
#else
    bool certifyNoise = true;
#endif

    /**
     * Cross-request slot batching factor B: compile the network into
     * (N/2)/B virtual slots per request and interleave B independent
     * requests lane-wise in shared ciphertexts (request b's virtual
     * slot s maps to physical slot s*B + b). Weight plaintexts are
     * broadcast across lanes, rotations become stride-B (provably
     * lane-preserving, including the cyclic wraparound, because
     * B divides N/2), and the batch-layout lint pass rejects any
     * lane-crossing artifact. B = 1 (the default) is bit-identical to
     * the unbatched compiler. B must divide N/2 and leave enough
     * virtual slots for the network's widest layer (ConfigError
     * otherwise).
     */
    std::size_t batchLanes = 1;

    /**
     * Lowering of replicated (one contiguous input ciphertext) dense
     * layers. costModel picks the rows-per-block and baby-step counts
     * of the diagonal BSGS lowering per layer; lola pins one row per
     * block, the paper's LoLa-style packing, whose op counts the
     * table/figure reproduction benches report.
     */
    MatVecLowering matVec = MatVecLowering::costModel;
};

/** Lower @p net under CKKS parameters @p params. */
HeNetworkPlan compile(const nn::Network &net,
                      const ckks::CkksParams &params,
                      const CompileOptions &options = {});

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_COMPILER_HPP
