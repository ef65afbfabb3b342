/**
 * @file
 * Plan-aware runtime guard. Everything it predicts depends only on the
 * plan, so it is computed once, at construction, by one interpretPlan()
 * replay and one certifyPlan() call:
 *
 *   - the (level, scale, parts) shape of every register at each layer
 *     end, in the evaluator's exact double arithmetic, so a healthy
 *     run's ciphertext tags match bit for bit;
 *   - the static findings raised before an instruction runs (operands
 *     written, levels, scales and part counts compatible);
 *   - each layer's noise-budget sample and its static layer-end finding
 *     (levelOut metadata, exhausted headroom).
 *
 * Per request, the executor only raises the stored findings and
 * compares the live ciphertexts against the stored shapes at each
 * layer end: a dropped rescale, perturbed scale or corrupted register
 * shows up as divergence there.
 */
#ifndef FXHENN_HECNN_GUARD_HPP
#define FXHENN_HECNN_GUARD_HPP

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/ckks/ciphertext.hpp"
#include "src/ckks/context.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/plan_interp.hpp"
#include "src/robustness/guard.hpp"

namespace fxhenn::hecnn {

/** A violation the guard predicts before an instruction executes. */
struct GuardFinding
{
    std::size_t instr = 0; ///< index into the layer's instrs
    const char *op = "";   ///< opName() of that instruction
    std::string reason;
};

/** Once-per-plan guard prediction, owned by a PlanExecutor. */
class RuntimeGuard
{
  public:
    /**
     * Replay @p plan over @p context's scale and prime chain and
     * certify it at GuardOptions::messageBits. An invalid certificate
     * (e.g. a malformed plan that still executes) degrades gracefully
     * to the noise-free headroom formula.
     */
    RuntimeGuard(const HeNetworkPlan &plan,
                 const ckks::CkksContext &context,
                 robustness::GuardOptions options);

    const robustness::GuardOptions &options() const { return options_; }

    /** Findings of layer @p layer, in instruction order. */
    std::span<const GuardFinding> findings(std::size_t layer) const
    {
        return layers_[layer].findings;
    }

    /**
     * Layer-end check of layer @p layer: compare every predicted
     * register against the actual ciphertexts, then report the layer's
     * static finding. @return the first violation found, or nullopt.
     */
    std::optional<std::string> checkLayerEnd(
        std::size_t layer,
        std::span<const std::optional<ckks::Ciphertext>> regs) const;

    /** Predicted budget samples of the first @p layers layers. */
    std::vector<robustness::BudgetSample>
    trajectory(std::size_t layers) const
    {
        return {budget_.begin(),
                budget_.begin() + static_cast<std::ptrdiff_t>(layers)};
    }

  private:
    struct LayerPrediction
    {
        std::vector<GuardFinding> findings;
        std::vector<RegShape> shapes; ///< register file at layer end
        std::optional<std::string> endFinding;
    };

    robustness::GuardOptions options_;
    std::vector<LayerPrediction> layers_;
    std::vector<robustness::BudgetSample> budget_;
};

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_GUARD_HPP
