/**
 * @file
 * Pass manager for the plan verifier.
 *
 * Owns an ordered pipeline of AnalysisPass instances and runs them
 * over one plan, collecting every finding into a single
 * AnalysisReport. The standard pipeline (standard()) is the contract
 * `fxhenn lint`, `--verify-plan` loads and the compile-check tests all
 * share.
 */
#ifndef FXHENN_ANALYSIS_PASS_MANAGER_HPP
#define FXHENN_ANALYSIS_PASS_MANAGER_HPP

#include <memory>
#include <vector>

#include "src/analysis/pass.hpp"

namespace fxhenn::analysis {

/** An ordered pipeline of analysis passes. */
class PassManager
{
  public:
    /** Append @p pass to the pipeline. */
    void add(std::unique_ptr<AnalysisPass> pass);

    /** The registered passes, in execution order. */
    const std::vector<std::unique_ptr<AnalysisPass>> &passes() const
    {
        return passes_;
    }

    /** Run every pass over @p plan and merge the findings. */
    AnalysisReport run(const hecnn::HeNetworkPlan &plan) const;

    /** The standard 8-pass verification pipeline. */
    static PassManager standard();

  private:
    std::vector<std::unique_ptr<AnalysisPass>> passes_;
};

/** Factories for the individual standard passes (test seams). */
std::unique_ptr<AnalysisPass> makeDefUsePass();
std::unique_ptr<AnalysisPass> makeScaleLevelPass();
std::unique_ptr<AnalysisPass> makeLivenessPass();
std::unique_ptr<AnalysisPass> makeRotationKeyPass();
std::unique_ptr<AnalysisPass> makeLayoutPass();
std::unique_ptr<AnalysisPass> makeNoiseBudgetPass();
std::unique_ptr<AnalysisPass> makeRescalePlacementPass();
std::unique_ptr<AnalysisPass> makeBatchLayoutPass();

} // namespace fxhenn::analysis

#endif // FXHENN_ANALYSIS_PASS_MANAGER_HPP
