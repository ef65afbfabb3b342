/**
 * @file
 * The analysis-pass interface and the shared facts every pass sees.
 *
 * A pass is a stateless dataflow check over one HeNetworkPlan; the
 * PassManager runs a pipeline of them and merges their findings into
 * one AnalysisReport. Passes never mutate the plan and never throw on
 * malformed input — a hostile plan produces diagnostics, not crashes,
 * so the verifier can always report *all* problems it finds.
 */
#ifndef FXHENN_ANALYSIS_PASS_HPP
#define FXHENN_ANALYSIS_PASS_HPP

#include <vector>

#include "src/analysis/diagnostic.hpp"
#include "src/hecnn/plan.hpp"
#include "src/hecnn/plan_interp.hpp"

namespace fxhenn::analysis {

/**
 * Precomputed facts shared by the passes, derived once per run.
 *
 * The interpreter domain holds the exact primes a CkksContext would
 * generate for plan.params, so the passes that replay the plan
 * (hecnn::interpretPlan) predict the evaluator's double arithmetic
 * bit-for-bit without ever building NTT tables or keys.
 */
struct PlanFacts
{
    const hecnn::HeNetworkPlan &plan;
    std::size_t slots = 0;       ///< params.n / 2
    hecnn::InterpDomain domain{}; ///< scale + prime chain (params valid)
    bool paramsValid = false;

    /** @return true when @p reg indexes the plan's register file. */
    bool
    regOk(std::int32_t reg) const
    {
        return reg >= 0 && reg < plan.regCount;
    }

    /** @return true when @p pt indexes the plaintext pool. */
    bool
    ptOk(std::int32_t pt) const
    {
        return pt >= 0 &&
               pt < static_cast<std::int32_t>(plan.plaintexts.size());
    }
};

/** Derive the shared facts for @p plan (never throws). */
PlanFacts makePlanFacts(const hecnn::HeNetworkPlan &plan);

/** One static check over the plan IR. */
class AnalysisPass
{
  public:
    virtual ~AnalysisPass() = default;

    /** Stable identifier used in diagnostics ("def-use", ...). */
    virtual const char *name() const = 0;

    /** One-line description for `fxhenn lint --list-passes`. */
    virtual const char *description() const = 0;

    /** Append this pass's findings for @p facts to @p report. */
    virtual void run(const PlanFacts &facts,
                     AnalysisReport &report) const = 0;
};

} // namespace fxhenn::analysis

#endif // FXHENN_ANALYSIS_PASS_HPP
