/**
 * @file
 * Convenience entry points for the standard plan verification pipeline.
 *
 * Two call sites share this facade (docs/ARCHITECTURE.md Sec. 8):
 *  - `fxhenn lint` renders the full report for the user;
 *  - `--verify-plan 1` calls verifyPlanOrThrow() on every plan the CLI
 *    loads from disk, right after hecnn::loadPlan.
 */
#ifndef FXHENN_ANALYSIS_VERIFIER_HPP
#define FXHENN_ANALYSIS_VERIFIER_HPP

#include <string>

#include "src/analysis/diagnostic.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::analysis {

/** Run the standard pipeline (PassManager::standard()) over @p plan. */
AnalysisReport verifyPlan(const hecnn::HeNetworkPlan &plan);

/**
 * Run the standard pipeline and throw ConfigError when it finds any
 * error-severity diagnostic. @p origin names the caller (for example
 * "plan-load") and prefixes the exception message; the message body
 * is the full text report, so the failure is actionable.
 */
void verifyPlanOrThrow(const hecnn::HeNetworkPlan &plan,
                       const std::string &origin);

} // namespace fxhenn::analysis

#endif // FXHENN_ANALYSIS_VERIFIER_HPP
