/**
 * @file
 * Certified waterline rescale re-placement over the plan IR.
 *
 * The compiler emits one Rescale per pcMult (eager placement). That is
 * simple and always safe, but in accumulation trees it pays the O(N L)
 * rescale cost once per tap when once per accumulator would do: the
 * adds commute with the division. rewriteRescales() sinks each rescale
 * down the instruction stream ("waterline" style: values ride at the
 * pre-rescale scale until something actually needs the post-rescale
 * form) and merges deferred rescales that meet at a ccAdd, so a K-tap
 * accumulation needs one rescale instead of K.
 *
 * The rewrite is *certified*: the rewritten plan is accepted only when
 * the static noise certifier (noise_cert.hpp) proves its minimum
 * headroom is no worse than the original's and the rescale count
 * strictly drops. Otherwise the plan is left byte-identical and the
 * summary says why (`fxhenn lint --rewrite 1` then lints the result). Deferral deliberately stops at keyswitch reads: sinking a
 * rescale past a Rotate would run the keyswitch at the higher level
 * and cost more than the rescale saves.
 */
#ifndef FXHENN_HECNN_RESCALE_REWRITER_HPP
#define FXHENN_HECNN_RESCALE_REWRITER_HPP

#include <cstdint>
#include <string>

#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::hecnn {

/** Outcome of one rewriteRescales() run. */
struct RewriteSummary
{
    bool applied = false; ///< true: the plan was mutated
    std::string reason;   ///< why the rewrite was rejected (if so)
    std::uint64_t rescalesBefore = 0;
    std::uint64_t rescalesAfter = 0;
    double minHeadroomBefore = 0.0; ///< certified, original plan
    double minHeadroomAfter = 0.0;  ///< certified, rewritten plan

    /** One-line human-readable report (the certificate diff). */
    std::string describe() const;
};

/**
 * Re-place rescales in @p plan (waterline sinking + ccAdd merging) and
 * mutate it in place only when the certifier proves the rewritten
 * plan's minimum headroom >= the original's and at least one rescale
 * was eliminated. Never throws; a failed certification leaves @p plan
 * untouched with the reason in the summary.
 *
 * @param copts certify options used for both before/after certificates
 */
RewriteSummary rewriteRescales(HeNetworkPlan &plan,
                               const CertifyOptions &copts = {});

} // namespace fxhenn::hecnn

#endif // FXHENN_HECNN_RESCALE_REWRITER_HPP
