/**
 * @file
 * Hand-built plan fixtures for the verifier tests.
 *
 * tinyPlan() is the smallest plan the standard pipeline accepts with
 * zero findings; the per-pass negative tests each apply one minimal
 * mutation to it and assert the matching pass (and only the intended
 * check) fires.
 */
#ifndef FXHENN_TESTS_ANALYSIS_PLAN_FIXTURES_HPP
#define FXHENN_TESTS_ANALYSIS_PLAN_FIXTURES_HPP

#include <string>

#include "src/analysis/diagnostic.hpp"
#include "src/analysis/pass_manager.hpp"
#include "src/ckks/params.hpp"
#include "src/hecnn/plan.hpp"

namespace fxhenn::analysis::fixtures {

/** One clean layer: r1 = rescale(r0 * pt0), output in r1. */
inline hecnn::HeNetworkPlan
tinyPlan()
{
    using hecnn::HeOpKind;
    hecnn::HeNetworkPlan plan;
    plan.name = "tiny";
    plan.params = ckks::testParams(1024, 4, 30);
    const std::size_t slots = plan.params.n / 2;
    plan.regCount = 3;
    plan.inputGather.emplace_back(slots, -1);
    plan.inputGather[0][0] = 0;

    hecnn::PlanPlaintext pt;
    pt.values.assign(slots, 0.5);
    pt.level = plan.params.levels;
    pt.atSchemeScale = true;
    plan.plaintexts.push_back(std::move(pt));

    hecnn::HeLayerPlan layer;
    layer.name = "L0";
    layer.levelIn = plan.params.levels;
    layer.levelOut = plan.params.levels - 1;
    layer.nIn = 1;
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::rescale, 1, 1, -1, 0});
    layer.outputLayout.pos.emplace_back(1, 0);
    layer.outputLayout.regs.push_back(1);
    plan.layers.push_back(std::move(layer));

    plan.outputLayout = plan.layers.back().outputLayout;
    return plan;
}

/** Run a single pass over @p plan. */
inline AnalysisReport
runPass(std::unique_ptr<AnalysisPass> pass,
        const hecnn::HeNetworkPlan &plan)
{
    PassManager pm;
    pm.add(std::move(pass));
    return pm.run(plan);
}

/** @return true when any diagnostic message contains @p needle. */
inline bool
hasMessage(const AnalysisReport &report, const std::string &needle)
{
    for (const auto &d : report.diagnostics()) {
        if (d.message.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** Count findings of @p severity. */
inline std::size_t
countSeverity(const AnalysisReport &report, Severity severity)
{
    return report.count(severity);
}

} // namespace fxhenn::analysis::fixtures

#endif // FXHENN_TESTS_ANALYSIS_PLAN_FIXTURES_HPP
