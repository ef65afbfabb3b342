#include "src/analysis/verifier.hpp"

#include "src/analysis/pass_manager.hpp"
#include "src/common/assert.hpp"

namespace fxhenn::analysis {

AnalysisReport
verifyPlan(const hecnn::HeNetworkPlan &plan)
{
    return PassManager::standard().run(plan);
}

void
verifyPlanOrThrow(const hecnn::HeNetworkPlan &plan,
                  const std::string &origin)
{
    const AnalysisReport report = verifyPlan(plan);
    if (report.errorCount() == 0)
        return;
    throw ConfigError("plan verification failed (" + origin + "):\n" +
                      report.toText());
}

} // namespace fxhenn::analysis
