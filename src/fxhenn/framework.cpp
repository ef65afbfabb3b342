#include "src/fxhenn/framework.hpp"

#include "src/common/assert.hpp"
#include "src/hecnn/compiler.hpp"

namespace fxhenn {

DesignSolution
Fxhenn::generate(const nn::Network &net, const ckks::CkksParams &params,
                 const fpga::DeviceSpec &device, const Options &options)
{
    hecnn::CompileOptions copts;
    copts.elideValues = options.elideValues;
    copts.matVec = options.matVec;
    auto plan = hecnn::compile(net, params, copts);

    auto result = dse::explore(plan, device, options.explore);
    FXHENN_FATAL_IF(!result.best.has_value(),
                    "no feasible design point for " + net.name() +
                        " on " + device.name);

    DesignSolution solution;
    solution.modelName = net.name();
    solution.deviceName = device.name;
    solution.params = params;
    solution.plan = std::move(plan);
    solution.design = *result.best;
    solution.dsePointsEvaluated = result.evaluated;
    solution.dsePointsPruned = result.pruned;
    solution.certifiedLevels = result.certifiedLevels;
    solution.minFeasibleLevels = result.minFeasibleLevels;
    solution.levelChoicesPruned = result.levelChoicesPruned;
    solution.certifiedMinHeadroomBits =
        result.certifiedMinHeadroomBits;
    solution.simReplay = std::move(result.simReplay);
    solution.simReplayMaxErrorFrac = result.simReplayMaxErrorFrac;
    return solution;
}

dse::BaselineResult
Fxhenn::generateBaseline(const nn::Network &net,
                         const ckks::CkksParams &params,
                         const fpga::DeviceSpec &device,
                         const Options &options)
{
    hecnn::CompileOptions copts;
    copts.elideValues = options.elideValues;
    copts.matVec = options.matVec;
    const auto plan = hecnn::compile(net, params, copts);
    return dse::allocateBaseline(plan, device);
}

} // namespace fxhenn
