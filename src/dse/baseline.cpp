#include "src/dse/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/assert.hpp"

namespace fxhenn::dse {

namespace {

using fpga::HeOpModule;
using fpga::ModuleAllocation;

/**
 * Pick the fastest allocation for one layer within (dspBudget,
 * bramBudget) by scanning the same knob ranges as the full DSE but
 * independently per layer.
 */
ModuleAllocation
allocateLayer(const fpga::LayerWork &layer, std::uint64_t n,
              double dspBudget, double bramBudget)
{
    // The DSP budget is a hard constraint; buffers that exceed the
    // layer's BRAM share spill to DRAM inside evaluateLayer and slow
    // the layer down, so the search trades parallelism against spill.
    ModuleAllocation best;
    double best_cycles = -1.0;

    for (unsigned nc : {2u, 4u, 8u}) {
        for (unsigned ks_intra = 1; ks_intra <= 7; ++ks_intra) {
            for (unsigned ks_inter = 1; ks_inter <= 6; ++ks_inter) {
                for (unsigned rs_intra = 1; rs_intra <= 7;
                     rs_intra += 2) {
                    ModuleAllocation alloc;
                    alloc[HeOpModule::ccAdd] = {nc, 1, 1};
                    alloc[HeOpModule::pcMult] = {nc, 1, 1};
                    alloc[HeOpModule::ccMult] = {nc, 1, 1};
                    alloc[HeOpModule::rescale] = {nc, rs_intra, 1};
                    alloc[HeOpModule::keySwitch] = {nc, ks_intra,
                                                    ks_inter};
                    const auto perf = fpga::evaluateLayer(
                        layer, n, alloc, bramBudget);
                    if (perf.dsp > dspBudget)
                        continue;
                    if (best_cycles < 0.0 ||
                        perf.cycles < best_cycles) {
                        best_cycles = perf.cycles;
                        best = alloc;
                    }
                }
            }
        }
    }
    FXHENN_FATAL_IF(best_cycles < 0.0,
                    "baseline: no feasible allocation for layer " +
                        layer.name + " within its resource share");
    return best;
}

} // namespace

BaselineResult
allocateBaseline(const hecnn::HeNetworkPlan &plan,
                 const fpga::DeviceSpec &device)
{
    FXHENN_FATAL_IF(plan.layers.empty(), "empty plan");
    const std::size_t layers = plan.layers.size();
    const std::vector<fpga::LayerWork> work = fpga::summarizeLayers(plan);
    const double bram_cap =
        device.effectiveBramBlocks(plan.params.n / 4);

    // Blended shares: half the chip divided equally, half divided by
    // HE-MAC workload — the "intuitive allocation that favors heavily
    // burdened layers" of Sec. VII-C without starving the small ones.
    // A layer whose buffers exceed its share spills to DRAM (this is
    // exactly why Table II's 206 % aggregate demand forces the
    // baseline to be slow).
    std::vector<double> weight;
    double total = 0.0;
    for (const auto &layer : work) {
        const double w = std::max(
            fpga::layerModMuls(layer, plan.params.n), 1.0);
        weight.push_back(w);
        total += w;
    }
    for (auto &w : weight)
        w = 0.5 / static_cast<double>(layers) + 0.5 * (w / total);

    // DSP cannot spill: every layer is guaranteed the slices of its
    // minimum (all-knobs-at-one) module set, and only the surplus is
    // divided proportionally.
    std::vector<double> min_dsp(layers);
    double min_dsp_total = 0.0;
    for (std::size_t i = 0; i < layers; ++i) {
        ModuleAllocation floor_alloc;
        for (auto &op : floor_alloc.ops)
            op = {2, 1, 1};
        min_dsp[i] = fpga::evaluateLayer(work[i], plan.params.n,
                                         floor_alloc)
                         .dsp;
        min_dsp_total += min_dsp[i];
    }
    FXHENN_FATAL_IF(min_dsp_total > device.dspSlices,
                    "baseline (no module reuse) exceeds the device DSP "
                    "capacity even at minimum parallelism");
    const double spare_dsp = device.dspSlices - min_dsp_total;

    BaselineResult result;
    std::vector<double> limits;
    for (std::size_t i = 0; i < layers; ++i) {
        limits.push_back(weight[i] * bram_cap);
        result.perLayer.push_back(allocateLayer(
            work[i], plan.params.n,
            min_dsp[i] + weight[i] * spare_dsp, limits.back()));
    }
    result.bramLimits = limits;
    result.perf = fpga::evaluateNetworkDedicated(work, plan.params.n,
                                                 result.perLayer, &limits);
    result.latencySeconds = device.seconds(result.perf.totalCycles);
    return result;
}

} // namespace fxhenn::dse
