/**
 * @file
 * Cycle-approximate pipeline simulator.
 *
 * The closed-form layer model (Eqs. 1-3) assumes a steady-state
 * bottleneck-bound pipeline. This event-driven simulator schedules each
 * work item through the layer's module stages explicitly — including
 * server contention when P_inter > 1 — and is used by the test suite to
 * validate that the closed forms and the schedule agree (and by the
 * ablation bench to quantify the pipelining gain versus serial
 * execution, Fig. 2's coarse/fine comparison).
 */
#ifndef FXHENN_FPGA_PIPELINE_SIM_HPP
#define FXHENN_FPGA_PIPELINE_SIM_HPP

#include <cstdint>
#include <vector>

#include "src/fpga/layer_model.hpp"

namespace fxhenn::fpga {

/** One pipeline stage: a module class with replicated instances. */
struct SimStage
{
    double serviceCycles = 0.0; ///< occupancy per item (the interval)
    unsigned servers = 1;       ///< P_inter parallel instances
};

/**
 * Simulate @p items flowing in order through @p stages.
 *
 * Items enter stage s only after finishing stage s-1; each stage hands
 * an item to its earliest-free server for serviceCycles.
 *
 * @return makespan in cycles.
 */
double simulatePipeline(std::size_t items,
                        const std::vector<SimStage> &stages);

/**
 * Simulate the same quantity serially (no overlap between items or
 * stages) — the "coarse-grained" reference of Fig. 2.
 */
double simulateSerial(std::size_t items,
                      const std::vector<SimStage> &stages);

/**
 * Build the stage list of a compiled layer under @p alloc: one stage
 * per module class in program order, with per-item service equal to
 * the op's pipeline interval times its per-item multiplicity.
 */
std::vector<SimStage> layerStages(const LayerWork &layer, std::uint64_t n,
                                  const ModuleAllocation &alloc);

/** Event-driven latency estimate for one layer (cycles). */
double simulateLayer(const LayerWork &layer, std::uint64_t n,
                     const ModuleAllocation &alloc);

} // namespace fxhenn::fpga

#endif // FXHENN_FPGA_PIPELINE_SIM_HPP
