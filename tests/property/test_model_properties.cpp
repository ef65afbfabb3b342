/**
 * @file
 * Property tests on the FPGA performance model and the DSE:
 * monotonicity of latency/resources in every knob, feasibility of all
 * explorer outputs, non-domination of Pareto fronts, and agreement
 * between the closed-form model and the event-driven simulator across
 * a parameter grid.
 */
#include <gtest/gtest.h>

#include "src/dse/explorer.hpp"
#include "src/dse/pareto.hpp"
#include "src/fpga/pipeline_sim.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn {
namespace {

using fpga::HeOpModule;
using fpga::ModuleAllocation;

ModuleAllocation
makeAlloc(unsigned nc, unsigned rs_intra, unsigned ks_intra,
          unsigned ks_inter)
{
    ModuleAllocation alloc;
    for (auto &op : alloc.ops)
        op = {nc, 1, 1};
    alloc[HeOpModule::rescale].pIntra = rs_intra;
    alloc[HeOpModule::keySwitch].pIntra = ks_intra;
    alloc[HeOpModule::keySwitch].pInter = ks_inter;
    return alloc;
}

class ModelGridTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
  protected:
    ModelGridTest()
        : plan_(hecnn::compile(nn::buildMnistNetwork(),
                               ckks::mnistParams())),
          work_(fpga::summarizeLayers(plan_))
    {}
    hecnn::HeNetworkPlan plan_;
    std::vector<fpga::LayerWork> work_;
};

TEST_P(ModelGridTest, LatencyMonotoneInIntraAcrossGrid)
{
    const auto [nc, ks_inter] = GetParam();
    double prev = -1.0;
    for (unsigned intra = 1; intra <= 7; ++intra) {
        const auto alloc = makeAlloc(nc, 1, intra, ks_inter);
        const auto perf =
            fpga::evaluateNetworkShared(work_, plan_.params.n, alloc);
        if (prev >= 0.0) {
            EXPECT_LE(perf.totalCycles, prev * 1.0000001)
                << "nc=" << nc << " intra=" << intra;
        }
        prev = perf.totalCycles;
    }
}

TEST_P(ModelGridTest, BramMonotoneInIntraAcrossGrid)
{
    const auto [nc, ks_inter] = GetParam();
    double prev = -1.0;
    for (unsigned intra = 1; intra <= 7; ++intra) {
        const auto alloc = makeAlloc(nc, 1, intra, ks_inter);
        const auto perf =
            fpga::evaluateNetworkShared(work_, plan_.params.n, alloc);
        if (prev >= 0.0) {
            EXPECT_GE(perf.bramPhysical, prev)
                << "nc=" << nc << " intra=" << intra;
        }
        prev = perf.bramPhysical;
    }
}

TEST_P(ModelGridTest, SimulatorWithinToleranceAcrossGrid)
{
    const auto [nc, ks_inter] = GetParam();
    const auto alloc = makeAlloc(nc, 2, 3, ks_inter);
    for (const auto &layer : work_) {
        const double sim =
            fpga::simulateLayer(layer, plan_.params.n, alloc);
        const double model =
            fpga::evaluateLayer(layer, plan_.params.n, alloc).cycles;
        ASSERT_NEAR(sim / model, 1.0, 0.25)
            << layer.name << " nc=" << nc << " inter=" << ks_inter;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGridTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 4u)));

TEST(DseProperty, EveryCollectedPointIsFeasible)
{
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    const auto device = fpga::acu9eg();
    dse::ExploreOptions opts;
    opts.collectAll = true;
    const auto result = dse::explore(plan, device, opts);
    ASSERT_FALSE(result.all.empty());
    for (const auto &p : result.all) {
        EXPECT_LE(p.perf.dspPhysical, device.dspSlices);
        EXPECT_LE(p.dspFraction, 1.0);
        EXPECT_LE(p.bramFraction, 1.0 + 1e-12);
        EXPECT_GT(p.latencySeconds, 0.0);
    }
}

TEST(DseProperty, ExplorerParetoFrontIsInternallyConsistent)
{
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    dse::ExploreOptions opts;
    opts.collectAll = true;
    opts.bramBudgetBlocks = 1200.0;
    const auto result = dse::explore(plan, fpga::acu9eg(), opts);

    std::vector<dse::ParetoSample> samples;
    for (const auto &p : result.all)
        samples.push_back({p.perf.bramPhysical, p.latencySeconds});
    const auto front = dse::paretoFront(samples);
    ASSERT_FALSE(front.empty());

    // No collected sample may dominate a front member.
    for (const auto &s : samples) {
        for (const auto &f : front)
            EXPECT_FALSE(dse::dominates(s, f));
    }
    // The best latency overall must be the front's right endpoint.
    EXPECT_DOUBLE_EQ(front.back().latencySeconds,
                     result.best->latencySeconds);
}

TEST(DseProperty, BudgetMonotonicity)
{
    // Increasing BRAM budget can only help.
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    double prev = -1.0;
    for (double budget : {500.0, 700.0, 900.0, 1100.0, 1300.0}) {
        dse::ExploreOptions opts;
        opts.bramBudgetBlocks = budget;
        const auto result = dse::explore(plan, fpga::acu9eg(), opts);
        ASSERT_TRUE(result.best.has_value()) << budget;
        if (prev >= 0.0) {
            EXPECT_LE(result.best->latencySeconds, prev + 1e-12)
                << budget;
        }
        prev = result.best->latencySeconds;
    }
}

TEST(DseProperty, SharedNeverUsesMoreDspThanDedicated)
{
    const auto plan =
        hecnn::compile(nn::buildMnistNetwork(), ckks::mnistParams());
    const auto alloc = makeAlloc(2, 2, 2, 2);
    const auto work = fpga::summarizeLayers(plan);
    const auto shared =
        fpga::evaluateNetworkShared(work, plan.params.n, alloc);
    std::vector<ModuleAllocation> per_layer(plan.layers.size(), alloc);
    const auto dedicated =
        fpga::evaluateNetworkDedicated(work, plan.params.n, per_layer);
    EXPECT_LE(shared.dspPhysical, dedicated.dspPhysical);
    EXPECT_LE(shared.bramPhysical, dedicated.bramPhysical);
    // Same per-layer latency either way (identical allocations).
    EXPECT_NEAR(shared.totalCycles, dedicated.totalCycles,
                shared.totalCycles * 1e-9);
}

} // namespace
} // namespace fxhenn
