#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/assert.hpp"
#include "src/dse/explorer.hpp"
#include "src/dse/pareto.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/verify.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::dse {
namespace {

class ExplorerTest : public ::testing::Test
{
  protected:
    ExplorerTest()
        : plan_(hecnn::compile(nn::buildMnistNetwork(),
                               ckks::mnistParams())),
          device_(fpga::acu9eg())
    {}

    hecnn::HeNetworkPlan plan_;
    fpga::DeviceSpec device_;
};

TEST_F(ExplorerTest, FindsFeasibleOptimum)
{
    const auto result = explore(plan_, device_);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_GT(result.evaluated, 0u);
    EXPECT_LE(result.best->dspFraction, 1.0);
    EXPECT_LE(result.best->bramFraction, 1.0);
    // MNIST must land in the sub-second regime (paper: 0.24 s).
    EXPECT_LT(result.best->latencySeconds, 1.0);
    EXPECT_GT(result.best->latencySeconds, 0.005);
}

TEST_F(ExplorerTest, OptimumBeatsEveryEnumeratedPoint)
{
    ExploreOptions opts;
    opts.collectAll = true;
    const auto result = explore(plan_, device_, opts);
    ASSERT_TRUE(result.best.has_value());
    for (const auto &point : result.all) {
        EXPECT_GE(point.latencySeconds,
                  result.best->latencySeconds - 1e-12);
    }
}

TEST_F(ExplorerTest, TinyBramBudgetShrinksTheSpace)
{
    // Fig. 9: with a small BRAM budget only few (slow) designs exist.
    ExploreOptions small, large;
    small.collectAll = large.collectAll = true;
    small.bramBudgetBlocks = 460.0;
    large.bramBudgetBlocks = 1500.0;
    const auto r_small = explore(plan_, device_, small);
    const auto r_large = explore(plan_, device_, large);
    ASSERT_TRUE(r_small.best.has_value());
    ASSERT_TRUE(r_large.best.has_value());
    EXPECT_LT(r_small.all.size(), r_large.all.size());
    EXPECT_GE(r_small.best->latencySeconds,
              r_large.best->latencySeconds);
}

TEST_F(ExplorerTest, InfeasibleBudgetYieldsNoPoint)
{
    ExploreOptions opts;
    opts.bramBudgetBlocks = 10.0;
    opts.allowInfeasible = true;
    const auto result = explore(plan_, device_, opts);
    EXPECT_FALSE(result.best.has_value());
    EXPECT_GT(result.pruned, 0u);
}

TEST_F(ExplorerTest, InfeasibleBudgetThrowsWithSuggestion)
{
    // Without allowInfeasible an empty design space is a user error:
    // the exception names the plan and suggests the nearest-feasible
    // resources.
    ExploreOptions opts;
    opts.bramBudgetBlocks = 10.0;
    try {
        explore(plan_, device_, opts);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("no feasible point"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("BRAM"), std::string::npos) << msg;
        EXPECT_NE(msg.find(plan_.name), std::string::npos) << msg;
    }
}

TEST_F(ExplorerTest, LivenessBuffersNeverHurt)
{
    // The liveness-informed intra-layer buffer term only ever shrinks
    // BRAM demand, so the feasible set can only grow and the optimum
    // can only improve (or stay put).
    ExploreOptions plain, informed;
    informed.livenessBuffers = true;
    const auto r_plain = explore(plan_, device_, plain);
    const auto r_informed = explore(plan_, device_, informed);
    ASSERT_TRUE(r_plain.best && r_informed.best);
    EXPECT_LE(r_informed.best->latencySeconds,
              r_plain.best->latencySeconds + 1e-12);
    EXPECT_GE(r_informed.evaluated, r_plain.evaluated);
}

TEST_F(ExplorerTest, LargerDeviceIsNoSlower)
{
    const auto small = explore(plan_, fpga::acu9eg());
    const auto large = explore(plan_, fpga::acu15eg());
    ASSERT_TRUE(small.best && large.best);
    EXPECT_LE(large.best->latencySeconds,
              small.best->latencySeconds + 1e-12);
}

TEST_F(ExplorerTest, SearchSpaceIsAFewThousandPoints)
{
    // Sec. VI-B: "a few thousand design points ... within seconds".
    const auto result = explore(plan_, device_);
    const std::size_t space = result.evaluated + result.pruned;
    EXPECT_GT(space, 1000u);
    EXPECT_LT(space, 1000000u);
}

TEST_F(ExplorerTest, ReplaySimReportsPerLayerPredictionError)
{
    // The DSE half of the predicted-vs-measured loop: replaySim runs
    // the winning design point through the event-driven pipeline
    // simulator and reports the per-layer prediction error. The repo's
    // pipeline-sim cross-check pins ±25 % agreement; the replay rows
    // must honor the same bound.
    ExploreOptions opts;
    opts.replaySim = true;
    const auto result = explore(plan_, device_, opts);
    ASSERT_TRUE(result.best.has_value());
    ASSERT_EQ(result.simReplay.size(), plan_.layers.size());
    double maxErr = 0.0;
    for (std::size_t i = 0; i < result.simReplay.size(); ++i) {
        const auto &row = result.simReplay[i];
        EXPECT_EQ(row.layer, plan_.layers[i].name);
        EXPECT_GT(row.predictedCycles, 0.0);
        EXPECT_GT(row.simulatedCycles, 0.0);
        EXPECT_LE(row.errorFrac, 0.25) << "layer " << row.layer;
        maxErr = std::max(maxErr, row.errorFrac);
    }
    EXPECT_DOUBLE_EQ(result.simReplayMaxErrorFrac, maxErr);
}

TEST_F(ExplorerTest, ReplaySimOffLeavesReplayEmpty)
{
    const auto result = explore(plan_, device_);
    EXPECT_TRUE(result.simReplay.empty());
    EXPECT_DOUBLE_EQ(result.simReplayMaxErrorFrac, 0.0);
}

TEST_F(ExplorerTest, ReplayWarningSilentAtCliToleranceFiresWhenTight)
{
    // MNIST on ACU15EG: the worst replay row is Fc1 at about 10.6 %
    // (pipeline fill on a layer with few items). That is inside the
    // CLI's 0.5 tolerance and outside a 0.05 one, so the gate can
    // fail on a real plan.
    ExploreOptions opts;
    opts.replaySim = true;
    const auto result = explore(plan_, fpga::acu15eg(), opts);
    ASSERT_TRUE(result.best.has_value());
    EXPECT_FALSE(replayWarning(result.simReplay, 0.5).has_value())
        << *replayWarning(result.simReplay, 0.5);
    const auto warning = replayWarning(result.simReplay, 0.05);
    ASSERT_TRUE(warning.has_value());
    EXPECT_NE(warning->find("layer 'Fc1'"), std::string::npos)
        << *warning;
}

TEST(ReplayWarning, NamesTheFirstWorstLayerAndPinsTheMessage)
{
    const std::vector<ReplayRow> rows{{"Cnv1", 100.0, 110.0, 0.1},
                                      {"Fc1", 100.0, 130.0, 0.3},
                                      {"Fc2", 100.0, 70.0, 0.3},
                                      {"Act1", 100.0, 120.0, 0.2}};
    const auto warning = replayWarning(rows, 0.25);
    ASSERT_TRUE(warning.has_value());
    EXPECT_EQ(*warning, "pipeline replay of layer 'Fc1' diverges from "
                        "the closed-form prediction by 30% (tolerance "
                        "25%)");
    EXPECT_FALSE(replayWarning(rows, 0.3).has_value())
        << "an error equal to the tolerance passes";
    EXPECT_FALSE(replayWarning({}, 0.0).has_value());
}

/*
 * Simulated latency on the test network. Latency belongs to a design
 * point, so the simulated per-layer timeline is the DSE replay of the
 * winning point, not a property of an encrypted run.
 */
class SimBackend : public ::testing::Test
{
  protected:
    SimBackend()
        : net_(nn::buildTestNetwork()),
          params_(ckks::testParams(2048, 7, 30)),
          plan_(hecnn::compile(net_, params_))
    {}

    ExploreResult
    replay() const
    {
        ExploreOptions opts;
        opts.replaySim = true;
        return explore(plan_, fpga::acu9eg(), opts);
    }

    nn::Network net_;
    ckks::CkksParams params_;
    hecnn::HeNetworkPlan plan_;
};

TEST_F(SimBackend, FixedDesignTimelineCoversEveryLayer)
{
    const auto result = replay();
    ASSERT_TRUE(result.best.has_value());
    ASSERT_EQ(result.simReplay.size(), plan_.layers.size());
    for (std::size_t i = 0; i < result.simReplay.size(); ++i) {
        const auto &row = result.simReplay[i];
        EXPECT_EQ(row.layer, plan_.layers[i].name);
        EXPECT_GT(row.predictedCycles, 0.0) << row.layer;
        EXPECT_GT(row.simulatedCycles, 0.0) << row.layer;
    }

    // The timeline is a function of the design point alone: replaying
    // the same search again yields the same rows.
    const auto again = replay();
    ASSERT_EQ(again.simReplay.size(), result.simReplay.size());
    for (std::size_t i = 0; i < again.simReplay.size(); ++i) {
        EXPECT_EQ(again.simReplay[i].predictedCycles,
                  result.simReplay[i].predictedCycles);
        EXPECT_EQ(again.simReplay[i].simulatedCycles,
                  result.simReplay[i].simulatedCycles);
    }
}

TEST_F(SimBackend, VerifyLatencyMatchesDsePredictionWithinTolerance)
{
    // The latency-soundness criterion next to the crypto one: the
    // encrypted run verifies against plaintext, and the simulated
    // per-layer cost agrees with the closed-form prediction within the
    // CLI's 0.5 replay tolerance, so `fxhenn design` stays silent.
    const auto verified = hecnn::verifyAgainstPlaintext(net_, params_);
    EXPECT_TRUE(verified.passed()) << verified.renderDiagnosis();

    const auto result = replay();
    ASSERT_FALSE(result.simReplay.empty());
    double maxErr = 0.0;
    for (const auto &row : result.simReplay)
        maxErr = std::max(maxErr, row.errorFrac);
    EXPECT_DOUBLE_EQ(result.simReplayMaxErrorFrac, maxErr);
    EXPECT_LE(result.simReplayMaxErrorFrac, 0.5)
        << "simulated latency diverged from the DSE prediction";
    const auto warning = replayWarning(result.simReplay, 0.5);
    EXPECT_FALSE(warning.has_value()) << *warning;
}

TEST(Pareto, FrontIsNonDominatedAndSorted)
{
    std::vector<ParetoSample> pts{{500, 1.0}, {400, 2.0}, {600, 0.5},
                                  {450, 1.5}, {400, 1.8}, {700, 0.6}};
    const auto front = paretoFront(pts);
    ASSERT_FALSE(front.empty());
    for (std::size_t i = 0; i < front.size(); ++i) {
        for (std::size_t j = 0; j < front.size(); ++j) {
            if (i != j) {
                EXPECT_FALSE(dominates(front[i], front[j]));
            }
        }
        if (i > 0) {
            EXPECT_GT(front[i].bramBlocks, front[i - 1].bramBlocks);
            EXPECT_LT(front[i].latencySeconds,
                      front[i - 1].latencySeconds);
        }
    }
    // Every input point must be dominated by or equal to some front
    // point.
    for (const auto &p : pts) {
        bool covered = false;
        for (const auto &f : front)
            covered |= !dominates(p, f);
        EXPECT_TRUE(covered);
    }
}

TEST(Pareto, DominanceIsStrict)
{
    EXPECT_TRUE(dominates({100, 1.0}, {200, 2.0}));
    EXPECT_TRUE(dominates({100, 1.0}, {100, 2.0}));
    EXPECT_FALSE(dominates({100, 1.0}, {100, 1.0}));
    EXPECT_FALSE(dominates({100, 2.0}, {200, 1.0}));
}

} // namespace
} // namespace fxhenn::dse
