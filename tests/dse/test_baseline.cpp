#include <gtest/gtest.h>

#include "src/dse/baseline.hpp"
#include "src/dse/explorer.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::dse {
namespace {

/** The Table IX baseline is sized for the paper's LoLa lowering. */
hecnn::CompileOptions
lolaOptions()
{
    hecnn::CompileOptions options;
    options.matVec = hecnn::MatVecLowering::lola;
    return options;
}

class BaselineTest : public ::testing::Test
{
  protected:
    BaselineTest()
        : plan_(hecnn::compile(nn::buildMnistNetwork(),
                               ckks::mnistParams(), lolaOptions())),
          device_(fpga::acu9eg())
    {}

    hecnn::HeNetworkPlan plan_;
    fpga::DeviceSpec device_;
};

TEST_F(BaselineTest, FitsTheDevice)
{
    const auto result = allocateBaseline(plan_, device_);
    EXPECT_LE(result.perf.dspPhysical, device_.dspSlices);
    EXPECT_LE(result.perf.bramPhysical,
              device_.effectiveBramBlocks(plan_.params.n / 4) + 1e-9);
    EXPECT_EQ(result.perLayer.size(), plan_.layers.size());
}

TEST_F(BaselineTest, PeakEqualsAggregate)
{
    // Table IX: without cross-layer reuse, peak utilization equals
    // aggregated utilization.
    const auto result = allocateBaseline(plan_, device_);
    EXPECT_EQ(result.perf.dspPhysical, result.perf.dspAggregate);
    EXPECT_DOUBLE_EQ(result.perf.bramPhysical,
                     result.perf.bramAggregate);
}

TEST_F(BaselineTest, FxhennBeatsBaselineSeveralTimes)
{
    // Table IX: 1.17 s baseline vs 0.24 s FxHENN (4.9X). Require > 2X.
    const auto baseline = allocateBaseline(plan_, device_);
    const auto dse = explore(plan_, device_);
    ASSERT_TRUE(dse.best.has_value());
    const double speedup =
        baseline.latencySeconds / dse.best->latencySeconds;
    EXPECT_GT(speedup, 2.0);
    EXPECT_LT(speedup, 500.0);
}

TEST_F(BaselineTest, HeavyLayersGetLargerShares)
{
    const auto result = allocateBaseline(plan_, device_);
    // Fc1 carries the dominant HE-MAC load, so its BRAM share must
    // exceed every activation layer's share.
    ASSERT_EQ(result.bramLimits.size(), 5u);
    EXPECT_GT(result.bramLimits[2], result.bramLimits[1]);
    EXPECT_GT(result.bramLimits[2], result.bramLimits[3]);
}

TEST_F(BaselineTest, WorksOnBothDevices)
{
    const auto r9 = allocateBaseline(plan_, fpga::acu9eg());
    const auto r15 = allocateBaseline(plan_, fpga::acu15eg());
    EXPECT_GT(r9.latencySeconds, 0.0);
    EXPECT_GT(r15.latencySeconds, 0.0);
}

} // namespace
} // namespace fxhenn::dse
