/**
 * @file
 * Unit tests for rotation-group detection: maximal same-source rotate
 * runs, group termination when a member clobbers the shared source,
 * the hoisted decomposition count the telemetry tests check against
 * the runtime, and the tiling of every zoo layer's rotates by groups.
 */
#include <gtest/gtest.h>

#include <vector>

#include "src/hecnn/compiler.hpp"
#include "src/hecnn/rotation_groups.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

HeInstr
rot(std::int32_t dst, std::int32_t src, std::int32_t step)
{
    return HeInstr{HeOpKind::rotate, dst, src, -1, step};
}

HeInstr
relin(std::int32_t dst, std::int32_t src)
{
    return HeInstr{HeOpKind::relinearize, dst, src, -1, 0};
}

HeInstr
add(std::int32_t dst, std::int32_t src)
{
    return HeInstr{HeOpKind::ccAdd, dst, src, -1, 0};
}

TEST(RotationGroups, EmptyStreamHasNoGroups)
{
    EXPECT_TRUE(findRotationGroups({}).empty());
    EXPECT_EQ(countHoistedDecompositions({}), 0u);
}

TEST(RotationGroups, ConsecutiveSameSourceRotatesFormOneGroup)
{
    const std::vector<HeInstr> instrs{
        rot(1, 0, 1), rot(2, 0, 2), rot(3, 0, 4)};
    const auto groups = findRotationGroups(instrs);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].begin, 0u);
    EXPECT_EQ(groups[0].count, 3u);
    EXPECT_TRUE(groups[0].hoistable());
    EXPECT_EQ(countHoistedDecompositions(instrs), 1u);
}

TEST(RotationGroups, DifferentSourceStartsANewGroup)
{
    const std::vector<HeInstr> instrs{
        rot(1, 0, 1), rot(2, 0, 2), rot(3, 5, 1), rot(4, 5, 2)};
    const auto groups = findRotationGroups(instrs);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].begin, 0u);
    EXPECT_EQ(groups[0].count, 2u);
    EXPECT_EQ(groups[1].begin, 2u);
    EXPECT_EQ(groups[1].count, 2u);
    EXPECT_EQ(countHoistedDecompositions(instrs), 2u);
}

TEST(RotationGroups, InterveningNonRotateSplitsTheRun)
{
    // Rotate-and-sum: each rotation feeds an add before the next
    // rotation of the same register. The adds read the accumulator,
    // not the rotation source, but they still break consecutiveness —
    // so the zoo's reduction trees never form hoistable groups.
    const std::vector<HeInstr> instrs{
        rot(1, 0, 1), add(2, 1), rot(3, 0, 2), add(2, 3)};
    const auto groups = findRotationGroups(instrs);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].count, 1u);
    EXPECT_FALSE(groups[0].hoistable());
    EXPECT_EQ(groups[1].count, 1u);
    EXPECT_EQ(countHoistedDecompositions(instrs), 2u);
}

TEST(RotationGroups, SourceClobberEndsGroupAfterThatMember)
{
    // dst == src: the in-place member may only be the LAST of its
    // group — the next rotate of r0 reads a rotated value and needs a
    // fresh decomposition.
    const std::vector<HeInstr> instrs{
        rot(1, 0, 1), rot(0, 0, 2), rot(2, 0, 4), rot(3, 0, 8)};
    const auto groups = findRotationGroups(instrs);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].begin, 0u);
    EXPECT_EQ(groups[0].count, 2u); // rot(1,0) + the clobbering rot(0,0)
    EXPECT_EQ(groups[1].begin, 2u);
    EXPECT_EQ(groups[1].count, 2u);
    EXPECT_EQ(countHoistedDecompositions(instrs), 2u);
}

TEST(RotationGroups, LeadingClobberIsASingletonGroup)
{
    const std::vector<HeInstr> instrs{rot(0, 0, 1), rot(1, 0, 2)};
    const auto groups = findRotationGroups(instrs);
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].count, 1u);
    EXPECT_EQ(groups[1].count, 1u);
}

TEST(RotationGroups, RelinearizeCountsOneDecompositionEach)
{
    const std::vector<HeInstr> instrs{
        relin(0, 0), rot(1, 0, 1), rot(2, 0, 2), relin(3, 3)};
    // 2 relinearizations + 1 hoisted group.
    EXPECT_EQ(countHoistedDecompositions(instrs), 3u);
}

TEST(RotationGroups, GroupsPartitionExactlyTheRotateInstructions)
{
    const std::vector<HeInstr> instrs{
        rot(1, 0, 1),  add(2, 1),   rot(3, 0, 2), rot(4, 0, 4),
        relin(5, 5),   rot(6, 4, 1), rot(4, 4, 2), rot(7, 4, 1)};
    const auto groups = findRotationGroups(instrs);
    std::size_t covered = 0;
    for (const auto &g : groups) {
        for (std::size_t i = 0; i < g.count; ++i)
            EXPECT_EQ(instrs[g.begin + i].kind, HeOpKind::rotate);
        covered += g.count;
    }
    std::size_t rotates = 0;
    for (const auto &in : instrs)
        rotates += in.kind == HeOpKind::rotate ? 1 : 0;
    EXPECT_EQ(covered, rotates);
}

TEST(RotationGroups, GroupsTileTheRotatesOfEveryZooLayer)
{
    // The executor hoists exactly these groups, so on every compiled
    // layer they must be disjoint runs of rotates that cover all of
    // the layer's rotates.
    CompileOptions lola;
    lola.matVec = MatVecLowering::lola;
    CompileOptions decomposed;
    decomposed.decomposeRotations = true;
    CompileOptions elided;
    elided.elideValues = true;
    const std::vector<HeNetworkPlan> plans{
        compile(nn::buildTestNetwork(), ckks::testParams(2048, 7, 30)),
        compile(nn::buildMnistNetwork(), ckks::mnistParams()),
        compile(nn::buildMnistNetwork(), ckks::mnistParams(), lola),
        compile(nn::buildMnistNetwork(), ckks::mnistParams(), decomposed),
        compile(nn::buildCifar10Network(), ckks::cifar10Params(), elided)};
    for (const auto &plan : plans) {
        for (const auto &layer : plan.layers) {
            std::size_t covered = 0;
            std::size_t next = 0; // groups are disjoint and in order
            for (const auto &g : findRotationGroups(layer.instrs)) {
                EXPECT_GE(g.begin, next) << layer.name;
                ASSERT_LE(g.begin + g.count, layer.instrs.size());
                for (std::size_t i = 0; i < g.count; ++i)
                    EXPECT_EQ(layer.instrs[g.begin + i].kind,
                              HeOpKind::rotate)
                        << plan.name << " " << layer.name;
                next = g.begin + g.count;
                covered += g.count;
            }
            EXPECT_EQ(covered, layer.counts().rotate)
                << plan.name << " " << layer.name;
        }
    }
}

} // namespace
} // namespace fxhenn::hecnn
