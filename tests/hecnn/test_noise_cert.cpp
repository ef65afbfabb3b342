/**
 * @file
 * Unit tests of the static noise-budget certifier (noise_cert.hpp) and
 * the certified waterline rescale rewriter (rescale_rewriter.hpp).
 *
 * The soundness of the certificate against *measured* noise is proven
 * at scale by tests/integration/test_noise_differential.cpp; here we
 * pin the structural contract: certificate shape, monotonicity in the
 * assumptions, graceful invalidity (never throws), the rewriter's
 * accept/reject rule and its idempotence.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "src/ckks/params.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/noise_cert.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/hecnn/plan_io.hpp"
#include "src/analysis/verifier.hpp"
#include "src/hecnn/rescale_rewriter.hpp"
#include "src/nn/model_zoo.hpp"

namespace fxhenn::hecnn {
namespace {

HeNetworkPlan
testPlan()
{
    return compile(nn::buildTestNetwork(), ckks::testParams(2048, 7, 30));
}

std::string
planBytes(const HeNetworkPlan &plan)
{
    std::ostringstream os;
    savePlan(plan, os);
    return os.str();
}

TEST(NoiseCert, CertifiesTestNetworkLayerByLayer)
{
    const auto plan = testPlan();
    const auto cert = certifyPlan(plan);

    ASSERT_TRUE(cert.valid) << cert.invalidReason;
    EXPECT_TRUE(cert.certified());
    EXPECT_EQ(cert.plan, plan.name);
    EXPECT_EQ(cert.levels, plan.params.levels);
    ASSERT_EQ(cert.layers.size(), plan.layers.size());

    double min_seen = cert.layers.front().headroomBits;
    for (std::size_t i = 0; i < cert.layers.size(); ++i) {
        EXPECT_EQ(cert.layers[i].layer, plan.layers[i].name);
        EXPECT_EQ(cert.layers[i].level, plan.layers[i].levelOut);
        EXPECT_GT(cert.layers[i].scaleBits, 0.0);
        min_seen = std::min(min_seen, cert.layers[i].headroomBits);
    }
    EXPECT_DOUBLE_EQ(cert.minHeadroomBits, min_seen);
}

TEST(NoiseCert, HeadroomIsMonotoneInMessageAssumption)
{
    const auto plan = testPlan();
    CertifyOptions small; // default: message <= 2^-2
    CertifyOptions large;
    large.messageBits = 2.0;

    const auto a = certifyPlan(plan, small);
    const auto b = certifyPlan(plan, large);
    ASSERT_TRUE(a.valid && b.valid);
    // A larger promised message can only cost headroom.
    EXPECT_LE(b.minHeadroomBits, a.minHeadroomBits);
    for (std::size_t i = 0; i < a.layers.size(); ++i)
        EXPECT_LE(b.layers[i].headroomBits, a.layers[i].headroomBits);
}

TEST(NoiseCert, LevelShiftShortensTheChainAndCostsHeadroom)
{
    const auto plan = testPlan();
    const auto base = certifyPlan(plan);
    ASSERT_TRUE(base.valid);

    CertifyOptions shifted;
    shifted.levelShift = 1;
    const auto one = certifyPlan(plan, shifted);
    if (one.valid) {
        EXPECT_EQ(one.levels, plan.params.levels - 1);
        EXPECT_LE(one.minHeadroomBits, base.minHeadroomBits + 1e-9);
    }

    // Shifting past the plan's own depth cannot certify and must
    // report invalidity instead of throwing.
    CertifyOptions absurd;
    absurd.levelShift = plan.params.levels;
    const auto bad = certifyPlan(plan, absurd);
    EXPECT_FALSE(bad.valid);
    EXPECT_FALSE(bad.invalidReason.empty());
    EXPECT_FALSE(bad.certified());
}

TEST(NoiseCert, InvalidParamsAreReportedNotThrown)
{
    auto plan = testPlan();
    plan.params.n = 0; // prime-chain generation cannot succeed
    const auto cert = certifyPlan(plan);
    EXPECT_FALSE(cert.valid);
    EXPECT_FALSE(cert.certified());
    EXPECT_FALSE(cert.invalidReason.empty());
    EXPECT_NE(cert.renderText().find("NOT CERTIFIED"),
              std::string::npos);
}

TEST(NoiseCert, RenderJsonCarriesSchemaAndArtifact)
{
    const auto plan = testPlan();
    auto cert = certifyPlan(plan);
    ASSERT_TRUE(cert.valid);

    const auto bare = cert.renderJson();
    EXPECT_NE(bare.find("\"schema\": \"fxhenn-noise-cert-v1\""),
              std::string::npos);
    EXPECT_NE(bare.find("\"headroom_bits\""), std::string::npos);
    EXPECT_EQ(bare.find("\"plan_file\""), std::string::npos);

    cert.hasArtifact = true;
    cert.artifactPath = "plans/test.plan";
    cert.artifactCrc32 = 0xdeadbeef;
    const auto traced = cert.renderJson();
    EXPECT_NE(traced.find("\"plan_file\": \"plans/test.plan\""),
              std::string::npos);
    EXPECT_NE(traced.find("\"plan_crc32\": 3735928559"),
              std::string::npos);
    EXPECT_NE(cert.renderText().find("plans/test.plan"),
              std::string::npos);
}

TEST(NoiseRewriter, AcceptsOnlyWithFewerRescalesAndNoWorseHeadroom)
{
    auto plan = testPlan();
    const auto before = certifyPlan(plan);
    ASSERT_TRUE(before.certified());

    const auto summary = rewriteRescales(plan);
    ASSERT_TRUE(summary.applied) << summary.reason;
    EXPECT_LT(summary.rescalesAfter, summary.rescalesBefore);
    EXPECT_GE(summary.minHeadroomAfter,
              summary.minHeadroomBefore - 1e-9);
    EXPECT_FALSE(summary.describe().empty());

    // The rewritten plan re-certifies to what the summary claims and
    // still passes the full standard verifier.
    const auto after = certifyPlan(plan);
    ASSERT_TRUE(after.valid) << after.invalidReason;
    EXPECT_NEAR(after.minHeadroomBits, summary.minHeadroomAfter, 1e-9);
    EXPECT_EQ(analysis::verifyPlan(plan).errorCount(), 0u);
}

TEST(NoiseRewriter, RewrittenPlanDecryptsToTheSameLogits)
{
    auto rewritten = testPlan();
    const auto original = testPlan();
    const auto summary = rewriteRescales(rewritten);
    ASSERT_TRUE(summary.applied) << summary.reason;

    ckks::CkksContext ctx(original.params);
    ClientSession session(original, ctx, /*seed=*/31);
    const PlaintextPool pool_a(original, ctx);
    const PlaintextPool pool_b(rewritten, ctx);
    const PlanExecutor exec_a(original, ctx, session.relinKey(),
                              session.galoisKeys(), pool_a);
    const PlanExecutor exec_b(rewritten, ctx, session.relinKey(),
                              session.galoisKeys(), pool_b);

    const auto input = nn::syntheticInput(nn::buildTestNetwork(), 9);
    const auto a = exec_a.execute(session.encryptInput(input, 0));
    const auto b = exec_b.execute(session.encryptInput(input, 0));
    ASSERT_FALSE(a.degraded());
    ASSERT_FALSE(b.degraded());

    const auto la = session.decryptLogits(a.regs);
    const auto lb = session.decryptLogits(b.regs);
    ASSERT_EQ(la.size(), lb.size());
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_NEAR(la[i], lb[i], 1e-4) << "logit " << i;
}

TEST(NoiseRewriter, IsIdempotent)
{
    auto plan = testPlan();
    const auto first = rewriteRescales(plan);
    ASSERT_TRUE(first.applied) << first.reason;

    const auto frozen = planBytes(plan);
    const auto second = rewriteRescales(plan);
    EXPECT_FALSE(second.applied);
    EXPECT_FALSE(second.reason.empty());
    EXPECT_EQ(planBytes(plan), frozen)
        << "a rejected rewrite must leave the plan byte-identical";
}

TEST(NoiseCert, NegativeHeadroomIsReportedNotThrown)
{
    // Two chained pcMults with no rescale on a 2-prime chain push the
    // register scale to 2^90 >= Q: valid certificate, UNSAFE verdict.
    HeNetworkPlan plan;
    plan.name = "hot";
    plan.params = ckks::testParams(1024, 2, 30);
    const std::size_t slots = plan.params.n / 2;
    plan.regCount = 2;
    plan.inputGather.emplace_back(slots, -1);
    plan.inputGather[0][0] = 0;

    PlanPlaintext pt;
    pt.values.assign(slots, 0.5);
    pt.level = plan.params.levels;
    pt.atSchemeScale = true;
    plan.plaintexts.push_back(std::move(pt));

    HeLayerPlan layer;
    layer.name = "Hot0";
    layer.levelIn = plan.params.levels;
    layer.levelOut = plan.params.levels;
    layer.nIn = 1;
    layer.instrs.push_back({HeOpKind::pcMult, 1, 0, 0, 0});
    layer.instrs.push_back({HeOpKind::pcMult, 1, 1, 0, 0});
    layer.outputLayout.pos.emplace_back(1, 0);
    layer.outputLayout.regs.push_back(1);
    plan.layers.push_back(std::move(layer));
    plan.outputLayout = plan.layers.back().outputLayout;

    const auto cert = certifyPlan(plan);
    ASSERT_TRUE(cert.valid) << cert.invalidReason;
    EXPECT_FALSE(cert.certified());
    EXPECT_LT(cert.minHeadroomBits, 0.0);
    EXPECT_NE(cert.renderText().find("UNSAFE"), std::string::npos);
}

} // namespace
} // namespace fxhenn::hecnn
