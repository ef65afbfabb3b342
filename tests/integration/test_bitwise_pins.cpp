/**
 * @file
 * Bitwise pins on full-scale FxHENN-MNIST: a 64-bit FNV-1a hash over
 * every limb word of the encrypted input, and over every limb word of
 * the registers PlanExecutor::execute returns, at every SIMD dispatch
 * level this host reaches.
 *
 * The pinned values were recorded with the coefficient-domain rescale
 * and ModDown and the 128-bit-remainder samplers/encoder. Every fast
 * path since (division-free sampling and encoding, NTT-domain limb
 * drops) is exact mod q, so any drift here is a real arithmetic bug,
 * not noise: dropping the centring of the dropped limb, for instance,
 * changes both hashes.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace fxhenn {
namespace {

constexpr std::uint64_t kEncryptHash = 0x4190cb0191cc38f1ull;
constexpr std::uint64_t kOutputHash = 0x04641983721add7aull;

/** Word-wise FNV-1a over every limb of every part of @p ct. */
void
hashCiphertext(std::uint64_t &h, const ckks::Ciphertext &ct)
{
    for (const RnsPoly &part : ct.parts)
        for (std::size_t i = 0; i < part.limbCount(); ++i)
            for (std::uint64_t word : part.limb(i)) {
                h ^= word;
                h *= 0x100000001b3ull;
            }
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

TEST(BitwisePins, MnistEncryptAndInferenceHashesAtEverySimdLevel)
{
    const auto net = nn::buildMnistNetwork();
    const auto params = ckks::mnistParams();
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    const hecnn::ClientSession session(plan, ctx, 1);
    const hecnn::PlaintextPool pool(plan, ctx);
    const hecnn::PlanExecutor executor(plan, ctx, session.relinKey(),
                                       session.galoisKeys(), pool);
    const nn::Tensor input = nn::syntheticInput(net, 7);

    if (telemetry::compiledIn()) {
        // NTT budget of one request (encrypt + execute + decrypt),
        // the counted counterpart of the benchmark's per-request
        // modarith.ntt.* metrics: coefficient-domain rescale and
        // ModDown plus per-limb sampling took 820 inverse NTTs.
        auto &fwd = telemetry::counter("modarith.ntt.forward");
        auto &inv = telemetry::counter("modarith.ntt.inverse");
        fwd.reset();
        inv.reset();
        telemetry::setEnabled(true);
        const auto result =
            executor.execute(session.encryptInput(input, 0));
        session.decryptLogits(result.regs);
        telemetry::setEnabled(false);
        EXPECT_EQ(inv.value(), 216u);
        EXPECT_EQ(fwd.value(), 1601u);
    }

    for (simd::Level level :
         {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
        if (!simd::available(level))
            continue;
        SCOPED_TRACE(simd::levelName(level));
        simd::ScopedLevel pin(level);

        auto encrypted = session.encryptInput(input, 0);
        std::uint64_t encryptHash = kFnvOffset;
        for (const auto &ct : encrypted)
            hashCiphertext(encryptHash, ct);
        EXPECT_EQ(encryptHash, kEncryptHash)
            << std::hex << "encrypt hash 0x" << encryptHash;

        const auto result = executor.execute(std::move(encrypted));
        ASSERT_FALSE(result.degraded());
        std::uint64_t outputHash = kFnvOffset;
        for (const auto &reg : result.regs)
            if (reg)
                hashCiphertext(outputHash, *reg);
        EXPECT_EQ(outputHash, kOutputHash)
            << std::hex << "output hash 0x" << outputHash;
    }
}

} // namespace
} // namespace fxhenn
