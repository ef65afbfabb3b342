#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <span>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/nn/model_zoo.hpp"
#include "tests/support/serial_inference.hpp"

namespace fxhenn {
namespace {

TEST(Parallel, RunsEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroCountIsNoOp)
{
    bool ran = false;
    parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(Parallel, SerialModeMatchesParallelResults)
{
    auto compute = [](std::vector<double> &out) {
        parallelFor(out.size(), [&](std::size_t i) {
            double acc = 0.0;
            for (int k = 0; k < 100; ++k)
                acc += static_cast<double>(i * k % 17);
            out[i] = acc;
        });
    };
    std::vector<double> parallel_out(256), serial_out(256);
    const unsigned original = threadCount();
    compute(parallel_out);
    setThreadCount(1);
    compute(serial_out);
    setThreadCount(original);
    EXPECT_EQ(parallel_out, serial_out);
}

TEST(Parallel, NestedCallsExecuteInline)
{
    std::atomic<int> total{0};
    parallelFor(8, [&](std::size_t) {
        parallelFor(8, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(Parallel, ExceptionsPropagate)
{
    EXPECT_THROW(parallelFor(16,
                             [](std::size_t i) {
                                 if (i == 7)
                                     throw ConfigError("boom");
                             }),
                 ConfigError);
}

TEST(Parallel, EncryptedInferenceIsThreadCountInvariant)
{
    // The pool only distributes work across RNS limbs — it must never
    // change results. Same seeds, thread count 1 vs 8: the ciphertext
    // polynomials coming out of the HE pipeline must be bit-identical,
    // and so must every decrypted logit.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    const nn::Tensor input = nn::syntheticInput(net, 77);

    // Both runs share one context: RnsPoly::operator== includes basis
    // identity, so comparing ciphertexts only makes sense within a
    // single basis instance.
    ckks::CkksContext ctx(params);
    ckks::CkksContext ctx2(params);

    auto runOnce = [&](unsigned threads, ckks::Ciphertext &lastCt) {
        setThreadCount(threads);
        // A standalone kernel chain, checked at the ciphertext level.
        Rng rng(42);
        ckks::KeyGenerator keygen(ctx2, rng);
        ckks::Encoder encoder(ctx2);
        ckks::Encryptor encryptor(ctx2, keygen.makePublicKey(), rng);
        ckks::Evaluator evaluator(ctx2);
        const auto relin = keygen.makeRelinKey();
        const auto galois = keygen.makeGaloisKeys({1, 3});
        std::vector<double> v(ctx2.slots(), 0.125);
        const auto pt = encoder.encode(std::span<const double>(v),
                                       ctx2.params().scale, 7);
        auto ct = encryptor.encrypt(pt);
        ct = evaluator.mulPlain(ct, pt);
        evaluator.rescaleInplace(ct);
        ct = evaluator.relinearize(evaluator.mulNoRelin(ct, ct), relin);
        evaluator.rescaleInplace(ct);
        ct = evaluator.rotate(ct, 3, galois);
        lastCt = ct;
        // And the full runtime path, checked at the logit level.
        const test_support::SerialInference serial(plan, ctx,
                                                   /*seed=*/9);
        return serial.infer(input);
    };

    const unsigned original = threadCount();
    ckks::Ciphertext serialCt, parallelCt;
    const auto serialLogits = runOnce(1, serialCt);
    const auto parallelLogits = runOnce(8, parallelCt);
    setThreadCount(original);

    ASSERT_EQ(serialCt.parts.size(), parallelCt.parts.size());
    EXPECT_EQ(serialCt.scale, parallelCt.scale);
    for (std::size_t k = 0; k < serialCt.parts.size(); ++k)
        EXPECT_TRUE(serialCt.parts[k] == parallelCt.parts[k])
            << "ciphertext part " << k
            << " differs between serial and parallel execution";
    ASSERT_EQ(serialLogits.size(), parallelLogits.size());
    for (std::size_t i = 0; i < serialLogits.size(); ++i)
        EXPECT_EQ(serialLogits[i], parallelLogits[i])
            << "logit " << i << " is not bit-identical";
}

TEST(Parallel, ThreadCountIsConfigurable)
{
    const unsigned original = threadCount();
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0); // clamps to 1
    EXPECT_EQ(threadCount(), 1u);
    setThreadCount(original);
}

} // namespace
} // namespace fxhenn
