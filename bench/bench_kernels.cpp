/**
 * @file
 * google-benchmark microbenchmarks of the software CKKS kernels — the
 * CPU reference the FPGA model is compared against, and a regression
 * guard for the NTT/keyswitch implementations.
 *
 * The binary carries its own main(): telemetry is switched on for the
 * run and the aggregated counters/timers are written as JSON
 * (BENCH_kernels.json by default, --telemetry-json=FILE to override),
 * so one invocation yields both throughput numbers and the per-op /
 * per-layer profile.
 *
 * The keyswitch-touching benchmarks pin their iteration counts: with
 * google-benchmark's adaptive iteration counts, a faster machine (or a
 * faster kernel) runs more heavyweight 4096-ring iterations and shifts
 * the sample mix of the ckks.time.*.ns histograms, which would make
 * the committed BENCH_kernels.json means incomparable across PRs. The
 * eager-mode reference columns additionally mute telemetry so the
 * deliberately-slow path never pollutes the baseline.
 */
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/ckks/decryptor.hpp"
#include "src/ckks/encoder.hpp"
#include "src/ckks/encryptor.hpp"
#include "src/ckks/evaluator.hpp"
#include "src/ckks/keygen.hpp"
#include "src/common/math_util.hpp"
#include "src/common/rng.hpp"
#include "src/hecnn/client_session.hpp"
#include "src/hecnn/compiler.hpp"
#include "src/hecnn/plan_executor.hpp"
#include "src/modarith/ntt.hpp"
#include "src/modarith/primes.hpp"
#include "src/modarith/simd_dispatch.hpp"
#include "src/nn/model_zoo.hpp"
#include "src/telemetry/telemetry.hpp"

namespace {

using namespace fxhenn;

void
BM_ModMul(benchmark::State &state)
{
    const Modulus q(generateNttPrimes(30, 8192, 1)[0]);
    Rng rng(1);
    const std::uint64_t a = rng.uniform(q.value());
    std::uint64_t b = rng.uniform(q.value());
    for (auto _ : state) {
        b = q.mul(a, b);
        benchmark::DoNotOptimize(b);
    }
}
BENCHMARK(BM_ModMul);

void
BM_NttForward(benchmark::State &state)
{
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const Modulus q(generateNttPrimes(30, n, 1)[0]);
    const NttTables ntt(n, q);
    Rng rng(2);
    std::vector<std::uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniform(q.value());
    for (auto _ : state) {
        ntt.forward(a);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                ntt.butterflyCount()));
}
BENCHMARK(BM_NttForward)->Arg(1024)->Arg(4096)->Arg(8192)->Arg(16384);

void
BM_NttForwardScalar(benchmark::State &state)
{
    // Scalar-reference column: dispatch pinned to the scalar kernels
    // (simd::ScopedLevel) with a fixed iteration count and telemetry
    // muted, so the row reads the same whatever SIMD level the machine
    // auto-selects and its samples never shift the committed
    // baseline's histogram mix. Compare against BM_NttForward at the
    // same ring size for the dispatch speedup.
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    const Modulus q(generateNttPrimes(30, n, 1)[0]);
    const NttTables ntt(n, q);
    Rng rng(2);
    std::vector<std::uint64_t> a(n);
    for (auto &x : a)
        x = rng.uniform(q.value());
    simd::ScopedLevel pin(simd::Level::scalar);
    telemetry::setEnabled(false);
    for (auto _ : state) {
        ntt.forward(a);
        benchmark::ClobberMemory();
    }
    telemetry::setEnabled(true);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(
                                ntt.butterflyCount()));
}
BENCHMARK(BM_NttForwardScalar)->Arg(4096)->Iterations(200);

/** Shared CKKS fixture state for the op-level benchmarks. */
struct CkksBench
{
    CkksBench()
        : ctx(ckks::testParams(4096, 7, 30)), rng(7),
          keygen(ctx, rng), encoder(ctx),
          encryptor(ctx, keygen.makePublicKey(), rng),
          evaluator(ctx), relin(keygen.makeRelinKey()),
          galois(keygen.makeGaloisKeys({1}))
    {
        std::vector<double> values(ctx.slots(), 0.5);
        ct = encryptor.encrypt(encoder.encode(
            std::span<const double>(values), ctx.params().scale, 7));
        pt = encoder.encode(std::span<const double>(values),
                            ctx.params().scale, 7);
    }

    ckks::CkksContext ctx;
    Rng rng;
    ckks::KeyGenerator keygen;
    ckks::Encoder encoder;
    ckks::Encryptor encryptor;
    ckks::Evaluator evaluator;
    ckks::RelinKey relin;
    ckks::GaloisKeys galois;
    ckks::Ciphertext ct;
    ckks::Plaintext pt;
};

CkksBench &
fixture()
{
    static CkksBench bench;
    return bench;
}

void
BM_CCadd(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto out = f.evaluator.add(f.ct, f.ct);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_CCadd);

void
BM_PCmult(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto out = f.evaluator.mulPlain(f.ct, f.pt);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_PCmult);

void
BM_Rescale(benchmark::State &state)
{
    auto &f = fixture();
    auto prod = f.evaluator.mulPlain(f.ct, f.pt);
    for (auto _ : state) {
        auto out = f.evaluator.rescale(prod);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Rescale);

void
BM_Relinearize(benchmark::State &state)
{
    auto &f = fixture();
    auto prod = f.evaluator.mulNoRelin(f.ct, f.ct);
    for (auto _ : state) {
        auto out = f.evaluator.relinearize(prod, f.relin);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Relinearize)->Iterations(6);

void
BM_KeyswitchEager(benchmark::State &state)
{
    // Reference column: per-digit Barrett reductions inside the
    // keyswitch inner product (KswMode::eager). Telemetry is muted so
    // the deliberately-slow reference samples stay out of the
    // BENCH_kernels.json keyswitch baseline.
    auto &f = fixture();
    ckks::Evaluator eager(f.ctx, ckks::KswMode::eager);
    auto prod = eager.mulNoRelin(f.ct, f.ct);
    telemetry::setEnabled(false);
    for (auto _ : state) {
        auto out = eager.relinearize(prod, f.relin);
        benchmark::DoNotOptimize(out);
    }
    telemetry::setEnabled(true);
}
BENCHMARK(BM_KeyswitchEager)->Iterations(6);

void
BM_KeyswitchLazy(benchmark::State &state)
{
    // The optimized column: 128-bit lazy accumulation, one reduction
    // per limb (KswMode::lazy, the default) — bitwise identical output.
    auto &f = fixture();
    ckks::Evaluator lazy(f.ctx, ckks::KswMode::lazy);
    auto prod = lazy.mulNoRelin(f.ct, f.ct);
    for (auto _ : state) {
        auto out = lazy.relinearize(prod, f.relin);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_KeyswitchLazy)->Iterations(6);

void
BM_KeyswitchLazyScalar(benchmark::State &state)
{
    // Scalar-reference column for the dispatched lazy keyswitch:
    // same KswMode::lazy algorithm, kernels pinned to scalar,
    // telemetry muted like the eager reference rows so the
    // machine-dependent SIMD speedup never leaks into the
    // BENCH_kernels.json keyswitch baseline.
    auto &f = fixture();
    ckks::Evaluator lazy(f.ctx, ckks::KswMode::lazy);
    auto prod = lazy.mulNoRelin(f.ct, f.ct);
    simd::ScopedLevel pin(simd::Level::scalar);
    telemetry::setEnabled(false);
    for (auto _ : state) {
        auto out = lazy.relinearize(prod, f.relin);
        benchmark::DoNotOptimize(out);
    }
    telemetry::setEnabled(true);
}
BENCHMARK(BM_KeyswitchLazyScalar)->Iterations(6);

void
BM_Rotate(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        auto out = f.evaluator.rotate(f.ct, 1, f.galois);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Rotate)->Iterations(6);

void
BM_RotateEager(benchmark::State &state)
{
    // Reference column, telemetry muted like BM_KeyswitchEager.
    auto &f = fixture();
    ckks::Evaluator eager(f.ctx, ckks::KswMode::eager);
    telemetry::setEnabled(false);
    for (auto _ : state) {
        auto out = eager.rotate(f.ct, 1, f.galois);
        benchmark::DoNotOptimize(out);
    }
    telemetry::setEnabled(true);
}
BENCHMARK(BM_RotateEager)->Iterations(6);

void
BM_RotateFourSequential(benchmark::State &state)
{
    auto &f = fixture();
    auto gk = f.keygen.makeGaloisKeys({1, 2, 4, 8});
    for (auto _ : state) {
        for (int step : {1, 2, 4, 8}) {
            auto out = f.evaluator.rotate(f.ct, step, gk);
            benchmark::DoNotOptimize(out);
        }
    }
}
BENCHMARK(BM_RotateFourSequential)->Iterations(2);

void
BM_RotateFourHoisted(benchmark::State &state)
{
    // Halevi-Shoup hoisting: one decomposition serves all four
    // rotations — compare against BM_RotateFourSequential.
    auto &f = fixture();
    auto gk = f.keygen.makeGaloisKeys({1, 2, 4, 8});
    for (auto _ : state) {
        auto outs = f.evaluator.rotateHoisted(f.ct, {1, 2, 4, 8}, gk);
        benchmark::DoNotOptimize(outs);
    }
}
BENCHMARK(BM_RotateFourHoisted)->Iterations(2);

void
BM_Encode(benchmark::State &state)
{
    auto &f = fixture();
    std::vector<double> values(f.ctx.slots(), 0.25);
    for (auto _ : state) {
        auto out = f.encoder.encode(std::span<const double>(values),
                                    f.ctx.params().scale, 7);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Encode);

/** FxHENN-MNIST client + one level-7 product at the paper's
 * parameters (N = 8192, L = 7), shared by the encrypt/rescale rows. */
struct MnistBench
{
    MnistBench()
        : net(nn::buildMnistNetwork()), params(ckks::mnistParams()),
          plan(hecnn::compile(net, params)), ctx(params),
          session(plan, ctx, /*seed=*/1), input(nn::syntheticInput(net, 7))
    {
        const ckks::Encoder encoder(ctx);
        std::vector<double> values(ctx.slots(), 0.5);
        const auto pt = encoder.encode(std::span<const double>(values),
                                       ctx.params().scale, 7);
        ckks::Evaluator eval(ctx);
        product = eval.mulPlain(session.encryptInput(input, 0).front(), pt);
    }

    nn::Network net;
    ckks::CkksParams params;
    hecnn::HeNetworkPlan plan;
    ckks::CkksContext ctx;
    hecnn::ClientSession session;
    nn::Tensor input;
    ckks::Ciphertext product;
};

MnistBench &
mnistFixture()
{
    static MnistBench bench;
    return bench;
}

void
BM_EncryptInputMnist(benchmark::State &state)
{
    // One MNIST request's client side: pack, encode and encrypt the 25
    // input ciphertexts (division-free sampling and encoding).
    auto &f = mnistFixture();
    std::uint64_t index = 0;
    for (auto _ : state) {
        auto cts = f.session.encryptInput(f.input, index++);
        benchmark::DoNotOptimize(cts);
    }
}
BENCHMARK(BM_EncryptInputMnist)->Iterations(10)->Unit(benchmark::kMillisecond);

void
BM_EncryptInputMnistScalar(benchmark::State &state)
{
    // Scalar-reference column for BM_EncryptInputMnist: dispatch pinned
    // to the scalar kernels, telemetry muted like the other reference
    // rows.
    auto &f = mnistFixture();
    simd::ScopedLevel pin(simd::Level::scalar);
    telemetry::setEnabled(false);
    std::uint64_t index = 0;
    for (auto _ : state) {
        auto cts = f.session.encryptInput(f.input, index++);
        benchmark::DoNotOptimize(cts);
    }
    telemetry::setEnabled(true);
}
BENCHMARK(BM_EncryptInputMnistScalar)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

void
BM_RescaleL7(benchmark::State &state)
{
    // Rescale of a level-7 MNIST ciphertext: NTT-domain limb drop, one
    // inverse NTT per part.
    auto &f = mnistFixture();
    ckks::Evaluator eval(f.ctx);
    for (auto _ : state) {
        auto out = eval.rescale(f.product);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_RescaleL7)->Iterations(200);

void
BM_RescaleL7Scalar(benchmark::State &state)
{
    // Scalar-reference column for BM_RescaleL7, telemetry muted.
    auto &f = mnistFixture();
    ckks::Evaluator eval(f.ctx);
    simd::ScopedLevel pin(simd::Level::scalar);
    telemetry::setEnabled(false);
    for (auto _ : state) {
        auto out = eval.rescale(f.product);
        benchmark::DoNotOptimize(out);
    }
    telemetry::setEnabled(true);
}
BENCHMARK(BM_RescaleL7Scalar)->Iterations(100);

void
BM_EncryptedInference(benchmark::State &state)
{
    // End-to-end encrypted inference on the test-scale network. Runs
    // with telemetry enabled, so BENCH_kernels.json picks up the
    // hecnn.layer.<name>.ns per-layer timing histograms alongside the
    // ckks.op.* counters.
    const auto net = nn::buildTestNetwork();
    const auto params = ckks::testParams(2048, 7, 30);
    const auto plan = hecnn::compile(net, params);
    ckks::CkksContext ctx(params);
    const hecnn::ClientSession session(plan, ctx, /*seed=*/1);
    const hecnn::PlaintextPool pool(plan, ctx);
    const hecnn::PlanExecutor executor(plan, ctx, session.relinKey(),
                                       session.galoisKeys(), pool);
    const nn::Tensor input = nn::syntheticInput(net, 1);
    std::uint64_t request = 0;
    for (auto _ : state) {
        const auto run =
            executor.execute(session.encryptInput(input, request++));
        auto logits = session.decryptLogits(run.regs);
        benchmark::DoNotOptimize(logits);
    }
}
BENCHMARK(BM_EncryptedInference)->Iterations(3)->Unit(benchmark::kMillisecond);

/**
 * One multiply-class entry of the kernel table at n = 8192, called
 * directly through simd::kernelsFor() so the row reads that level's
 * kernel whatever level the process dispatches to (and touches no
 * telemetry). Registered from main() for every reachable level x
 * {30, 50}-bit primes, with pinned iteration counts; the per-call
 * time is the row's Time column.
 */
enum class KernelRow { mulArray, reduceArray, fmaLazyPair,
                       fmaLazyGatherPair, reduceWideArray };

void
BM_Kernel(benchmark::State &state, KernelRow row, simd::Level level,
          unsigned bits)
{
    const std::size_t n = 8192;
    const Modulus q(generateNttPrimes(bits, n, 1)[0]);
    const auto &kern = simd::kernelsFor(level);
    Rng rng(11);
    std::vector<std::uint64_t> a(n), b0(n), b1(n), wide(n), dst(n);
    for (std::size_t k = 0; k < n; ++k) {
        a[k] = rng.uniform(q.value());
        b0[k] = rng.uniform(q.value());
        b1[k] = rng.uniform(q.value());
        // reduceArray's contract: wide[k] < 2^(2*bits).
        wide[k] = bits > 32 ? rng.next() : a[k] * b0[k];
    }
    // The NTT-domain Galois permutation of a rotation by one slot
    // (element 5), the gather the hoisted-rotation keyswitch runs.
    const unsigned log2n = floorLog2(n);
    std::vector<std::uint32_t> perm(n);
    for (std::uint64_t t = 0; t < n; ++t) {
        const std::uint64_t e = (5 * (2 * reverseBits(t, log2n) + 1)) %
                                (2 * n);
        perm[t] =
            static_cast<std::uint32_t>(reverseBits((e - 1) / 2, log2n));
    }
    std::vector<unsigned __int128> acc0(n), acc1(n);
    for (std::size_t k = 0; k < n; ++k) {
        acc0[k] = static_cast<unsigned __int128>(a[k]) * b0[k] * 7;
        acc1[k] = static_cast<unsigned __int128>(a[k]) * b1[k] * 7;
    }
    for (auto _ : state) {
        switch (row) {
        case KernelRow::mulArray:
            kern.mulArray(dst.data(), a.data(), b0.data(), n, q);
            break;
        case KernelRow::reduceArray:
            kern.reduceArray(dst.data(), wide.data(), n, q);
            break;
        case KernelRow::fmaLazyPair:
            kern.fmaLazyPair(acc0.data(), acc1.data(), a.data(), b0.data(),
                             b1.data(), n, q);
            break;
        case KernelRow::fmaLazyGatherPair:
            kern.fmaLazyGatherPair(acc0.data(), acc1.data(), a.data(),
                                   perm.data(), b0.data(), b1.data(), n,
                                   q);
            break;
        case KernelRow::reduceWideArray:
            kern.reduceWideArray(dst.data(), acc0.data(), n, q);
            break;
        }
        benchmark::DoNotOptimize(dst.data());
        benchmark::DoNotOptimize(acc0.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
registerKernelRows()
{
    const std::pair<const char *, KernelRow> rows[] = {
        {"mulArray", KernelRow::mulArray},
        {"reduceArray", KernelRow::reduceArray},
        {"fmaLazyPair", KernelRow::fmaLazyPair},
        {"fmaLazyGatherPair", KernelRow::fmaLazyGatherPair},
        {"reduceWideArray", KernelRow::reduceWideArray},
    };
    for (const auto &[name, row] : rows) {
        for (simd::Level level :
             {simd::Level::scalar, simd::Level::avx2, simd::Level::avx512}) {
            if (!simd::available(level))
                continue;
            for (unsigned bits : {30u, 50u}) {
                benchmark::RegisterBenchmark(
                    (std::string("BM_Kernel/") + name + "/" +
                     simd::levelName(level) + "/q" + std::to_string(bits))
                        .c_str(),
                    BM_Kernel, row, level, bits)
                    ->Iterations(2000);
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off our own flag before google-benchmark sees the argv.
    std::string telemetryPath = "BENCH_kernels.json";
    int outArgc = 0;
    for (int i = 0; i < argc; ++i) {
        constexpr const char *kFlag = "--telemetry-json=";
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
            telemetryPath = argv[i] + std::strlen(kFlag);
        } else {
            argv[outArgc++] = argv[i];
        }
    }
    argc = outArgc;

    registerKernelRows();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    fxhenn::telemetry::setEnabled(true);
    // Stamp the execution identity into the telemetry JSON: one
    // "bench.backend.cpu" and one "bench.simd.<level>" counter.
    // check_bench_regression.py compares these against the committed
    // baseline and refuses to gate a run taken under a different
    // identity or SIMD level — those means are not comparable. The
    // host CPU is the only execution path, so the backend stamp is a
    // constant kept for the baseline's identity check.
    fxhenn::telemetry::counter("bench.backend.cpu").add(1);
    fxhenn::telemetry::counter(
        std::string("bench.simd.") +
        fxhenn::simd::levelName(fxhenn::simd::activeLevel()))
        .add(1);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!telemetryPath.empty()) {
        if (fxhenn::telemetry::writeJsonFile(telemetryPath)) {
            std::cerr << "telemetry written to " << telemetryPath
                      << "\n";
        } else {
            std::cerr << "failed to write telemetry to "
                      << telemetryPath << "\n";
            return 1;
        }
    }
    return 0;
}
