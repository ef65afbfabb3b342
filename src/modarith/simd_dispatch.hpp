/**
 * @file
 * Runtime-dispatched SIMD backend for the modular-arithmetic hot path.
 *
 * The software analogue of widening the paper's modular-multiply
 * datapath: every kernel that dominates encrypted inference (NTT
 * butterflies, Barrett/Shoup modmul sweeps, the 128-bit lazy keyswitch
 * inner product) is routed through a table of function pointers chosen
 * once at startup. Two implementations exist:
 *
 *  - scalar: the original loops, moved verbatim into
 *    simd_kernels_scalar.cpp. This is the bitwise reference — the
 *    KswMode::eager of this subsystem — and the portable fallback on
 *    hosts or builds without vector units.
 *  - avx2: 4-lane AVX2 kernels (simd_kernels_avx2.cpp, compiled with
 *    -mavx2 for that one translation unit only). 64x64->128
 *    multiplies are built exactly from 32-bit partial products, so
 *    every lane computes the same integers as the scalar path and the
 *    outputs are bitwise identical. The lazy FMA entries stay scalar
 *    here: built that way they were no faster than the scalar loops.
 *  - avx512: 8-lane AVX-512 kernels (simd_kernels_avx512.cpp, compiled
 *    with -mavx512f/-mavx512ifma/... for that TU only). Every
 *    multiply-class kernel (NTT butterflies, Barrett mul/fma/reduce
 *    sweeps, the limb-drop tail, the paired lazy FMAs and the
 *    deferred 128-bit reduction) runs on vpmadd52 (52-bit IFMA); add
 *    and sub reuse avx2. Each IFMA kernel computes exactly determined
 *    integers and canonical outputs, so results stay bitwise
 *    identical to scalar. Moduli too wide for the 52-bit datapath
 *    (q >= 2^50) delegate that call to the avx2 entry.
 *
 * Selection contract (resolveLevel() is the pure, unit-testable core):
 *  - env FXHENN_SIMD=scalar|avx2|avx512|auto (unset/empty == auto);
 *    any other value throws ConfigError (CLI exit code 3);
 *  - auto picks the widest level that is both compiled in and
 *    supported by the host CPU;
 *  - a recognized level that is unavailable (not compiled in, or the
 *    host lacks the ISA) falls back to scalar gracefully — requesting
 *    avx512 on a non-AVX-512 machine must degrade, not crash.
 *
 * Telemetry: resolving or forcing a level publishes the lane width to
 * the "modarith.simd.width" counter (1 = scalar, 4 = avx2,
 * 8 = avx512); dispatch sites count "modarith.simd.dispatches" so
 * benches record which path ran and how often.
 *
 * Thread-safety: activeLevel() resolves once under an atomic and is
 * safe to call concurrently. forceLevel()/resetForTest() are test/bench
 * hooks and must not race live kernel dispatches.
 */
#ifndef FXHENN_MODARITH_SIMD_DISPATCH_HPP
#define FXHENN_MODARITH_SIMD_DISPATCH_HPP

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/modarith/modulus.hpp"

namespace fxhenn::simd {

/** Dispatch levels, narrowest first. Availability is monotone by
 * construction: avx512 is only compiled/supported where avx2 is. */
enum class Level { scalar = 0, avx2 = 1, avx512 = 2 };

/** "scalar", "avx2" or "avx512". */
const char *levelName(Level level);

/** Lanes of 64-bit residues one vector op covers (1, 4 or 8). */
unsigned laneWidth(Level level);

/**
 * Parse a FXHENN_SIMD value. "auto" (or empty) returns nullopt;
 * "scalar"/"avx2"/"avx512" return the level; anything else throws
 * ConfigError.
 */
std::optional<Level> parseLevel(std::string_view text);

/** Was the kernel translation unit for @p level compiled into the
 * binary? (scalar: always; avx2/avx512: only when CMake found the ISA
 * flags and FXHENN_SIMD=ON). */
bool compiledIn(Level level);

/** Does the host CPU execute @p level? (scalar: always.) */
bool hostSupports(Level level);

/** compiledIn() && hostSupports(): the level is dispatchable here. */
bool available(Level level);

/**
 * The pure selection rule: @p requested (nullopt == auto) resolved
 * against @p widestAvailable (the top of the availability ladder).
 * Explicit requests above the ladder degrade to scalar; auto picks
 * the widest available level.
 */
Level resolveLevel(std::optional<Level> requested, Level widestAvailable);

/**
 * The level every dispatch site uses, resolved once from FXHENN_SIMD
 * and CPU detection on first call. Publishes "modarith.simd.width".
 */
Level activeLevel();

/** Test/bench hook: pin dispatch to @p level (must be available(),
 * else ConfigError). */
void forceLevel(Level level);

/** Test hook: drop the resolved level so the next activeLevel()
 * re-reads FXHENN_SIMD. */
void resetForTest();

/**
 * The kernel table. All kernels are element-exact re-derivations of
 * the Modulus/NttTables scalar arithmetic: for identical inputs every
 * implementation must produce identical output bytes (enforced by
 * tests/modarith/test_simd_differential.cpp — a new kernel does not
 * land without a row there).
 *
 * Aliasing: dst may alias a (in-place update); all other operands must
 * not overlap dst. Lengths are in 64-bit elements; no alignment is
 * required (kernels use unaligned loads) and ragged tails of any
 * length are handled internally.
 */
struct Kernels
{
    Level level;
    unsigned width;

    /** Full forward negacyclic NTT pass (Cooley-Tukey DIT, Shoup
     * butterflies) over a[0..n), tables in bit-reversed order. */
    void (*nttForward)(std::uint64_t *a, std::uint64_t n,
                       const std::uint64_t *w, const std::uint64_t *wShoup,
                       std::uint64_t q);

    /** Full inverse pass (Gentleman-Sande) including the final N^-1
     * scaling. */
    void (*nttInverse)(std::uint64_t *a, std::uint64_t n,
                       const std::uint64_t *w, const std::uint64_t *wShoup,
                       std::uint64_t q, std::uint64_t invN,
                       std::uint64_t invNShoup);

    /** dst[k] = (a[k] + b[k]) mod q. */
    void (*addArray)(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, std::size_t n,
                     const Modulus &q);

    /** dst[k] = (a[k] - b[k]) mod q. */
    void (*subArray)(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, std::size_t n,
                     const Modulus &q);

    /** dst[k] = (a[k] * b[k]) mod q (Barrett). */
    void (*mulArray)(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, std::size_t n,
                     const Modulus &q);

    /** dst[k] = (dst[k] + a[k] * b[k]) mod q (Barrett mul, then add). */
    void (*fmaModArray)(std::uint64_t *dst, const std::uint64_t *a,
                        const std::uint64_t *b, std::size_t n,
                        const Modulus &q);

    /** dst[k] = src[k] mod q via Barrett reduce(); requires
     * src[k] < 2^(2*q.bits()) — the ModUp base-extension sweep. */
    void (*reduceArray)(std::uint64_t *dst, const std::uint64_t *src,
                        std::size_t n, const Modulus &q);

    /** dst[k] = ((a[k] - b[k]) mod q) * w mod q, with w < q and
     * wShoup = q.shoupConstant(w) — the NTT-domain tail of a limb drop
     * (rescale, ModDown): subtract the extended dropped limb, multiply
     * by the dropped prime's inverse. */
    void (*subScaleArray)(std::uint64_t *dst, const std::uint64_t *a,
                          const std::uint64_t *b, std::size_t n,
                          const Modulus &q, std::uint64_t w,
                          std::uint64_t wShoup);

    /** acc0[k] += a[k] * b0[k] and acc1[k] += a[k] * b1[k],
     * unreduced 128-bit lanes: one digit limb times both key parts
     * of the lazy keyswitch inner product, a loaded once for both.
     * Requires a[k], b0[k], b1[k] < q; acc0 and acc1 do not
     * overlap. */
    void (*fmaLazyPair)(unsigned __int128 *acc0, unsigned __int128 *acc1,
                        const std::uint64_t *a, const std::uint64_t *b0,
                        const std::uint64_t *b1, std::size_t n,
                        const Modulus &q);

    /** fmaLazyPair with a[perm[k]] in place of a[k] (the
     * hoisted-rotation gather FMA; each a[perm[k]] is gathered once
     * for both accumulators). */
    void (*fmaLazyGatherPair)(unsigned __int128 *acc0,
                              unsigned __int128 *acc1,
                              const std::uint64_t *a,
                              const std::uint32_t *perm,
                              const std::uint64_t *b0,
                              const std::uint64_t *b1, std::size_t n,
                              const Modulus &q);

    /** dst[k] = acc[k] mod q via reduceWide() — the single deferred
     * reduction closing a lazy accumulation. */
    void (*reduceWideArray)(std::uint64_t *dst,
                            const unsigned __int128 *acc, std::size_t n,
                            const Modulus &q);
};

/** The table for activeLevel() — what every hot-path site dispatches
 * through. */
const Kernels &kernels();

/** The table for a specific @p level (must be available(); the
 * differential tests iterate reachable levels through this). */
const Kernels &kernelsFor(Level level);

/** RAII pin to a level for a test/bench scope; restores the previous
 * resolution on destruction. */
class ScopedLevel
{
  public:
    explicit ScopedLevel(Level level);
    ~ScopedLevel();
    ScopedLevel(const ScopedLevel &) = delete;
    ScopedLevel &operator=(const ScopedLevel &) = delete;

  private:
    Level previous_;
};

} // namespace fxhenn::simd

#endif // FXHENN_MODARITH_SIMD_DISPATCH_HPP
