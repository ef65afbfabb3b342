/**
 * @file
 * AVX-512 (IFMA) modular-arithmetic kernels — 8 lanes of 64-bit
 * residues per vector op.
 *
 * The NTT butterflies here are the software analogue of the paper's
 * widened modular-multiply datapath: vpmadd52{lo,hi} gives eight
 * exact 52x52->104-bit multiply-adds per instruction, so the Shoup
 * multiply runs on a 52-bit word (W' = floor(W*2^52/q), derived from
 * the stored 64-bit Shoup constant by >> 12) with Harvey's lazy
 * bounds: butterfly operands stay in [0, 4q) (forward) / [0, 2q)
 * (inverse) and a final pass canonicalizes to [0, q). Because every
 * intermediate is an exactly-determined integer and the final values
 * are canonical residues, the output array is bitwise identical to
 * the scalar reference (tests/modarith/test_simd_differential.cpp).
 *
 * Datapath limit: the lazy bound 4q < 2^52 requires q < 2^50. CKKS
 * data primes are capped at 50 bits (CkksParams::validate), but
 * special primes may reach 60 bits; calls with q >= 2^50 delegate to
 * the avx2 kernel, which has no width limit.
 *
 * Butterfly stages whose stride t is below the 8-lane width are
 * deinterleaved with permutex2var shuffles so they stay vector (one
 * pass covers 16 coefficients); rings below 16 coefficients run the
 * same lazy formulas in scalar code. Since every unit computes the
 * same integers, stages can mix freely.
 */
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "src/modarith/simd_kernels_internal.hpp"

// gcc's unmasked _mm512_min_epu64 passes an _mm512_undefined_epi32()
// merge source the optimizer then flags as maybe-uninitialized; the
// lanes are fully overwritten (mask = all ones), so the warning is a
// false positive.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace fxhenn::simd {
namespace {

constexpr std::uint64_t kMask52 = (std::uint64_t{1} << 52) - 1;

/** q too wide for the 52-bit IFMA datapath (needs 4q < 2^52). */
inline bool
tooWide(std::uint64_t q)
{
    return q >= (std::uint64_t{1} << 50);
}

inline __m512i
loadU64(const std::uint64_t *p)
{
    return _mm512_loadu_si512(reinterpret_cast<const void *>(p));
}

inline void
storeU64(std::uint64_t *p, __m512i v)
{
    _mm512_storeu_si512(reinterpret_cast<void *>(p), v);
}

/** low/high 52 bits of the exact 104-bit product of 52-bit operands. */
inline __m512i
mul52lo(__m512i a, __m512i b)
{
    return _mm512_madd52lo_epu64(_mm512_setzero_si512(), a, b);
}

inline __m512i
mul52hi(__m512i a, __m512i b)
{
    return _mm512_madd52hi_epu64(_mm512_setzero_si512(), a, b);
}

/** x >= bound ? x - bound : x, for x < 2^63 (unsigned-min trick: the
 * subtraction underflows to a huge value exactly when x < bound). */
inline __m512i
csub(__m512i x, __m512i bound)
{
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, bound));
}

/**
 * Harvey/Shoup multiply on the 52-bit word: W*X mod q in [0, 2q) for
 * any X < 2^52, W < q, Wp = floor(W*2^52/q). The masked subtraction
 * is exact because the true remainder is below 2^52.
 */
inline __m512i
shoup52(__m512i x, __m512i w, __m512i wp, __m512i q, __m512i m52)
{
    const __m512i quot = mul52hi(x, wp);
    const __m512i r =
        _mm512_sub_epi64(mul52lo(x, w), mul52lo(quot, q));
    return _mm512_and_si512(r, m52);
}

/** Scalar twin of shoup52 for tiny rings and tails. */
inline std::uint64_t
shoup52Scalar(std::uint64_t x, std::uint64_t w, std::uint64_t wp,
              std::uint64_t q)
{
    const std::uint64_t quot = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * wp) >> 52);
    return (x * w - quot * q) & kMask52;
}

/**
 * Shuffle plan for butterfly strides below the 8-lane width. Two
 * consecutive vectors (16 coefficients) are deinterleaved into an X
 * (upper-wing) and Y (lower-wing) vector, butterflied, and woven
 * back. Twiddles for the covered groups are contiguous in the table,
 * so one load + permutexvar spreads them across the lanes.
 */
struct SmallStride
{
    __m512i xIdx;   ///< permutex2var: gather upper wings from (v0,v1)
    __m512i yIdx;   ///< permutex2var: gather lower wings
    __m512i out0Idx; ///< permutex2var: weave (X', Y') into a[base..+8)
    __m512i out1Idx; ///< permutex2var: weave into a[base+8..+16)
    __m512i twIdx;  ///< permutexvar: spread loaded twiddles per lane
    std::uint64_t groups; ///< butterfly groups per 16 coefficients
};

inline SmallStride
smallStridePlan(std::uint64_t t)
{
    auto idx = [](long long a, long long b, long long c, long long d,
                  long long e, long long f, long long g, long long h) {
        return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
    };
    SmallStride p;
    if (t == 4) {
        p.xIdx = idx(0, 1, 2, 3, 8, 9, 10, 11);
        p.yIdx = idx(4, 5, 6, 7, 12, 13, 14, 15);
        p.out0Idx = idx(0, 1, 2, 3, 8, 9, 10, 11);
        p.out1Idx = idx(4, 5, 6, 7, 12, 13, 14, 15);
        p.twIdx = idx(0, 0, 0, 0, 1, 1, 1, 1);
        p.groups = 2;
    } else if (t == 2) {
        p.xIdx = idx(0, 1, 4, 5, 8, 9, 12, 13);
        p.yIdx = idx(2, 3, 6, 7, 10, 11, 14, 15);
        p.out0Idx = idx(0, 1, 8, 9, 2, 3, 10, 11);
        p.out1Idx = idx(4, 5, 12, 13, 6, 7, 14, 15);
        p.twIdx = idx(0, 0, 1, 1, 2, 2, 3, 3);
        p.groups = 4;
    } else { // t == 1
        p.xIdx = idx(0, 2, 4, 6, 8, 10, 12, 14);
        p.yIdx = idx(1, 3, 5, 7, 9, 11, 13, 15);
        p.out0Idx = idx(0, 8, 1, 9, 2, 10, 3, 11);
        p.out1Idx = idx(4, 12, 5, 13, 6, 14, 7, 15);
        p.twIdx = idx(0, 1, 2, 3, 4, 5, 6, 7);
        p.groups = 8;
    }
    return p;
}

void
nttForwardAvx512(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q)
{
    if (tooWide(q)) {
        detail::avx2Kernels().nttForward(a, n, w, wShoup, q);
        return;
    }
    const std::uint64_t q2 = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i q2v = _mm512_set1_epi64(static_cast<long long>(q2));
    const __m512i m52 = _mm512_set1_epi64(static_cast<long long>(kMask52));

    // Cooley-Tukey DIT, lazy Harvey butterflies: operands in [0, 4q).
    std::uint64_t t = n;
    for (std::uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 8) {
            for (std::uint64_t i = 0; i < m; ++i) {
                const __m512i wv = _mm512_set1_epi64(
                    static_cast<long long>(w[m + i]));
                const __m512i wpv = _mm512_set1_epi64(
                    static_cast<long long>(wShoup[m + i] >> 12));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 8) {
                    const __m512i x = csub(loadU64(a + j), q2v);
                    const __m512i v =
                        shoup52(loadU64(a + j + t), wv, wpv, qv, m52);
                    storeU64(a + j, _mm512_add_epi64(x, v));
                    storeU64(a + j + t,
                             _mm512_add_epi64(_mm512_sub_epi64(x, v),
                                              q2v));
                }
            }
        } else if (n >= 16) {
            // Sub-width strides: one shuffled pass over the whole
            // row, 16 coefficients (p.groups butterfly groups) at a
            // time. Twiddles w[m..2m) are contiguous, so the group
            // block starting at coefficient `base` uses the p.groups
            // twiddles at w[m + base/(2t)).
            const SmallStride p = smallStridePlan(t);
            for (std::uint64_t base = 0, g = 0; base < n;
                 base += 16, g += p.groups) {
                const __m512i wv = _mm512_permutexvar_epi64(
                    p.twIdx, loadU64(w + m + g));
                const __m512i wpv = _mm512_srli_epi64(
                    _mm512_permutexvar_epi64(p.twIdx,
                                             loadU64(wShoup + m + g)),
                    12);
                const __m512i v0 = loadU64(a + base);
                const __m512i v1 = loadU64(a + base + 8);
                const __m512i x = csub(
                    _mm512_permutex2var_epi64(v0, p.xIdx, v1), q2v);
                const __m512i v = shoup52(
                    _mm512_permutex2var_epi64(v0, p.yIdx, v1), wv, wpv,
                    qv, m52);
                const __m512i xn = _mm512_add_epi64(x, v);
                const __m512i yn = _mm512_add_epi64(
                    _mm512_sub_epi64(x, v), q2v);
                storeU64(a + base,
                         _mm512_permutex2var_epi64(xn, p.out0Idx, yn));
                storeU64(a + base + 8,
                         _mm512_permutex2var_epi64(xn, p.out1Idx, yn));
            }
        } else {
            for (std::uint64_t i = 0; i < m; ++i) {
                const std::uint64_t wi = w[m + i];
                const std::uint64_t wp = wShoup[m + i] >> 12;
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    std::uint64_t x = a[j];
                    if (x >= q2)
                        x -= q2;
                    const std::uint64_t v =
                        shoup52Scalar(a[j + t], wi, wp, q);
                    a[j] = x + v;
                    a[j + t] = x - v + q2;
                }
            }
        }
    }
    // Canonicalize [0, 4q) -> [0, q); outputs now match the scalar
    // reference bitwise.
    std::uint64_t k = 0;
    for (; k + 8 <= n; k += 8)
        storeU64(a + k, csub(csub(loadU64(a + k), q2v), qv));
    for (; k < n; ++k) {
        if (a[k] >= q2)
            a[k] -= q2;
        if (a[k] >= q)
            a[k] -= q;
    }
}

void
nttInverseAvx512(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q,
                 std::uint64_t invN, std::uint64_t invNShoup)
{
    if (tooWide(q)) {
        detail::avx2Kernels().nttInverse(a, n, w, wShoup, q, invN,
                                         invNShoup);
        return;
    }
    const std::uint64_t q2 = 2 * q;
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
    const __m512i q2v = _mm512_set1_epi64(static_cast<long long>(q2));
    const __m512i m52 = _mm512_set1_epi64(static_cast<long long>(kMask52));

    // Gentleman-Sande DIF, lazy: operands stay in [0, 2q).
    std::uint64_t t = 1;
    for (std::uint64_t m = n; m > 1; m >>= 1) {
        const std::uint64_t h = m >> 1;
        if (t >= 8) {
            for (std::uint64_t i = 0; i < h; ++i) {
                const __m512i wv = _mm512_set1_epi64(
                    static_cast<long long>(w[h + i]));
                const __m512i wpv = _mm512_set1_epi64(
                    static_cast<long long>(wShoup[h + i] >> 12));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 8) {
                    const __m512i x = loadU64(a + j);
                    const __m512i y = loadU64(a + j + t);
                    const __m512i diff = _mm512_add_epi64(
                        _mm512_sub_epi64(x, y), q2v);
                    storeU64(a + j,
                             csub(_mm512_add_epi64(x, y), q2v));
                    storeU64(a + j + t,
                             shoup52(diff, wv, wpv, qv, m52));
                }
            }
        } else if (n >= 16) {
            const SmallStride p = smallStridePlan(t);
            for (std::uint64_t base = 0, g = 0; base < n;
                 base += 16, g += p.groups) {
                const __m512i wv = _mm512_permutexvar_epi64(
                    p.twIdx, loadU64(w + h + g));
                const __m512i wpv = _mm512_srli_epi64(
                    _mm512_permutexvar_epi64(p.twIdx,
                                             loadU64(wShoup + h + g)),
                    12);
                const __m512i v0 = loadU64(a + base);
                const __m512i v1 = loadU64(a + base + 8);
                const __m512i x =
                    _mm512_permutex2var_epi64(v0, p.xIdx, v1);
                const __m512i y =
                    _mm512_permutex2var_epi64(v0, p.yIdx, v1);
                const __m512i diff =
                    _mm512_add_epi64(_mm512_sub_epi64(x, y), q2v);
                const __m512i xn = csub(_mm512_add_epi64(x, y), q2v);
                const __m512i yn = shoup52(diff, wv, wpv, qv, m52);
                storeU64(a + base,
                         _mm512_permutex2var_epi64(xn, p.out0Idx, yn));
                storeU64(a + base + 8,
                         _mm512_permutex2var_epi64(xn, p.out1Idx, yn));
            }
        } else {
            for (std::uint64_t i = 0; i < h; ++i) {
                const std::uint64_t wi = w[h + i];
                const std::uint64_t wp = wShoup[h + i] >> 12;
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    const std::uint64_t x = a[j];
                    const std::uint64_t y = a[j + t];
                    std::uint64_t s = x + y;
                    if (s >= q2)
                        s -= q2;
                    a[j] = s;
                    a[j + t] = shoup52Scalar(x - y + q2, wi, wp, q);
                }
            }
        }
        t <<= 1;
    }
    // Merged N^-1 scaling + canonicalization: shoup52 lands in
    // [0, 2q), one conditional subtraction reaches [0, q).
    const std::uint64_t invNp = invNShoup >> 12;
    const __m512i invNv = _mm512_set1_epi64(static_cast<long long>(invN));
    const __m512i invNpv =
        _mm512_set1_epi64(static_cast<long long>(invNp));
    std::uint64_t k = 0;
    for (; k + 8 <= n; k += 8)
        storeU64(a + k,
                 csub(shoup52(loadU64(a + k), invNv, invNpv, qv, m52),
                      qv));
    for (; k < n; ++k) {
        const std::uint64_t r = shoup52Scalar(a[k], invN, invNp, q);
        a[k] = r >= q ? r - q : r;
    }
}

void
subScaleArrayAvx512(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *b, std::size_t n, const Modulus &q,
                    std::uint64_t w, std::uint64_t wShoup)
{
    const std::uint64_t qw = q.value();
    if (tooWide(qw)) {
        detail::avx2Kernels().subScaleArray(dst, a, b, n, q, w, wShoup);
        return;
    }
    const __m512i qv = _mm512_set1_epi64(static_cast<long long>(qw));
    const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w));
    const __m512i wpv =
        _mm512_set1_epi64(static_cast<long long>(wShoup >> 12));
    const __m512i m52 = _mm512_set1_epi64(static_cast<long long>(kMask52));
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        // a - b + q lies in [1, 2q) < 2^52: shoup52 takes it unreduced
        // and lands in [0, 2q); one csub canonicalizes.
        const __m512i x = _mm512_add_epi64(
            _mm512_sub_epi64(loadU64(a + k), loadU64(b + k)), qv);
        storeU64(dst + k, csub(shoup52(x, wv, wpv, qv, m52), qv));
    }
    for (; k < n; ++k)
        dst[k] = q.mulShoup(q.sub(a[k], b[k]), w, wShoup);
}

} // namespace

namespace detail {

const Kernels &
avx512Kernels()
{
    // The NTT and the limb-drop tail (a Shoup multiply by one scalar)
    // run on the IFMA datapath; the other array kernels reuse the avx2
    // implementations (already vector, and the 128-bit lazy
    // accumulator is bound by the 64x64 multiply either way).
    static const Kernels table = [] {
        Kernels k = avx2Kernels();
        k.level = Level::avx512;
        k.width = laneWidth(Level::avx512);
        k.nttForward = &nttForwardAvx512;
        k.nttInverse = &nttInverseAvx512;
        k.subScaleArray = &subScaleArrayAvx512;
        return k;
    }();
    return table;
}

} // namespace detail
} // namespace fxhenn::simd
