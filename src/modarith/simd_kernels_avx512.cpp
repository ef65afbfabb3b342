/**
 * @file
 * AVX-512 (IFMA) modular-arithmetic kernels — 8 lanes of 64-bit
 * residues per vector op.
 *
 * The software analogue of the paper's pipelined modular-multiply
 * datapath: vpmadd52{lo,hi} gives eight exact 52x52->104-bit
 * multiply-adds per instruction, and every multiply-class kernel of
 * the table runs on it.
 *
 *  - NTT butterflies and the limb-drop tail: Shoup multiplies on the
 *    52-bit word (W' = floor(W*2^52/q), derived from the stored
 *    64-bit Shoup constant by >> 12). The butterflies keep Harvey's
 *    lazy bounds — operands in [0, 4q) (forward) / [0, 2q) (inverse)
 *    — and a final pass canonicalizes to [0, q).
 *  - mulArray, fmaModArray, reduceArray: Modulus::reduce()'s Barrett
 *    step re-derived on the 52-bit word (Barrett52), quotient for
 *    quotient.
 *  - The paired lazy FMAs: exact 100-bit products regrouped into the
 *    scalar u128 accumulator layout, with an explicit low-to-high
 *    carry.
 *  - reduceWideArray: a 128-bit value split into three 52-bit digits,
 *    each Shoup-multiplied by its power of 2^52 mod q, then
 *    canonicalized.
 *
 * Every intermediate is an exactly-determined integer and every output
 * a canonical residue (or the exact u128 sum), so the outputs are
 * bitwise identical to the scalar reference
 * (tests/modarith/test_simd_differential.cpp).
 *
 * Datapath limit: products and Barrett remainders must stay below
 * 2^52 (4q < 2^52 for the lazy butterflies, 3q for Barrett, operands
 * below 2^52 for the products), so every kernel here requires
 * q < 2^50. CKKS data primes are capped at 50 bits
 * (CkksParams::validate), but special primes may reach 60 bits;
 * calls with q >= 2^50 delegate to the avx2 entry of the same kernel.
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

/** q too wide for the 52-bit IFMA datapath (the NTT needs 4q < 2^52). */
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

/**
 * Modulus::reduce() on the 52-bit word, for q < 2^50 with n =
 * q.bits(). For x = hi * 2^52 + lo < 2^(2n) (lo < 2^52),
 * q1 = x >> (n-1) < 2^(n+1) and q3 = madd52hi(q1, mu * 2^(51-n)) =
 * floor(q1 * mu / 2^(n+1)): the scalar quotient estimate, integer for
 * integer (mu < 2^(n+1), so mu * 2^(51-n) fits the 52-bit operand).
 * r = x - q3 * q lies in [0, 3q) < 2^52, so its low 52 bits are
 * exact, and two csubs canonicalize as the scalar path does.
 */
struct Barrett52
{
    explicit Barrett52(const Modulus &mod)
        : q(_mm512_set1_epi64(static_cast<long long>(mod.value()))),
          mu(_mm512_set1_epi64(static_cast<long long>(
              mod.barrettMu() << (51 - mod.bits())))),
          m52(_mm512_set1_epi64(static_cast<long long>(kMask52))),
          loShift(_mm_cvtsi32_si128(static_cast<int>(mod.bits() - 1))),
          hiShift(_mm_cvtsi32_si128(static_cast<int>(53 - mod.bits())))
    {}

    __m512i
    reduce(__m512i lo, __m512i hi) const
    {
        const __m512i q1 = _mm512_or_si512(_mm512_srl_epi64(lo, loShift),
                                           _mm512_sll_epi64(hi, hiShift));
        const __m512i q3 = mul52hi(q1, mu);
        const __m512i r =
            _mm512_and_si512(_mm512_sub_epi64(lo, mul52lo(q3, q)), m52);
        return csub(csub(r, q), q);
    }

    /** (x * y) mod q for x, y < q: the exact 100-bit product is
     * (madd52hi, madd52lo). */
    __m512i
    mul(__m512i x, __m512i y) const
    {
        return reduce(mul52lo(x, y), mul52hi(x, y));
    }

    __m512i q, mu, m52;
    __m128i loShift, hiShift;
};

void
mulArrayAvx512(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().mulArray(dst, a, b, n, q);
        return;
    }
    const Barrett52 bar(q);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8)
        storeU64(dst + k, bar.mul(loadU64(a + k), loadU64(b + k)));
    for (; k < n; ++k)
        dst[k] = q.mul(a[k], b[k]);
}

void
fmaModArrayAvx512(std::uint64_t *dst, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().fmaModArray(dst, a, b, n, q);
        return;
    }
    const Barrett52 bar(q);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i p = bar.mul(loadU64(a + k), loadU64(b + k));
        storeU64(dst + k,
                 csub(_mm512_add_epi64(loadU64(dst + k), p), bar.q));
    }
    for (; k < n; ++k)
        dst[k] = q.add(dst[k], q.mul(a[k], b[k]));
}

void
reduceArrayAvx512(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().reduceArray(dst, src, n, q);
        return;
    }
    const Barrett52 bar(q);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = loadU64(src + k);
        storeU64(dst + k, bar.reduce(_mm512_and_si512(x, bar.m52),
                                     _mm512_srli_epi64(x, 52)));
    }
    for (; k < n; ++k)
        dst[k] = q.reduce(src[k]);
}

// --- 128-bit lazy keyswitch inner product -------------------------------
//
// The accumulators keep the scalar memory layout (little-endian u128,
// i.e. interleaved [lo0, hi0, lo1, hi1, ...] u64 words), so every
// level leaves the same bytes behind.

/** mem[0..4) u128 += p, p holding four u128 values in memory order:
 * 64-bit adds, then each low word's carry into its high word. */
inline void
addU128(unsigned __int128 *mem, __m512i p)
{
    auto *words = reinterpret_cast<std::uint64_t *>(mem);
    const __m512i sum = _mm512_add_epi64(loadU64(words), p);
    // A low word (even lane) carried out iff it wrapped below p.
    const __mmask8 carry = _mm512_mask_cmplt_epu64_mask(0x55, sum, p);
    storeU64(words, _mm512_mask_add_epi64(sum, _kshiftli_mask8(carry, 1),
                                          sum, _mm512_set1_epi64(1)));
}

/** acc[0..8) += x * y for x, y < 2^50: the exact product is
 * hi52 * 2^52 + lo52 (madd52), regrouped into 64-bit halves and woven
 * into the u128 memory order. */
inline void
fmaU128(unsigned __int128 *acc, __m512i x, __m512i y)
{
    const __m512i plo = mul52lo(x, y);
    const __m512i phi = mul52hi(x, y);
    const __m512i lo = _mm512_or_si512(plo, _mm512_slli_epi64(phi, 52));
    const __m512i hi = _mm512_srli_epi64(phi, 12);
    addU128(acc, _mm512_permutex2var_epi64(
                     lo, _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11), hi));
    addU128(acc + 4,
            _mm512_permutex2var_epi64(
                lo, _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15), hi));
}

void
fmaLazyPairAvx512(unsigned __int128 *acc0, unsigned __int128 *acc1,
                  const std::uint64_t *a, const std::uint64_t *b0,
                  const std::uint64_t *b1, std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().fmaLazyPair(acc0, acc1, a, b0, b1, n, q);
        return;
    }
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i x = loadU64(a + k);
        fmaU128(acc0 + k, x, loadU64(b0 + k));
        fmaU128(acc1 + k, x, loadU64(b1 + k));
    }
    for (; k < n; ++k) {
        acc0[k] += static_cast<unsigned __int128>(a[k]) * b0[k];
        acc1[k] += static_cast<unsigned __int128>(a[k]) * b1[k];
    }
}

void
fmaLazyGatherPairAvx512(unsigned __int128 *acc0, unsigned __int128 *acc1,
                        const std::uint64_t *a, const std::uint32_t *perm,
                        const std::uint64_t *b0, const std::uint64_t *b1,
                        std::size_t n, const Modulus &q)
{
    if (tooWide(q.value())) {
        detail::avx2Kernels().fmaLazyGatherPair(acc0, acc1, a, perm, b0,
                                                b1, n, q);
        return;
    }
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(perm + k));
        const __m512i x = _mm512_i32gather_epi64(idx, a, 8);
        fmaU128(acc0 + k, x, loadU64(b0 + k));
        fmaU128(acc1 + k, x, loadU64(b1 + k));
    }
    for (; k < n; ++k) {
        const std::uint64_t x = a[perm[k]];
        acc0[k] += static_cast<unsigned __int128>(x) * b0[k];
        acc1[k] += static_cast<unsigned __int128>(x) * b1[k];
    }
}

/**
 * dst[k] = acc[k] mod q for any 128-bit acc[k], q < 2^50. Each x is
 * split into 52-bit digits x = d0 + d1 * 2^52 + d2 * 2^104 (d2 <
 * 2^24), and digit i goes through the 52-bit Shoup multiply by
 * 2^(52i) mod q, landing in [0, 2q). The sum lies in [0, 6q) < 2^53
 * and three csubs (4q, 2q, q) canonicalize it.
 */
void
reduceWideArrayAvx512(std::uint64_t *dst, const unsigned __int128 *acc,
                      std::size_t n, const Modulus &q)
{
    const std::uint64_t qw = q.value();
    if (tooWide(qw)) {
        detail::avx2Kernels().reduceWideArray(dst, acc, n, q);
        return;
    }
    using u128 = unsigned __int128;
    const auto shoup52Constant = [qw](std::uint64_t w) {
        return _mm512_set1_epi64(
            static_cast<long long>((static_cast<u128>(w) << 52) / qw));
    };
    const auto set1 = [](std::uint64_t v) {
        return _mm512_set1_epi64(static_cast<long long>(v));
    };
    const std::uint64_t r52 =
        static_cast<std::uint64_t>((static_cast<u128>(1) << 52) % qw);
    const std::uint64_t r104 =
        static_cast<std::uint64_t>(static_cast<u128>(r52) * r52 % qw);
    const __m512i qv = set1(qw), q2v = set1(2 * qw), q4v = set1(4 * qw);
    const __m512i m52 = set1(kMask52);
    const __m512i w0 = set1(1), w0p = shoup52Constant(1);
    const __m512i w1 = set1(r52), w1p = shoup52Constant(r52);
    const __m512i w2 = set1(r104), w2p = shoup52Constant(r104);
    const __m512i evens = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i odds = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const auto *words = reinterpret_cast<const std::uint64_t *>(acc);
    std::size_t k = 0;
    for (; k + 8 <= n; k += 8) {
        const __m512i v0 = loadU64(words + 2 * k);
        const __m512i v1 = loadU64(words + 2 * k + 8);
        const __m512i xl = _mm512_permutex2var_epi64(v0, evens, v1);
        const __m512i xh = _mm512_permutex2var_epi64(v0, odds, v1);
        const __m512i d0 = _mm512_and_si512(xl, m52);
        const __m512i d1 = _mm512_and_si512(
            _mm512_or_si512(_mm512_srli_epi64(xl, 52),
                            _mm512_slli_epi64(xh, 12)),
            m52);
        const __m512i d2 = _mm512_srli_epi64(xh, 40);
        const __m512i sum = _mm512_add_epi64(
            _mm512_add_epi64(shoup52(d0, w0, w0p, qv, m52),
                             shoup52(d1, w1, w1p, qv, m52)),
            shoup52(d2, w2, w2p, qv, m52));
        storeU64(dst + k, csub(csub(csub(sum, q4v), q2v), qv));
    }
    for (; k < n; ++k)
        dst[k] = q.reduceWide(acc[k]);
}

} // namespace

namespace detail {

const Kernels &
avx512Kernels()
{
    // Every multiply-class entry has an IFMA version; add/sub are
    // not multiply-bound and reuse the avx2 kernels. Each IFMA
    // kernel delegates calls with q >= 2^50 to its avx2 entry.
    static const Kernels table = [] {
        Kernels k = avx2Kernels();
        k.level = Level::avx512;
        k.width = laneWidth(Level::avx512);
        k.nttForward = &nttForwardAvx512;
        k.nttInverse = &nttInverseAvx512;
        k.mulArray = &mulArrayAvx512;
        k.fmaModArray = &fmaModArrayAvx512;
        k.reduceArray = &reduceArrayAvx512;
        k.subScaleArray = &subScaleArrayAvx512;
        k.fmaLazyPair = &fmaLazyPairAvx512;
        k.fmaLazyGatherPair = &fmaLazyGatherPairAvx512;
        k.reduceWideArray = &reduceWideArrayAvx512;
        return k;
    }();
    return table;
}

} // namespace detail
} // namespace fxhenn::simd
