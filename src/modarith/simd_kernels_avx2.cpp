/**
 * @file
 * AVX2 modular-arithmetic kernels: 4 lanes of 64-bit residues per op.
 *
 * Compiled with -mavx2 for THIS translation unit only (see
 * src/modarith/CMakeLists.txt); nothing here may be called unless
 * simd::hostSupports(Level::avx2) — the dispatcher guarantees that.
 *
 * Bitwise-identity discipline: AVX2 has no 64x64->128 multiply, so
 * every wide product is assembled from _mm256_mul_epu32 32-bit partial
 * products with explicit carry handling — exact integer arithmetic,
 * never floating-point tricks — and every conditional subtract mirrors
 * the scalar formulation. All intermediate values compared with
 * _mm256_cmpgt_epi64 are < 2^62 (operands < 3q, q < 2^60), so the
 * signed comparison is safe; genuinely unsigned comparisons (carry
 * detection) go through the sign-flip trick in cmpGtU64(). The
 * differential suite (tests/modarith/test_simd_differential.cpp,
 * tests/property/test_simd_properties.cpp) holds these kernels to
 * byte equality with simd_kernels_scalar.cpp on every preset prime,
 * boundary operand and ragged tail.
 */
#include <immintrin.h>

#include "src/modarith/ntt.hpp"
#include "src/modarith/simd_kernels_internal.hpp"

namespace fxhenn::simd {
namespace {

inline __m256i
loadU64(const std::uint64_t *p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

inline void
storeU64(std::uint64_t *p, __m256i v)
{
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
}

/** Low 64 bits of a[k] * b[k] (wrapping), per lane. */
inline __m256i
mulLo64(__m256i a, __m256i b)
{
    const __m256i aHi = _mm256_srli_epi64(a, 32);
    const __m256i bHi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);
    const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(aHi, b),
                                           _mm256_mul_epu32(a, bHi));
    return _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
}

/** Full 128-bit product per lane: lo and hi 64-bit halves, exact. */
inline void
mul64(__m256i a, __m256i b, __m256i &lo, __m256i &hi)
{
    const __m256i loMask = _mm256_set1_epi64x(0xffffffffll);
    const __m256i aHi = _mm256_srli_epi64(a, 32);
    const __m256i bHi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);     // a0*b0
    const __m256i hl = _mm256_mul_epu32(aHi, b);   // a1*b0
    const __m256i lh = _mm256_mul_epu32(a, bHi);   // a0*b1
    const __m256i hh = _mm256_mul_epu32(aHi, bHi); // a1*b1
    // mid = (a0*b0 >> 32) + lo32(a1*b0) + lo32(a0*b1) < 3 * 2^32
    const __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                         _mm256_and_si256(hl, loMask)),
        _mm256_and_si256(lh, loMask));
    hi = _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(mid, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(lh, 32)));
    lo = _mm256_add_epi64(ll,
                          _mm256_slli_epi64(_mm256_add_epi64(hl, lh), 32));
}

/** High 64 bits of a[k] * b[k], per lane. */
inline __m256i
mulHi64(__m256i a, __m256i b)
{
    __m256i lo, hi;
    mul64(a, b, lo, hi);
    return hi;
}

/** a > b as unsigned 64-bit, per lane (sign-flip then signed cmp). */
inline __m256i
cmpGtU64(__m256i a, __m256i b)
{
    const __m256i sign = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

/** r - q where r >= q, else r; requires r < 2^62 (signed-safe). */
inline __m256i
csub(__m256i r, __m256i q)
{
    const __m256i lt = _mm256_cmpgt_epi64(q, r); // all-ones when r < q
    return _mm256_sub_epi64(r, _mm256_andnot_si256(lt, q));
}

/** Shoup butterfly multiply: (x * w) mod q via precomputed ws. */
inline __m256i
shoupMulVec(__m256i x, __m256i w, __m256i ws, __m256i q)
{
    const __m256i hi = mulHi64(x, ws);
    const __m256i r =
        _mm256_sub_epi64(mulLo64(x, w), mulLo64(hi, q));
    return csub(r, q);
}

/** Broadcast Barrett constants of one Modulus for the vector loops. */
struct BarrettVec
{
    explicit BarrettVec(const Modulus &q)
        : q_(_mm256_set1_epi64x(static_cast<long long>(q.value()))),
          mu_(_mm256_set1_epi64x(static_cast<long long>(q.barrettMu()))),
          s1_(_mm_cvtsi32_si128(static_cast<int>(q.bits() - 1))),
          s1c_(_mm_cvtsi32_si128(static_cast<int>(64 - (q.bits() - 1)))),
          s2_(_mm_cvtsi32_si128(static_cast<int>(q.bits() + 1))),
          s2c_(_mm_cvtsi32_si128(static_cast<int>(64 - (q.bits() + 1))))
    {}

    /** Barrett reduction of the 128-bit lanes (xlo, xhi) < 2^(2*bits),
     * mirroring Modulus::reduce() step for step. */
    __m256i
    reduce(__m256i xlo, __m256i xhi) const
    {
        // q1 = x >> (bits-1): fits 64 bits for x < 2^(2*bits)
        const __m256i q1 = _mm256_or_si256(_mm256_srl_epi64(xlo, s1_),
                                           _mm256_sll_epi64(xhi, s1c_));
        __m256i tlo, thi;
        mul64(q1, mu_, tlo, thi);
        // q3 = (q1 * mu) >> (bits+1)
        const __m256i q3 = _mm256_or_si256(_mm256_srl_epi64(tlo, s2_),
                                           _mm256_sll_epi64(thi, s2c_));
        const __m256i r =
            _mm256_sub_epi64(xlo, mulLo64(q3, q_));
        return csub(csub(r, q_), q_);
    }

    __m256i q_, mu_;
    __m128i s1_, s1c_, s2_, s2c_;
};

// --- NTT ----------------------------------------------------------------

void
nttForwardAvx2(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
               const std::uint64_t *wShoup, std::uint64_t q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    std::uint64_t t = n;
    for (std::uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            for (std::uint64_t i = 0; i < m; ++i) {
                const __m256i wv = _mm256_set1_epi64x(
                    static_cast<long long>(w[m + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<long long>(wShoup[m + i]));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 4) {
                    const __m256i u = loadU64(a + j);
                    const __m256i v =
                        shoupMulVec(loadU64(a + j + t), wv, wsv, qv);
                    storeU64(a + j,
                             csub(_mm256_add_epi64(u, v), qv));
                    storeU64(a + j + t,
                             csub(_mm256_add_epi64(
                                      _mm256_sub_epi64(u, v), qv),
                                  qv));
                }
            }
        } else {
            // Last stages (t < 4 lanes): the scalar butterfly, same
            // integers, same order.
            for (std::uint64_t i = 0; i < m; ++i) {
                const std::uint64_t wi = w[m + i];
                const std::uint64_t ws = wShoup[m + i];
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    const std::uint64_t u = a[j];
                    const std::uint64_t v =
                        shoupMul(a[j + t], wi, ws, q);
                    std::uint64_t s = u + v;
                    if (s >= q)
                        s -= q;
                    a[j] = s;
                    a[j + t] = u >= v ? u - v : u + q - v;
                }
            }
        }
    }
}

void
nttInverseAvx2(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
               const std::uint64_t *wShoup, std::uint64_t q,
               std::uint64_t invN, std::uint64_t invNShoup)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<long long>(q));
    std::uint64_t t = 1;
    for (std::uint64_t m = n; m > 1; m >>= 1) {
        const std::uint64_t h = m >> 1;
        if (t >= 4) {
            for (std::uint64_t i = 0; i < h; ++i) {
                const __m256i wv = _mm256_set1_epi64x(
                    static_cast<long long>(w[h + i]));
                const __m256i wsv = _mm256_set1_epi64x(
                    static_cast<long long>(wShoup[h + i]));
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; j += 4) {
                    const __m256i u = loadU64(a + j);
                    const __m256i v = loadU64(a + j + t);
                    storeU64(a + j,
                             csub(_mm256_add_epi64(u, v), qv));
                    const __m256i d =
                        csub(_mm256_add_epi64(
                                 _mm256_sub_epi64(u, v), qv),
                             qv);
                    storeU64(a + j + t, shoupMulVec(d, wv, wsv, qv));
                }
            }
        } else {
            for (std::uint64_t i = 0; i < h; ++i) {
                const std::uint64_t wi = w[h + i];
                const std::uint64_t ws = wShoup[h + i];
                const std::uint64_t j1 = 2 * i * t;
                for (std::uint64_t j = j1; j < j1 + t; ++j) {
                    const std::uint64_t u = a[j];
                    const std::uint64_t v = a[j + t];
                    std::uint64_t s = u + v;
                    if (s >= q)
                        s -= q;
                    a[j] = s;
                    a[j + t] =
                        shoupMul(u >= v ? u - v : u + q - v, wi, ws, q);
                }
            }
        }
        t <<= 1;
    }
    const __m256i wv =
        _mm256_set1_epi64x(static_cast<long long>(invN));
    const __m256i wsv =
        _mm256_set1_epi64x(static_cast<long long>(invNShoup));
    std::uint64_t k = 0;
    for (; k + 4 <= n; k += 4)
        storeU64(a + k, shoupMulVec(loadU64(a + k), wv, wsv, qv));
    for (; k < n; ++k)
        a[k] = shoupMul(a[k], invN, invNShoup, q);
}

// --- element-wise modular arrays ----------------------------------------

void
addArrayAvx2(std::uint64_t *dst, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    const __m256i qv =
        _mm256_set1_epi64x(static_cast<long long>(q.value()));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4)
        storeU64(dst + k,
                 csub(_mm256_add_epi64(loadU64(a + k), loadU64(b + k)),
                      qv));
    for (; k < n; ++k)
        dst[k] = q.add(a[k], b[k]);
}

void
subArrayAvx2(std::uint64_t *dst, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    const __m256i qv =
        _mm256_set1_epi64x(static_cast<long long>(q.value()));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        const __m256i d = _mm256_add_epi64(
            _mm256_sub_epi64(loadU64(a + k), loadU64(b + k)), qv);
        storeU64(dst + k, csub(d, qv));
    }
    for (; k < n; ++k)
        dst[k] = q.sub(a[k], b[k]);
}

void
mulArrayAvx2(std::uint64_t *dst, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    const BarrettVec bar(q);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i xlo, xhi;
        mul64(loadU64(a + k), loadU64(b + k), xlo, xhi);
        storeU64(dst + k, bar.reduce(xlo, xhi));
    }
    for (; k < n; ++k)
        dst[k] = q.mul(a[k], b[k]);
}

void
fmaModArrayAvx2(std::uint64_t *dst, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    const BarrettVec bar(q);
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        __m256i xlo, xhi;
        mul64(loadU64(a + k), loadU64(b + k), xlo, xhi);
        const __m256i p = bar.reduce(xlo, xhi);
        storeU64(dst + k,
                 csub(_mm256_add_epi64(loadU64(dst + k), p), bar.q_));
    }
    for (; k < n; ++k)
        dst[k] = q.add(dst[k], q.mul(a[k], b[k]));
}

void
reduceArrayAvx2(std::uint64_t *dst, const std::uint64_t *src,
                std::size_t n, const Modulus &q)
{
    const BarrettVec bar(q);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4)
        storeU64(dst + k, bar.reduce(loadU64(src + k), zero));
    for (; k < n; ++k)
        dst[k] = q.reduce(src[k]);
}

void
subScaleArrayAvx2(std::uint64_t *dst, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t n, const Modulus &q,
                  std::uint64_t w, std::uint64_t wShoup)
{
    const __m256i qv =
        _mm256_set1_epi64x(static_cast<long long>(q.value()));
    const __m256i wv = _mm256_set1_epi64x(static_cast<long long>(w));
    const __m256i wsv =
        _mm256_set1_epi64x(static_cast<long long>(wShoup));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        // a - b + q in [1, 2q) -> [0, q), then the Shoup multiply.
        const __m256i d = csub(
            _mm256_add_epi64(
                _mm256_sub_epi64(loadU64(a + k), loadU64(b + k)), qv),
            qv);
        storeU64(dst + k, shoupMulVec(d, wv, wsv, qv));
    }
    for (; k < n; ++k)
        dst[k] = q.mulShoup(q.sub(a[k], b[k]), w, wShoup);
}

// --- deferred reduction of the lazy keyswitch inner product ------------

void
reduceWideArrayAvx2(std::uint64_t *dst, const unsigned __int128 *acc,
                    std::size_t n, const Modulus &q)
{
    const __m256i qv =
        _mm256_set1_epi64x(static_cast<long long>(q.value()));
    const __m256i muLo =
        _mm256_set1_epi64x(static_cast<long long>(q.wideMuLo()));
    const __m256i muHi =
        _mm256_set1_epi64x(static_cast<long long>(q.wideMuHi()));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        // De-interleave two registers of [lo, hi] u128 words into
        // xl = [l0..l3], xh = [h0..h3].
        const __m256i v1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + k));
        const __m256i v2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(acc + k + 2));
        const __m256i aPair = _mm256_permute2x128_si256(v1, v2, 0x20);
        const __m256i bPair = _mm256_permute2x128_si256(v1, v2, 0x31);
        const __m256i xl = _mm256_unpacklo_epi64(aPair, bPair);
        const __m256i xh = _mm256_unpackhi_epi64(aPair, bPair);

        // t = floor(x * mu128 / 2^128) mod 2^64, exactly as
        // Modulus::reduceWide() computes it (schoolbook upper half).
        const __m256i hiLl = mulHi64(xl, muLo);
        __m256i loLh, hiLh;
        mul64(xl, muHi, loLh, hiLh);
        __m256i loHl, hiHl;
        mul64(xh, muLo, loHl, hiHl);
        const __m256i loHh = mulLo64(xh, muHi);

        const __m256i s1 = _mm256_add_epi64(hiLl, loLh);
        const __m256i c1 = cmpGtU64(loLh, s1); // mid carry 1
        const __m256i s2 = _mm256_add_epi64(s1, loHl);
        const __m256i c2 = cmpGtU64(loHl, s2); // mid carry 2

        __m256i t = _mm256_add_epi64(_mm256_add_epi64(loHh, hiLh), hiHl);
        t = _mm256_sub_epi64(t, c1); // masks are -1: subtract == +1
        t = _mm256_sub_epi64(t, c2);

        const __m256i r = _mm256_sub_epi64(xl, mulLo64(t, qv));
        storeU64(dst + k, csub(r, qv));
    }
    for (; k < n; ++k)
        dst[k] = q.reduceWide(acc[k]);
}

} // namespace

namespace detail {

const Kernels &
avx2Kernels()
{
    // The lazy FMA entries stay scalar: a 4-lane version must build
    // each 64x64 product from four mul_epu32 partial products and
    // shuffle every u128 carry, and measured no faster than the
    // scalar one-mulx-per-product loop at n = 8192 (the gather pair
    // slower).
    static const Kernels table = [] {
        Kernels k = scalarKernels();
        k.level = Level::avx2;
        k.width = laneWidth(Level::avx2);
        k.nttForward = &nttForwardAvx2;
        k.nttInverse = &nttInverseAvx2;
        k.addArray = &addArrayAvx2;
        k.subArray = &subArrayAvx2;
        k.mulArray = &mulArrayAvx2;
        k.fmaModArray = &fmaModArrayAvx2;
        k.reduceArray = &reduceArrayAvx2;
        k.subScaleArray = &subScaleArrayAvx2;
        k.reduceWideArray = &reduceWideArrayAvx2;
        return k;
    }();
    return table;
}

} // namespace detail
} // namespace fxhenn::simd
