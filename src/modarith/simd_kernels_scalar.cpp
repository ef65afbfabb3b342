/**
 * @file
 * Scalar modular-arithmetic kernels — the bitwise reference.
 *
 * These are the original NttTables / RnsPoly / LazyLimbAccumulator
 * loops, moved here verbatim so every other dispatch level has a
 * byte-for-byte ground truth to differ against (the KswMode::eager
 * pattern applied to the whole modarith hot path). Do not "optimize"
 * this file: its value is that it stays the plain, obviously-correct
 * formulation. Vector kernels live in their own translation units and
 * must match these outputs exactly.
 */
#include "src/modarith/ntt.hpp"
#include "src/modarith/simd_dispatch.hpp"

namespace fxhenn::simd {
namespace {

void
nttForwardScalar(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q)
{
    // Cooley-Tukey DIT with merged negacyclic twist, Shoup butterflies.
    std::uint64_t t = n;
    for (std::uint64_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (std::uint64_t i = 0; i < m; ++i) {
            const std::uint64_t wi = w[m + i];
            const std::uint64_t ws = wShoup[m + i];
            const std::uint64_t j1 = 2 * i * t;
            for (std::uint64_t j = j1; j < j1 + t; ++j) {
                const std::uint64_t u = a[j];
                const std::uint64_t v = shoupMul(a[j + t], wi, ws, q);
                std::uint64_t s = u + v;
                if (s >= q)
                    s -= q;
                a[j] = s;
                a[j + t] = u >= v ? u - v : u + q - v;
            }
        }
    }
}

void
nttInverseScalar(std::uint64_t *a, std::uint64_t n, const std::uint64_t *w,
                 const std::uint64_t *wShoup, std::uint64_t q,
                 std::uint64_t invN, std::uint64_t invNShoup)
{
    // Gentleman-Sande DIF with merged inverse twist, Shoup butterflies.
    std::uint64_t t = 1;
    for (std::uint64_t m = n; m > 1; m >>= 1) {
        const std::uint64_t h = m >> 1;
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
        t <<= 1;
    }
    for (std::uint64_t k = 0; k < n; ++k)
        a[k] = shoupMul(a[k], invN, invNShoup, q);
}

void
addArrayScalar(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.add(a[k], b[k]);
}

void
subArrayScalar(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.sub(a[k], b[k]);
}

void
mulArrayScalar(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.mul(a[k], b[k]);
}

void
fmaModArrayScalar(std::uint64_t *dst, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.add(dst[k], q.mul(a[k], b[k]));
}

void
reduceArrayScalar(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.reduce(src[k]);
}

void
subScaleArrayScalar(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *b, std::size_t n, const Modulus &q,
                    std::uint64_t w, std::uint64_t wShoup)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.mulShoup(q.sub(a[k], b[k]), w, wShoup);
}

void
fmaLazyPairScalar(unsigned __int128 *acc0, unsigned __int128 *acc1,
                  const std::uint64_t *a, const std::uint64_t *b0,
                  const std::uint64_t *b1, std::size_t n, const Modulus &)
{
    for (std::size_t k = 0; k < n; ++k) {
        acc0[k] += static_cast<unsigned __int128>(a[k]) * b0[k];
        acc1[k] += static_cast<unsigned __int128>(a[k]) * b1[k];
    }
}

void
fmaLazyGatherPairScalar(unsigned __int128 *acc0, unsigned __int128 *acc1,
                        const std::uint64_t *a, const std::uint32_t *perm,
                        const std::uint64_t *b0, const std::uint64_t *b1,
                        std::size_t n, const Modulus &)
{
    for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t x = a[perm[k]];
        acc0[k] += static_cast<unsigned __int128>(x) * b0[k];
        acc1[k] += static_cast<unsigned __int128>(x) * b1[k];
    }
}

void
reduceWideArrayScalar(std::uint64_t *dst, const unsigned __int128 *acc,
                      std::size_t n, const Modulus &q)
{
    for (std::size_t k = 0; k < n; ++k)
        dst[k] = q.reduceWide(acc[k]);
}

} // namespace

namespace detail {

const Kernels &
scalarKernels()
{
    static const Kernels table{
        Level::scalar,
        laneWidth(Level::scalar),
        &nttForwardScalar,
        &nttInverseScalar,
        &addArrayScalar,
        &subArrayScalar,
        &mulArrayScalar,
        &fmaModArrayScalar,
        &reduceArrayScalar,
        &subScaleArrayScalar,
        &fmaLazyPairScalar,
        &fmaLazyGatherPairScalar,
        &reduceWideArrayScalar,
    };
    return table;
}

} // namespace detail
} // namespace fxhenn::simd
