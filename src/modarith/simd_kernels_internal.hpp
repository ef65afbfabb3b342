/**
 * @file
 * Internal linkage between the dispatcher and the per-ISA kernel
 * translation units. Each TU defines its table accessor; a definition
 * exists only when CMake compiled that TU (FXHENN_HAVE_AVX2_TU /
 * FXHENN_HAVE_AVX512_TU), so callers must guard uses with those
 * macros. Each vector table starts from the next narrower one: avx2
 * from scalar (keeping the scalar lazy FMA entries), avx512 from avx2
 * (keeping add/sub), and every avx512 IFMA kernel delegates
 * wide-modulus calls (q >= 2^50, outside the 52-bit datapath) to its
 * avx2 entry.
 */
#ifndef FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP
#define FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP

#include "src/modarith/simd_dispatch.hpp"

namespace fxhenn::simd::detail {

const Kernels &scalarKernels();
const Kernels &avx2Kernels();   // defined iff FXHENN_HAVE_AVX2_TU
const Kernels &avx512Kernels(); // defined iff FXHENN_HAVE_AVX512_TU

} // namespace fxhenn::simd::detail

#endif // FXHENN_MODARITH_SIMD_KERNELS_INTERNAL_HPP
