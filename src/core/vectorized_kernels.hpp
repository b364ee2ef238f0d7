// Per-ISA entry points of the interleaved chunk kernels (internal).
//
// Each function factorizes / solves one full-width lane chunk of an
// interleaved group; the implementations live in vectorized_{scalar,sse2,
// avx2,avx512,neon}.cpp, which instantiate the backend-generic algorithm
// of core/chunk_kernels.hpp with the respective src/simd backend tag.
// `simd_op_sweep_*` runs the facade operation sweep (simd/op_sweep.hpp)
// at that backend's width so tests can validate every backend from a
// baseline-flags TU. The public dispatching drivers are in vectorized.hpp.
#pragma once

#include "base/types.hpp"
#include "simd/op_sweep.hpp"

namespace vbatch::core {

#define VBATCH_DECLARE_CHUNK_KERNELS(suffix)                                 \
    template <typename T>                                                    \
    void getrf_chunk_##suffix(T* a, index_type* perm, index_type* info,      \
                              index_type m, size_type lane_stride);          \
    template <typename T>                                                    \
    void getrs_chunk_##suffix(const T* lu, const index_type* perm,           \
                              const index_type* env, T* b, index_type m,     \
                              size_type lane_stride);                        \
    template <typename T>                                                    \
    void pack_zero_chunk_##suffix(T* vals, size_type n);                     \
    template <typename T>                                                    \
    void pack_entry_stats_chunk_##suffix(const T* vals, size_type n,         \
                                         T* max_entry,                       \
                                         unsigned* nonfinite_bits);          \
    template <typename T>                                                    \
    void diag_scan_chunk_##suffix(const T* lu, index_type m,                 \
                                  size_type lane_stride, T* min_piv,         \
                                  T* max_piv, unsigned* nonfinite_bits);     \
    template <typename T>                                                    \
    void envelope_scan_chunk_##suffix(const T* lu, index_type m,             \
                                      size_type lane_stride,                 \
                                      index_type* env);                      \
    template <typename T>                                                    \
    void simd_op_sweep_##suffix(const simd::OpSweepInput<T>& in,             \
                                simd::OpSweepResult<T>& out)

VBATCH_DECLARE_CHUNK_KERNELS(scalar);
VBATCH_DECLARE_CHUNK_KERNELS(sse2);
VBATCH_DECLARE_CHUNK_KERNELS(avx2);
VBATCH_DECLARE_CHUNK_KERNELS(avx512);
VBATCH_DECLARE_CHUNK_KERNELS(neon);

#undef VBATCH_DECLARE_CHUNK_KERNELS

}  // namespace vbatch::core
