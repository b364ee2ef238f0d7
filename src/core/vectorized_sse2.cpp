// SSE2 (128-bit: 2 doubles / 4 floats per chunk) build of the interleaved
// chunk kernels. SSE2 is part of the x86-64 baseline, so this TU needs no
// special compile flags; on other architectures it degrades to the scalar
// algorithm (and the dispatcher never selects it there).
#include "core/chunk_kernels.hpp"
#include "core/vectorized_kernels.hpp"
#include "simd/op_sweep_impl.hpp"

namespace vbatch::core {

namespace {
#if defined(__SSE2__)
using ChunkBackend = simd::Sse2Backend;
#else
using ChunkBackend = simd::ScalarBackend;
#endif
}  // namespace

template <typename T>
void getrf_chunk_sse2(T* a, index_type* perm, index_type* info,
                      index_type m, size_type lane_stride) {
    getrf_chunk<T, ChunkBackend>(a, perm, info, m, lane_stride);
}

template <typename T>
void getrs_chunk_sse2(const T* lu, const index_type* perm,
                      const index_type* env, T* b, index_type m,
                      size_type lane_stride) {
    getrs_chunk<T, ChunkBackend>(lu, perm, env, b, m, lane_stride);
}

template <typename T>
void getrf_nopivot_chunk_sse2(T* a, index_type* perm, index_type* info,
                              index_type m, size_type lane_stride) {
    getrf_chunk<T, ChunkBackend, PivotPolicy::none>(a, perm, info, m,
                                                    lane_stride);
}

template <typename T>
void getrs_nopivot_chunk_sse2(const T* lu, const index_type* env, T* b,
                              index_type m, size_type lane_stride) {
    getrs_chunk<T, ChunkBackend, PivotPolicy::none>(lu, nullptr, env, b, m,
                                                    lane_stride);
}

template <typename T>
void pack_zero_chunk_sse2(T* vals, size_type n) {
    pack_zero_chunk<T, ChunkBackend>(vals, n);
}

template <typename T>
void pack_entry_stats_chunk_sse2(const T* vals, size_type n, T* max_entry,
                                 unsigned* nonfinite_bits) {
    pack_entry_stats_chunk<T, ChunkBackend>(vals, n, max_entry,
                                            nonfinite_bits);
}

template <typename T>
void diag_scan_chunk_sse2(const T* lu, index_type m, size_type lane_stride,
                          T* min_piv, T* max_piv, unsigned* nonfinite_bits) {
    diag_scan_chunk<T, ChunkBackend>(lu, m, lane_stride, min_piv, max_piv,
                                     nonfinite_bits);
}

template <typename T>
void envelope_scan_chunk_sse2(const T* lu, index_type m,
                              size_type lane_stride, index_type* env) {
    envelope_scan_chunk<T, ChunkBackend>(lu, m, lane_stride, env);
}

template <typename T>
void rbt_transform_chunk_sse2(T* a, const T* ucoef, const T* vcoef,
                              index_type m, index_type depth,
                              size_type lane_stride) {
    rbt_transform_chunk<T, ChunkBackend>(a, ucoef, vcoef, m, depth,
                                         lane_stride);
}

template <typename T>
void rbt_forward_chunk_sse2(T* b, const T* ucoef, index_type m,
                            index_type depth, size_type lane_stride) {
    rbt_forward_chunk<T, ChunkBackend>(b, ucoef, m, depth, lane_stride);
}

template <typename T>
void rbt_backward_chunk_sse2(T* x, const T* vcoef, index_type m,
                             index_type depth, size_type lane_stride) {
    rbt_backward_chunk<T, ChunkBackend>(x, vcoef, m, depth, lane_stride);
}

template <typename T>
void simd_op_sweep_sse2(const simd::OpSweepInput<T>& in,
                        simd::OpSweepResult<T>& out) {
    simd::op_sweep_run<T, ChunkBackend>(in, out);
}

#define VBATCH_INSTANTIATE_SSE2_CHUNK(T)                                     \
    template void getrf_chunk_sse2<T>(T*, index_type*, index_type*,          \
                                      index_type, size_type);                \
    template void getrs_chunk_sse2<T>(const T*, const index_type*,           \
                                      const index_type*, T*, index_type,     \
                                      size_type);                            \
    template void getrf_nopivot_chunk_sse2<T>(T*, index_type*, index_type*,  \
                                              index_type, size_type);        \
    template void getrs_nopivot_chunk_sse2<T>(const T*, const index_type*,   \
                                              T*, index_type, size_type);    \
    template void pack_zero_chunk_sse2<T>(T*, size_type);                    \
    template void pack_entry_stats_chunk_sse2<T>(const T*, size_type, T*,    \
                                                 unsigned*);                 \
    template void diag_scan_chunk_sse2<T>(const T*, index_type, size_type,   \
                                          T*, T*, unsigned*);                \
    template void envelope_scan_chunk_sse2<T>(const T*, index_type,          \
                                              size_type, index_type*);       \
    template void rbt_transform_chunk_sse2<T>(T*, const T*, const T*,        \
                                              index_type, index_type,        \
                                              size_type);                    \
    template void rbt_forward_chunk_sse2<T>(T*, const T*, index_type,        \
                                            index_type, size_type);          \
    template void rbt_backward_chunk_sse2<T>(T*, const T*, index_type,       \
                                             index_type, size_type);         \
    template void simd_op_sweep_sse2<T>(const simd::OpSweepInput<T>&,        \
                                        simd::OpSweepResult<T>&)

VBATCH_INSTANTIATE_SSE2_CHUNK(float);
VBATCH_INSTANTIATE_SSE2_CHUNK(double);

#undef VBATCH_INSTANTIATE_SSE2_CHUNK

}  // namespace vbatch::core
