// Scalar (width-1) build of the interleaved chunk kernels: the portable
// reference every vector backend is bitwise-compared against.
#include "core/chunk_kernels.hpp"
#include "core/vectorized_kernels.hpp"
#include "simd/op_sweep_impl.hpp"

namespace vbatch::core {

namespace {
using ChunkBackend = simd::ScalarBackend;
}  // namespace

template <typename T>
void getrf_chunk_scalar(T* a, index_type* perm, index_type* info,
                        index_type m, size_type lane_stride) {
    getrf_chunk<T, ChunkBackend>(a, perm, info, m, lane_stride);
}

template <typename T>
void getrs_chunk_scalar(const T* lu, const index_type* perm,
                        const index_type* env, T* b, index_type m,
                        size_type lane_stride) {
    getrs_chunk<T, ChunkBackend>(lu, perm, env, b, m, lane_stride);
}

template <typename T>
void pack_zero_chunk_scalar(T* vals, size_type n) {
    pack_zero_chunk<T, ChunkBackend>(vals, n);
}

template <typename T>
void pack_entry_stats_chunk_scalar(const T* vals, size_type n, T* max_entry,
                                   unsigned* nonfinite_bits) {
    pack_entry_stats_chunk<T, ChunkBackend>(vals, n, max_entry,
                                            nonfinite_bits);
}

template <typename T>
void diag_scan_chunk_scalar(const T* lu, index_type m, size_type lane_stride,
                            T* min_piv, T* max_piv,
                            unsigned* nonfinite_bits) {
    diag_scan_chunk<T, ChunkBackend>(lu, m, lane_stride, min_piv, max_piv,
                                     nonfinite_bits);
}

template <typename T>
void envelope_scan_chunk_scalar(const T* lu, index_type m,
                                size_type lane_stride, index_type* env) {
    envelope_scan_chunk<T, ChunkBackend>(lu, m, lane_stride, env);
}

template <typename T>
void simd_op_sweep_scalar(const simd::OpSweepInput<T>& in,
                          simd::OpSweepResult<T>& out) {
    simd::op_sweep_run<T, ChunkBackend>(in, out);
}

#define VBATCH_INSTANTIATE_SCALAR_CHUNK(T)                                   \
    template void getrf_chunk_scalar<T>(T*, index_type*, index_type*,        \
                                        index_type, size_type);              \
    template void getrs_chunk_scalar<T>(const T*, const index_type*,         \
                                        const index_type*, T*, index_type,   \
                                        size_type);                          \
    template void pack_zero_chunk_scalar<T>(T*, size_type);                  \
    template void pack_entry_stats_chunk_scalar<T>(const T*, size_type, T*,  \
                                                   unsigned*);               \
    template void diag_scan_chunk_scalar<T>(const T*, index_type,            \
                                            size_type, T*, T*, unsigned*);   \
    template void envelope_scan_chunk_scalar<T>(const T*, index_type,        \
                                                size_type, index_type*);     \
    template void simd_op_sweep_scalar<T>(const simd::OpSweepInput<T>&,      \
                                          simd::OpSweepResult<T>&)

VBATCH_INSTANTIATE_SCALAR_CHUNK(float);
VBATCH_INSTANTIATE_SCALAR_CHUNK(double);

#undef VBATCH_INSTANTIATE_SCALAR_CHUNK

}  // namespace vbatch::core
