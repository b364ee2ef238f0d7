// Canonical byte-traffic models used for bandwidth/roofline reporting,
// the companion of core/flops.hpp.
//
// Small-block batched kernels are memory-bandwidth bound, so the signal
// that explains where a kernel sits relative to the hardware is bytes
// moved, not flops. Like the flop models, these charge every kernel the
// *algorithmic* traffic of a cold cache -- each operand array is read
// (and, where in-place, written back) exactly once. Caches can only beat
// this bound, so effective bandwidth computed from these models is a
// lower bound on what the memory system delivered, which is the honest
// number for a roofline plot.
//
// Two layout families are modeled:
//  - dense row-major (the scalar/batched kernels): an m x m problem
//    touches exactly its own m^2 elements;
//  - interleaved SoA size classes (the _simd backends): lanes load and
//    store whole padded class-size matrices, so an m x m problem in a
//    class padded to mp >= m is charged mp^2 traffic. The padding waste
//    is exactly the gap between the two models.
#pragma once

#include <cstddef>

#include "base/types.hpp"

namespace vbatch::core {

/// Bytes of one in-place m x m LU factorization (panel read + write,
/// plus the pivot vector): 2 m^2 elem + m idx.
template <typename T>
double getrf_bytes(index_type m) {
    const double d = m;
    return 2.0 * d * d * static_cast<double>(sizeof(T)) +
           d * static_cast<double>(sizeof(index_type));
}

/// Same factorization stored in an interleaved SoA size class padded to
/// `padded_m` >= m: the lanes stream the whole padded matrix.
template <typename T>
double getrf_bytes_interleaved(index_type m, index_type padded_m) {
    return getrf_bytes<T>(padded_m >= m ? padded_m : m);
}

/// Bytes of one permute + unit-lower + upper triangular solve with
/// factored m x m data: factors m^2, rhs + solution 2 m, pivots m.
template <typename T>
double getrs_bytes(index_type m) {
    const double d = m;
    return (d * d + 2.0 * d) * static_cast<double>(sizeof(T)) +
           d * static_cast<double>(sizeof(index_type));
}

/// getrs_bytes of an envelope-bounded solve (core/trsv.hpp) that streams
/// `entries` of the m^2 factor entries; equals getrs_bytes at
/// entries = m^2.
template <typename T>
double getrs_envelope_bytes(index_type m, double entries) {
    const double d = m;
    return (entries + 2.0 * d) * static_cast<double>(sizeof(T)) +
           d * static_cast<double>(sizeof(index_type));
}

/// Interleaved-SoA variant of getrs_bytes (padded class size).
template <typename T>
double getrs_bytes_interleaved(index_type m, index_type padded_m) {
    return getrs_bytes<T>(padded_m >= m ? padded_m : m);
}

/// Bytes of one dense m x m matrix-vector product: matrix m^2 plus the
/// input and output vectors.
template <typename T>
double gemv_bytes(index_type m) {
    const double d = m;
    return (d * d + 2.0 * d) * static_cast<double>(sizeof(T));
}

/// Bytes of one CSR SpMV y = A x: values + column indices per nonzero,
/// the row-pointer array, and the two vectors. Matches the effective-
/// bandwidth accounting bench_solver_hotpath reports.
template <typename T>
double spmv_bytes(index_type rows, size_type nnz) {
    return static_cast<double>(nnz) *
               (sizeof(T) + sizeof(index_type)) +
           (static_cast<double>(rows) + 1.0) *
               static_cast<double>(sizeof(size_type)) +
           2.0 * static_cast<double>(rows) * static_cast<double>(sizeof(T));
}

// -- BLAS-1 building blocks (n-element vectors) ----------------------

/// y += alpha x: read x, read + write y.
template <typename T>
double axpy_bytes(size_type n) {
    return 3.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// dot(x, y): read both vectors.
template <typename T>
double dot_bytes(size_type n) {
    return 2.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// nrm2(x) and other single-vector reductions: read x.
template <typename T>
double nrm2_bytes(size_type n) {
    return static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// y := x (copy) or y *= alpha (scal): one read + one write stream.
template <typename T>
double copy_bytes(size_type n) {
    return 2.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// p := z + beta p: read z, read + write p.
template <typename T>
double xpby_bytes(size_type n) {
    return 3.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// Fused CG update (x += alpha p; r -= alpha q; ||r||): read p and q,
/// read + write x and r -- six streams in one sweep.
template <typename T>
double fused_cg_update_bytes(size_type n) {
    return 6.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

/// Fused residual (r := b - r; ||r||): read b, read + write r.
template <typename T>
double fused_residual_norm2_bytes(size_type n) {
    return 3.0 * static_cast<double>(n) * static_cast<double>(sizeof(T));
}

}  // namespace vbatch::core
