// Variable-size batched triangular solves (Section III.B).
//
// The solve of D_i x = b via the LU factors is: gather b through the pivot
// permutation (fused into the load, as the paper's kernel folds P into the
// register distribution of b), then a unit lower triangular solve, then an
// upper triangular solve.
//
// Both algorithmic variants of Fig. 2 are implemented:
//   eager - AXPY-based, walks columns of the factor (coalesced on the GPU;
//           the variant the paper selects)
//   lazy  - DOT-based, walks rows (requires a reduction per step)
// They perform the same flops; on the CPU backend they differ in access
// pattern only, and the emulated kernels (simt_kernels.hpp) expose the
// cost difference the paper discusses.
#pragma once

#include "core/batch_storage.hpp"

namespace vbatch::core {

enum class TrsvVariant { eager, lazy };

struct TrsvOptions {
    TrsvVariant variant = TrsvVariant::eager;
    bool parallel = true;
};

/// Batched solve of LU x = P b. `b` is overwritten with x.
template <typename T>
void getrs_batch(const BatchedMatrices<T>& lu, const BatchedPivots& perm,
                 BatchedVectors<T>& b, const TrsvOptions& opts = {});

/// Single-problem building blocks (exposed for tests / the preconditioner
/// application which drives them directly).
///
/// The eager variant optionally takes the factor's column envelope `env`
/// (2m entries from factor_envelope, core/vectorized.hpp): env[k] is the
/// last row below the diagonal of column k holding a nonzero, env[m + k]
/// the first row above it (k when none). The AXPY updates then run over
/// those rows only -- the skipped ones would subtract an exact zero
/// product, which leaves every finite entry of b bitwise unchanged up to
/// the sign of a zero. Empty env = full bounds; the lazy variant always
/// runs full bounds.

/// Factor entries an eager solve bounded by `env` (2m entries) streams:
/// the diagonal plus, per column, the rows inside the envelope; m^2 for
/// full bounds.
inline double envelope_entries(std::span<const index_type> env) {
    const auto m = static_cast<index_type>(env.size() / 2);
    double entries = m;
    for (index_type k = 0; k < m; ++k) {
        entries += env[static_cast<std::size_t>(k)] -
                   env[static_cast<std::size_t>(m + k)];
    }
    return entries;
}

/// b := P b with gather indices perm (perm[k] = source position of k).
template <typename T>
void apply_permutation(std::span<const index_type> perm, std::span<T> b);

/// b := L^-1 b, L unit lower triangular stored in `lu`.
template <typename T>
void trsv_lower_unit(ConstMatrixView<T> lu, std::span<T> b,
                     TrsvVariant variant,
                     std::span<const index_type> env = {});

/// b := U^-1 b, U upper triangular stored in `lu`.
template <typename T>
void trsv_upper(ConstMatrixView<T> lu, std::span<T> b, TrsvVariant variant,
                std::span<const index_type> env = {});

/// Full single-problem solve: permute + lower + upper.
template <typename T>
void getrs_single(ConstMatrixView<T> lu, std::span<const index_type> perm,
                  std::span<T> b, TrsvVariant variant = TrsvVariant::eager,
                  std::span<const index_type> env = {});

}  // namespace vbatch::core
