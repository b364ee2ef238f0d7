// Diagonal block extraction from CSR (Section III.C, Fig. 3).
//
// Pulling a dense diagonal block out of a CSR matrix is the non-trivial
// part of the block-Jacobi setup: a thread-per-row strategy suffers
// non-coalesced reads and, on matrices with unbalanced rows (circuit
// simulation), severe warp-internal load imbalance. The paper's
// shared-memory strategy has all 32 lanes of the warp cooperate on every
// row: they stream the row's column indices in coalesced 32-wide chunks,
// push the hits into shared memory, and finally move the block into the
// registers of the owning lane.
//
// Three implementations:
//   extract_diagonal_blocks       - functional CPU version (used by the
//                                   block-Jacobi preconditioner setup)
//   extract_blocks_simt_row       - warp-emulated thread-per-row kernel
//   extract_blocks_simt_shared    - warp-emulated shared-memory kernel
// The two emulated kernels produce identical blocks and their transaction
// counters quantify the paper's Fig. 3 argument (bench_extraction).
#pragma once

#include "core/batch_storage.hpp"
#include "simt/warp.hpp"
#include "sparse/csr.hpp"

namespace vbatch::blocking {

/// Extract the diagonal blocks described by `layout` from `a` (CPU).
/// Entries of the block not present in the sparse pattern are zero.
template <typename T>
core::BatchedMatrices<T> extract_diagonal_blocks(
    const sparse::Csr<T>& a, core::BatchLayoutPtr layout);

/// Result of an emulated extraction: the blocks plus the warp counters.
template <typename T>
struct SimtExtractionResult {
    core::BatchedMatrices<T> blocks;
    simt::KernelStats stats;
};

/// Thread-per-row extraction (the baseline strategy the paper improves).
template <typename T>
SimtExtractionResult<T> extract_blocks_simt_row(const sparse::Csr<T>& a,
                                                core::BatchLayoutPtr layout);

/// Warp-cooperative shared-memory extraction (the paper's strategy).
template <typename T>
SimtExtractionResult<T> extract_blocks_simt_shared(
    const sparse::Csr<T>& a, core::BatchLayoutPtr layout);

/// Test/bench helper: make `count` evenly spaced diagonal blocks of `a`
/// exactly singular by zeroing the stored values that fall inside the
/// block (rows and columns of the block's range). Only values change --
/// the sparsity pattern stays intact, so a supervariable layout computed
/// from the pattern remains valid. Returns the number of blocks zeroed
/// (min(count, layout.count())).
template <typename T>
size_type make_blocks_singular(sparse::Csr<T>& a,
                               const core::BatchLayout& layout,
                               size_type count);

/// Test/bench helper: make `count` evenly spaced diagonal blocks of `a`
/// *ill-conditioned but nonsingular* by grading their rows -- row i of a
/// selected block is scaled by grade^(i/(m-1)), so the block's condition
/// number approaches 1/grade while every pivot stays exactly nonzero.
/// With the default grade (1e-30 in double) the graded pivots sit just
/// above the recovery pipeline's eps^2 degeneracy tolerance: the
/// implicit pivoting must keep the blocks usable, and the degeneracy
/// scan must not flag them. Values only; the pattern (and any layout
/// derived from it) stays intact. Returns the number of blocks graded.
template <typename T>
size_type make_blocks_illcond(sparse::Csr<T>& a,
                              const core::BatchLayout& layout,
                              size_type count, double grade = 1e-30);

}  // namespace vbatch::blocking
