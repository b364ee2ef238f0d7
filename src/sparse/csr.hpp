// Compressed Sparse Row matrix -- the storage format the paper's
// block-Jacobi ecosystem extracts diagonal blocks from (Section III.C)
// and the format the Krylov solvers run their SpMV on.
//
// Invariants: row_ptrs has num_rows()+1 monotonically non-decreasing
// entries; within each row the column indices are strictly increasing
// (duplicates are merged on construction).
//
// SpMV work distribution: a plain row split assigns each thread the same
// number of rows, which collapses on skewed patterns (a few hub rows
// holding most of the nnz serialize the whole product). Instead the
// matrix caches an nnz-balanced partition of its rows -- part boundaries
// found by binary search on row_ptrs so every part covers about the same
// number of stored entries. The partition depends only on the sparsity
// structure; it is built lazily on the first spmv through std::call_once
// (so concurrent readers of a shared matrix race-freely agree on one
// partition) and invalidated exactly when the structure changes
// (construction and structural mutators).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "base/types.hpp"
#include "sparse/pattern_hash.hpp"

namespace vbatch::sparse {

/// Fewest stored entries an spmv partition part holds (unless the whole
/// matrix holds fewer): one part must outweigh the cost of a thread
/// picking it up.
inline constexpr size_type spmv_min_part_nnz = 4096;

/// One (row, col, value) entry of a matrix in construction.
template <typename T>
struct Triplet {
    index_type row;
    index_type col;
    T value;
};

template <typename T>
class Csr {
public:
    Csr() : num_rows_(0), num_cols_(0) {
        row_ptrs_.push_back(0);
        reset_spmv_partition();
    }

    /// Build from an unordered triplet list; duplicate entries are summed.
    static Csr from_triplets(index_type num_rows, index_type num_cols,
                             std::vector<Triplet<T>> triplets);

    /// Build directly from validated CSR arrays.
    Csr(index_type num_rows, index_type num_cols,
        std::vector<size_type> row_ptrs, std::vector<index_type> col_idxs,
        std::vector<T> values);

    index_type num_rows() const noexcept { return num_rows_; }
    index_type num_cols() const noexcept { return num_cols_; }
    size_type nnz() const noexcept {
        return static_cast<size_type>(values_.size());
    }

    std::span<const size_type> row_ptrs() const noexcept { return row_ptrs_; }
    std::span<const index_type> col_idxs() const noexcept {
        return col_idxs_;
    }
    std::span<const T> values() const noexcept { return values_; }
    std::span<T> values() noexcept { return values_; }

    /// Replace the stored values, keeping the sparsity structure (and
    /// therefore the cached spmv partition). Sizes must match.
    void set_values(std::span<const T> new_values);

    /// Remove every stored entry with |value| <= threshold. This is a
    /// structural mutation: row_ptrs/col_idxs shrink and the cached spmv
    /// partition is rebuilt for the new nnz distribution.
    void drop_small_entries(T threshold);

    /// Entry (i, j), or zero if not stored (binary search; test helper).
    T at(index_type i, index_type j) const;

    /// y := A x
    void spmv(std::span<const T> x, std::span<T> y) const;

    /// y := alpha A x + beta y
    void spmv(T alpha, std::span<const T> x, T beta, std::span<T> y) const;

    /// The cached nnz-balanced row partition spmv runs over: part p covers
    /// rows [partition[p], partition[p+1]), and all parts hold roughly
    /// equal nnz. Built on first use (thread-safe: concurrent callers on
    /// the same matrix serialize through a call_once and observe the one
    /// published partition). Exposed for tests and diagnostics.
    std::span<const size_type> spmv_partition() const {
        StructureCache& cache = *structure_;
        std::call_once(cache.partition_once,
                       [&] { build_spmv_partition(cache.parts); });
        return cache.parts;
    }

    /// 64-bit fingerprint of the sparsity pattern (csr_pattern_hash over
    /// row_ptrs/col_idxs). Memoized per structure with the same lazy
    /// call_once discipline as the spmv partition: copies of an analyzed
    /// matrix share the computed hash, set_values keeps it, and
    /// structural mutators invalidate it. The service-layer plan cache
    /// keys shared symbolic analyses on this value.
    std::uint64_t pattern_hash() const {
        StructureCache& cache = *structure_;
        std::call_once(cache.hash_once, [&] {
            cache.pattern_hash = csr_pattern_hash(row_ptrs_, col_idxs_);
        });
        return cache.pattern_hash;
    }

    /// Number of stored entries in row i.
    index_type row_nnz(index_type i) const noexcept {
        return static_cast<index_type>(
            row_ptrs_[static_cast<std::size_t>(i) + 1] -
            row_ptrs_[static_cast<std::size_t>(i)]);
    }

    /// Transposed copy (used by generators and tests).
    Csr transpose() const;

    /// True if the sparsity pattern and values are symmetric (tolerance on
    /// values; pattern must match exactly).
    bool is_symmetric(T tol) const;

private:
    /// Lazily-built artifacts derived from the sparsity structure alone
    /// (spmv partition, pattern fingerprint). Lives behind a shared_ptr
    /// so the non-copyable once_flags don't pin the matrix, copies of an
    /// analyzed matrix share the already-built results, and structural
    /// mutators can atomically swap in a fresh unbuilt slot.
    struct StructureCache {
        std::once_flag partition_once;
        std::vector<size_type> parts;
        std::once_flag hash_once;
        std::uint64_t pattern_hash = 0;
    };

    /// Compute the nnz-balanced boundaries from row_ptrs_ into `parts`.
    /// Runs exactly once per structure, under the slot's call_once.
    void build_spmv_partition(std::vector<size_type>& parts) const;

    /// Install a fresh unbuilt cache slot. Called from every path that
    /// establishes or changes the sparsity structure, so spmv/pattern_hash
    /// never see stale artifacts. Not safe against concurrent readers --
    /// structural mutation of a shared matrix was never supported.
    void reset_spmv_partition() {
        structure_ = std::make_shared<StructureCache>();
    }

    index_type num_rows_;
    index_type num_cols_;
    std::vector<size_type> row_ptrs_;
    std::vector<index_type> col_idxs_;
    std::vector<T> values_;
    std::shared_ptr<StructureCache> structure_;
};

}  // namespace vbatch::sparse
