// Vectorized (lane-parallel SIMD) batched LU / triangular-solve backend.
//
// Drop-in counterparts of getrf_batch / getrs_batch that route same-size
// groups of the batch through the interleaved chunk kernels selected by
// runtime CPU-feature dispatch (core/simd_dispatch.hpp):
//
//   getrf_interleaved / getrs_interleaved  - operate on an already-packed
//       InterleavedGroup (the block-Jacobi preconditioner keeps its
//       uniform size classes in this form across many applications).
//
//   getrf_batch_vectorized / getrs_batch_vectorized  - accept the
//       standard packed batch containers, bucket the entries by size,
//       pack each bucket, run the kernels and scatter the results back.
//       Any batch (uniform or ragged) is accepted.
//
// Results are bitwise identical to the scalar implicit-pivoting reference
// (getrf_batch / getrs_batch with the eager variant): every lane performs
// the same IEEE operations in the same order, only `width` matrices at a
// time. The solve path implements the paper's selected eager variant.
#pragma once

#include "core/getrf.hpp"
#include "core/interleaved.hpp"
#include "simd/op_sweep.hpp"

namespace vbatch::core {

/// Run the facade operation sweep (simd/op_sweep.hpp) at `isa`'s vector
/// width. Testing hook: lets a baseline-flags TU exercise every compiled
/// backend's facade ops through the same per-ISA TUs the kernels use.
template <typename T>
void run_simd_op_sweep(SimdIsa isa, const simd::OpSweepInput<T>& in,
                       simd::OpSweepResult<T>& out);

struct VectorizedOptions {
    /// ISA for packing/dispatch (drop-in drivers only; the group-level
    /// entry points use the ISA the group was built for).
    SimdIsa isa = detect_simd_isa();
    SingularPolicy on_singular = SingularPolicy::throw_on_breakdown;
    /// Distribute lane chunks over the global thread pool.
    bool parallel = true;
    /// Fill FactorizeStatus::block_status / block_info. The interleaved
    /// kernels stay untouched: the entry statistics come from a prepass
    /// over the packed lanes and the pivot statistics from the U diagonal
    /// after the factorization (the implicit-pivoting writeback gathers
    /// rows into pivot order, so the diagonal holds exactly the selected
    /// pivot magnitudes -- identical values to the scalar in-kernel
    /// monitor).
    bool monitor = false;
};

/// Factorize every lane of `g` in place. Pivots and per-lane breakdown
/// info are written into the group; the returned status aggregates them
/// (failure indices are lane indices within the group).
template <typename T>
FactorizeStatus getrf_interleaved(InterleavedGroup<T>& g,
                                  const VectorizedOptions& opts = {});

/// Solve LU x = P b for every lane of `g`; `b` is overwritten with x.
template <typename T>
void getrs_interleaved(const InterleavedGroup<T>& g,
                       InterleavedVectors<T>& b,
                       const VectorizedOptions& opts = {});

/// Solve one chunk (`lanes()` adjacent lanes) of the group, inline on the
/// calling thread -- no pool dispatch, no tracing, no option plumbing.
/// Building block for callers that schedule chunks themselves (the
/// allocation-free block-Jacobi apply fuses gather/solve/scatter per
/// chunk and drives all groups' chunks through one parallel loop).
template <typename T>
void getrs_interleaved_chunk(const InterleavedGroup<T>& g,
                             InterleavedVectors<T>& b, size_type chunk);

/// Factorize one chunk of the group, inline on the calling thread -- the
/// getrf counterpart of getrs_interleaved_chunk. Building block of the
/// fused gather+factorize setup pass. Records the chunk's envelope from
/// the final factors (envelope_interleaved_chunk).
template <typename T>
void getrf_interleaved_chunk(InterleavedGroup<T>& g, size_type chunk);

/// Record the column envelope of one chunk's factors (the union over its
/// lanes, see envelope_scan_chunk in core/chunk_kernels.hpp) into
/// g.envelope(); the chunk solves stream only the rows inside it. Call
/// after writing factors into a chunk by any route other than
/// getrf_interleaved_chunk (pack_matrices leaves full bounds).
template <typename T>
void envelope_interleaved_chunk(InterleavedGroup<T>& g, size_type chunk);

/// Column envelope of one contiguous factored block: the same scan at
/// one lane. env receives 2*m entries (last_l, then first_u) for the
/// envelope-bounded eager getrs_single.
template <typename T>
void factor_envelope(ConstMatrixView<T> lu, std::span<index_type> env);

/// Sparse gather map from a flat CSR value array into the lane slots of
/// one InterleavedGroup: lane l's entries occupy
/// [lane_ptrs[l], lane_ptrs[l+1]) of src/dst, src holds flat CSR value
/// indices and dst offsets into InterleavedGroup::values(). Built once
/// per sparsity pattern by blocking::GatherPlan::interleaved_map.
struct InterleavedGatherMap {
    std::vector<size_type> lane_ptrs;
    std::vector<size_type> src;
    std::vector<size_type> dst;
};

/// Numeric gather of one chunk: zero the chunk, restore the identity in
/// its padding lanes, then scatter `values` through `map`. With a
/// non-null `infos` (indexed by global lane, entries overwritten) the
/// per-lane entry statistics (max_entry, finite) are collected from the
/// gathered values -- identical to getrf_interleaved's dense prepass,
/// since pattern zeros can neither raise max|a_ij| nor be non-finite.
template <typename T>
void gather_interleaved_chunk(InterleavedGroup<T>& g,
                              const InterleavedGatherMap& map,
                              std::span<const T> values, size_type chunk,
                              FactorInfo* infos);

/// Post-factorization monitor scan of one chunk: fills step/min_pivot/
/// max_pivot of `infos` (indexed by global lane) exactly the way
/// getrf_interleaved's post-hoc pivot scan does -- the pivot-ordered
/// writeback leaves the selected pivot magnitudes on the U diagonal.
template <typename T>
void scan_interleaved_chunk(const InterleavedGroup<T>& g, size_type chunk,
                            FactorInfo* infos);

/// Drop-in vectorized getrf_batch: buckets `a` by block size, factorizes
/// each bucket through the interleaved kernels and scatters factors +
/// pivots back into the packed containers.
template <typename T>
FactorizeStatus getrf_batch_vectorized(BatchedMatrices<T>& a,
                                       BatchedPivots& perm,
                                       const VectorizedOptions& opts = {});

/// Drop-in vectorized getrs_batch (eager variant). Packs factors and
/// right-hand sides per bucket on every call; callers that solve with the
/// same factors repeatedly should keep an InterleavedGroup instead.
template <typename T>
void getrs_batch_vectorized(const BatchedMatrices<T>& lu,
                            const BatchedPivots& perm, BatchedVectors<T>& b,
                            const VectorizedOptions& opts = {});

}  // namespace vbatch::core
