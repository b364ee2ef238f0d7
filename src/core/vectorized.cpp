#include "core/vectorized.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "core/vectorized_kernels.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::core {

namespace {

/// Widest compiled vector width (AVX-512 float); bounds the per-lane
/// stat scratch arrays of the facade-ported pack/scan helpers.
constexpr size_type max_simd_lanes = 16;

template <typename T>
void run_getrf_chunk(SimdIsa isa, T* a, index_type* perm,
                     index_type* info, index_type m, size_type stride) {
    switch (isa) {
    case SimdIsa::scalar:
        getrf_chunk_scalar(a, perm, info, m, stride);
        break;
    case SimdIsa::sse2:
        getrf_chunk_sse2(a, perm, info, m, stride);
        break;
    case SimdIsa::avx2:
        getrf_chunk_avx2(a, perm, info, m, stride);
        break;
    case SimdIsa::avx512:
        getrf_chunk_avx512(a, perm, info, m, stride);
        break;
    case SimdIsa::neon:
        getrf_chunk_neon(a, perm, info, m, stride);
        break;
    }
}

template <typename T>
void run_getrs_chunk(SimdIsa isa, const T* lu, const index_type* perm,
                     const index_type* env, T* b, index_type m,
                     size_type stride) {
    switch (isa) {
    case SimdIsa::scalar:
        getrs_chunk_scalar(lu, perm, env, b, m, stride);
        break;
    case SimdIsa::sse2:
        getrs_chunk_sse2(lu, perm, env, b, m, stride);
        break;
    case SimdIsa::avx2:
        getrs_chunk_avx2(lu, perm, env, b, m, stride);
        break;
    case SimdIsa::avx512:
        getrs_chunk_avx512(lu, perm, env, b, m, stride);
        break;
    case SimdIsa::neon:
        getrs_chunk_neon(lu, perm, env, b, m, stride);
        break;
    }
}

template <typename T>
void run_pack_zero_chunk(SimdIsa isa, T* vals, size_type n) {
    switch (isa) {
    case SimdIsa::scalar: pack_zero_chunk_scalar(vals, n); break;
    case SimdIsa::sse2: pack_zero_chunk_sse2(vals, n); break;
    case SimdIsa::avx2: pack_zero_chunk_avx2(vals, n); break;
    case SimdIsa::avx512: pack_zero_chunk_avx512(vals, n); break;
    case SimdIsa::neon: pack_zero_chunk_neon(vals, n); break;
    }
}

template <typename T>
void run_pack_entry_stats_chunk(SimdIsa isa, const T* vals, size_type n,
                                T* max_entry, unsigned* nonfinite_bits) {
    switch (isa) {
    case SimdIsa::scalar:
        pack_entry_stats_chunk_scalar(vals, n, max_entry, nonfinite_bits);
        break;
    case SimdIsa::sse2:
        pack_entry_stats_chunk_sse2(vals, n, max_entry, nonfinite_bits);
        break;
    case SimdIsa::avx2:
        pack_entry_stats_chunk_avx2(vals, n, max_entry, nonfinite_bits);
        break;
    case SimdIsa::avx512:
        pack_entry_stats_chunk_avx512(vals, n, max_entry, nonfinite_bits);
        break;
    case SimdIsa::neon:
        pack_entry_stats_chunk_neon(vals, n, max_entry, nonfinite_bits);
        break;
    }
}

template <typename T>
void run_diag_scan_chunk(SimdIsa isa, const T* lu, index_type m,
                         size_type stride, T* min_piv, T* max_piv,
                         unsigned* nonfinite_bits) {
    switch (isa) {
    case SimdIsa::scalar:
        diag_scan_chunk_scalar(lu, m, stride, min_piv, max_piv,
                               nonfinite_bits);
        break;
    case SimdIsa::sse2:
        diag_scan_chunk_sse2(lu, m, stride, min_piv, max_piv,
                             nonfinite_bits);
        break;
    case SimdIsa::avx2:
        diag_scan_chunk_avx2(lu, m, stride, min_piv, max_piv,
                             nonfinite_bits);
        break;
    case SimdIsa::avx512:
        diag_scan_chunk_avx512(lu, m, stride, min_piv, max_piv,
                               nonfinite_bits);
        break;
    case SimdIsa::neon:
        diag_scan_chunk_neon(lu, m, stride, min_piv, max_piv,
                             nonfinite_bits);
        break;
    }
}

template <typename T>
void run_envelope_scan_chunk(SimdIsa isa, const T* lu, index_type m,
                             size_type stride, index_type* env) {
    switch (isa) {
    case SimdIsa::scalar:
        envelope_scan_chunk_scalar(lu, m, stride, env);
        break;
    case SimdIsa::sse2:
        envelope_scan_chunk_sse2(lu, m, stride, env);
        break;
    case SimdIsa::avx2:
        envelope_scan_chunk_avx2(lu, m, stride, env);
        break;
    case SimdIsa::avx512:
        envelope_scan_chunk_avx512(lu, m, stride, env);
        break;
    case SimdIsa::neon:
        envelope_scan_chunk_neon(lu, m, stride, env);
        break;
    }
}

void record_launch(const char* op, SimdIsa isa, size_type problems) {
    auto& registry = obs::Registry::global();
    const std::string prefix =
        std::string(op) + ".simd." + simd_isa_name(isa);
    registry.add(prefix + ".launches", 1.0);
    registry.add(prefix + ".problems", static_cast<double>(problems));
}

/// Per-size index buckets of a (possibly ragged) batch layout.
std::vector<std::vector<size_type>> size_buckets(const BatchLayout& layout) {
    std::vector<std::vector<size_type>> buckets(
        static_cast<std::size_t>(max_block_size) + 1);
    for (size_type i = 0; i < layout.count(); ++i) {
        buckets[static_cast<std::size_t>(layout.size(i))].push_back(i);
    }
    return buckets;
}

}  // namespace

template <typename T>
void run_simd_op_sweep(SimdIsa isa, const simd::OpSweepInput<T>& in,
                       simd::OpSweepResult<T>& out) {
    switch (isa) {
    case SimdIsa::scalar:
        simd_op_sweep_scalar(in, out);
        break;
    case SimdIsa::sse2:
        simd_op_sweep_sse2(in, out);
        break;
    case SimdIsa::avx2:
        simd_op_sweep_avx2(in, out);
        break;
    case SimdIsa::avx512:
        simd_op_sweep_avx512(in, out);
        break;
    case SimdIsa::neon:
        simd_op_sweep_neon(in, out);
        break;
    }
}

template void run_simd_op_sweep<float>(SimdIsa,
                                       const simd::OpSweepInput<float>&,
                                       simd::OpSweepResult<float>&);
template void run_simd_op_sweep<double>(SimdIsa,
                                        const simd::OpSweepInput<double>&,
                                        simd::OpSweepResult<double>&);

template <typename T>
FactorizeStatus getrf_interleaved(InterleavedGroup<T>& g,
                                  const VectorizedOptions& opts) {
    obs::TraceRegion trace("getrf_interleaved");
    record_launch("getrf", g.isa(), g.count());
    const auto m = g.size();

    FactorizeStatus status;
    if (opts.monitor) {
        status.block_status.assign(static_cast<std::size_t>(g.count()),
                                   BlockStatus::ok);
        status.block_info.resize(static_cast<std::size_t>(g.count()));
        // Entry prepass: the chunk kernels factorize in place, so the
        // input magnitudes must be taken before the launches.
        const auto prescan = [&](size_type l) {
            auto& info = status.block_info[static_cast<std::size_t>(l)];
            for (index_type c = 0; c < m; ++c) {
                for (index_type r = 0; r < m; ++r) {
                    const double v = std::abs(static_cast<double>(
                        g.values()[g.value_index(r, c, l)]));
                    if (!std::isfinite(v)) {
                        info.finite = false;
                    } else if (v > info.max_entry) {
                        info.max_entry = v;
                    }
                }
            }
        };
        if (opts.parallel) {
            ThreadPool::global().parallel_for(0, g.count(), prescan,
                                              batch_entry_grain);
        } else {
            for (size_type l = 0; l < g.count(); ++l) {
                prescan(l);
            }
        }
    }

    const auto body = [&](size_type c) {
        getrf_interleaved_chunk(g, c);
    };
    if (opts.parallel) {
        ThreadPool::global().parallel_for(0, g.chunks(), body, 1);
    } else {
        for (size_type c = 0; c < g.chunks(); ++c) {
            body(c);
        }
    }

    for (size_type l = 0; l < g.count(); ++l) {
        if (g.info()[l] != 0) {
            if (status.failures == 0) {
                status.first_failure = l;
                status.first_failure_step = g.info()[l];
            }
            ++status.failures;
            if (opts.monitor) {
                auto& info = status.block_info[static_cast<std::size_t>(l)];
                info.step = g.info()[l];
                info.min_pivot = 0.0;
                status.block_status[static_cast<std::size_t>(l)] =
                    BlockStatus::singular;
            }
        } else if (opts.monitor) {
            // Post-hoc pivot scan: after the gathered writeback the U
            // diagonal of a clean lane is the sequence of selected pivots.
            auto& info = status.block_info[static_cast<std::size_t>(l)];
            for (index_type k = 0; k < m; ++k) {
                const double p = std::abs(static_cast<double>(
                    g.values()[g.value_index(k, k, l)]));
                if (!std::isfinite(p)) {
                    info.finite = false;
                } else {
                    info.min_pivot = std::min(info.min_pivot, p);
                    info.max_pivot = std::max(info.max_pivot, p);
                }
            }
            if (info.ok()) {
                status.max_growth = std::max(status.max_growth,
                                             info.growth());
            }
        }
    }
    if (!status.ok() &&
        opts.on_singular == SingularPolicy::throw_on_breakdown) {
        throw SingularMatrix("batched LU breakdown: exact zero pivot",
                             status.first_failure,
                             status.first_failure_step);
    }
    return status;
}

template <typename T>
void getrf_interleaved_chunk(InterleavedGroup<T>& g, size_type chunk) {
    // Chunk-local layout: chunk c owns m*m*lanes contiguous values and
    // m*lanes pivots; the in-chunk lane stride is the vector width.
    const auto m = static_cast<size_type>(g.size());
    const size_type lanes = g.lanes();
    run_getrf_chunk(g.isa(), g.values() + chunk * m * m * lanes,
                    g.pivots() + chunk * m * lanes,
                    g.info() + chunk * lanes, g.size(), lanes);
    // Record the envelope while the chunk's factors are cache-hot.
    envelope_interleaved_chunk(g, chunk);
}

template <typename T>
void envelope_interleaved_chunk(InterleavedGroup<T>& g, size_type chunk) {
    const auto m = static_cast<size_type>(g.size());
    const size_type lanes = g.lanes();
    run_envelope_scan_chunk(g.isa(), g.values() + chunk * m * m * lanes,
                            g.size(), lanes, g.envelope() + chunk * 2 * m);
}

template <typename T>
void factor_envelope(ConstMatrixView<T> lu, std::span<index_type> env) {
    const index_type m = lu.rows();
    VBATCH_ENSURE_DIMS(lu.cols() == m && lu.ld() == m &&
                       static_cast<index_type>(env.size()) == 2 * m);
    run_envelope_scan_chunk(SimdIsa::scalar, lu.data(), m, 1, env.data());
}

template <typename T>
void gather_interleaved_chunk(InterleavedGroup<T>& g,
                              const InterleavedGatherMap& map,
                              std::span<const T> values, size_type chunk,
                              FactorInfo* infos) {
    const auto m = static_cast<size_type>(g.size());
    const size_type lanes = g.lanes();
    const size_type lane_lo = chunk * lanes;
    const size_type lane_hi = std::min(lane_lo + lanes, g.count());
    T* chunk_vals = g.values() + chunk * m * m * lanes;
    run_pack_zero_chunk(g.isa(), chunk_vals, m * m * lanes);
    // Only the tail chunk has padding lanes; re-establish their identity
    // (the kernels rely on it to run full-width without masking).
    for (size_type l = lane_hi; l < lane_lo + lanes; ++l) {
        for (index_type d = 0; d < g.size(); ++d) {
            g.values()[g.value_index(d, d, l)] = T{1};
        }
    }
    // The scatter itself is irregular (per-lane index lists) and stays
    // scalar; the entry statistics moved off it onto a full-width sweep
    // over the packed chunk below.
    for (size_type l = lane_lo; l < lane_hi; ++l) {
        const auto beg =
            static_cast<std::size_t>(map.lane_ptrs[static_cast<std::size_t>(l)]);
        const auto end = static_cast<std::size_t>(
            map.lane_ptrs[static_cast<std::size_t>(l) + 1]);
        for (auto e = beg; e < end; ++e) {
            g.values()[map.dst[e]] =
                values[static_cast<std::size_t>(map.src[e])];
        }
    }
    if (infos == nullptr) {
        return;
    }
    // Entry statistics: vector per-lane max|a_ij| + finite sweep over the
    // packed chunk. Pattern zeros can neither raise max|a_ij| nor be
    // non-finite, so the stats equal the former gather-fused scalar scan
    // (and getrf_interleaved's dense prepass); padding lanes are swept
    // too but their slots are never read back.
    alignas(64) T max_entry[max_simd_lanes];
    unsigned nonfinite = 0;
    run_pack_entry_stats_chunk(g.isa(), chunk_vals, m * m * lanes,
                               max_entry, &nonfinite);
    for (size_type l = lane_lo; l < lane_hi; ++l) {
        const auto lane = l - lane_lo;
        FactorInfo fi;
        fi.max_entry = static_cast<double>(max_entry[lane]);
        fi.finite = ((nonfinite >> lane) & 1u) == 0;
        infos[l] = fi;
    }
}

template <typename T>
void scan_interleaved_chunk(const InterleavedGroup<T>& g, size_type chunk,
                            FactorInfo* infos) {
    const auto m = g.size();
    const size_type lanes = g.lanes();
    const size_type lane_lo = chunk * lanes;
    const size_type lane_hi = std::min(lane_lo + lanes, g.count());
    // Vector per-lane min/max |u_kk| sweep over the chunk's U diagonals
    // (non-finite entries excluded and flagged, like the former scalar
    // loop); the per-lane info fold below stays scalar.
    alignas(64) T min_piv[max_simd_lanes];
    alignas(64) T max_piv[max_simd_lanes];
    unsigned nonfinite = 0;
    run_diag_scan_chunk(g.isa(),
                        g.values() + chunk * static_cast<size_type>(m) * m *
                                         lanes,
                        m, lanes, min_piv, max_piv, &nonfinite);
    for (size_type l = lane_lo; l < lane_hi; ++l) {
        auto& info = infos[l];
        if (g.info()[l] != 0) {
            info.step = g.info()[l];
            info.min_pivot = 0.0;
            continue;
        }
        const auto lane = l - lane_lo;
        if ((nonfinite >> lane) & 1u) {
            info.finite = false;
        }
        info.min_pivot = std::min(info.min_pivot,
                                  static_cast<double>(min_piv[lane]));
        info.max_pivot = std::max(info.max_pivot,
                                  static_cast<double>(max_piv[lane]));
    }
}

template <typename T>
void getrs_interleaved_chunk(const InterleavedGroup<T>& g,
                             InterleavedVectors<T>& b, size_type chunk) {
    const auto m = static_cast<size_type>(g.size());
    const size_type lanes = g.lanes();
    run_getrs_chunk(g.isa(), g.values() + chunk * m * m * lanes,
                    g.pivots() + chunk * m * lanes,
                    g.envelope() + chunk * 2 * m,
                    b.values() + chunk * m * lanes, g.size(), lanes);
}

template <typename T>
void getrs_interleaved(const InterleavedGroup<T>& g,
                       InterleavedVectors<T>& b,
                       const VectorizedOptions& opts) {
    VBATCH_ENSURE(b.size() == g.size() &&
                      b.lane_stride() == g.lane_stride(),
                  "rhs group does not match the factor group");
    obs::TraceRegion trace("getrs_interleaved");
    record_launch("trsv", g.isa(), g.count());
    const auto body = [&](size_type c) {
        getrs_interleaved_chunk(g, b, c);
    };
    if (opts.parallel) {
        ThreadPool::global().parallel_for(0, g.chunks(), body, 1);
    } else {
        for (size_type c = 0; c < g.chunks(); ++c) {
            body(c);
        }
    }
}

template <typename T>
FactorizeStatus getrf_batch_vectorized(BatchedMatrices<T>& a,
                                       BatchedPivots& perm,
                                       const VectorizedOptions& opts) {
    VBATCH_ENSURE(a.layout() == perm.layout(),
                  "matrix and pivot batch layouts differ");
    obs::TraceRegion trace("getrf_batch_vectorized");
    obs::count("getrf.launches");
    obs::count("getrf.problems", static_cast<double>(a.count()));

    FactorizeStatus status;
    if (opts.monitor) {
        status.block_status.assign(static_cast<std::size_t>(a.count()),
                                   BlockStatus::ok);
        status.block_info.resize(static_cast<std::size_t>(a.count()));
    }
    const SimdIsa isa = resolve_simd_isa(opts.isa);
    VectorizedOptions group_opts = opts;
    group_opts.on_singular = SingularPolicy::report;
    for (const auto& bucket : size_buckets(a.layout())) {
        if (bucket.empty() || a.size(bucket.front()) == 0) {
            continue;
        }
        const index_type m = a.size(bucket.front());
        InterleavedGroup<T> g(m, static_cast<size_type>(bucket.size()),
                              isa);
        g.pack_matrices(a, bucket);
        const auto st = getrf_interleaved(g, group_opts);
        g.unpack_matrices(a, bucket);
        g.unpack_pivots(perm, bucket);
        if (opts.monitor) {
            for (std::size_t l = 0; l < bucket.size(); ++l) {
                const auto gi = static_cast<std::size_t>(bucket[l]);
                status.block_status[gi] = st.block_status[l];
                status.block_info[gi] = st.block_info[l];
            }
            status.max_growth = std::max(status.max_growth, st.max_growth);
        }
        if (!st.ok()) {
            const auto global_index =
                bucket[static_cast<std::size_t>(st.first_failure)];
            if (status.failures == 0 ||
                global_index < status.first_failure) {
                status.first_failure = global_index;
                status.first_failure_step = st.first_failure_step;
            }
            status.failures += st.failures;
        }
    }
    if (!status.ok() &&
        opts.on_singular == SingularPolicy::throw_on_breakdown) {
        throw SingularMatrix("batched LU breakdown: exact zero pivot",
                             status.first_failure,
                             status.first_failure_step);
    }
    return status;
}

template <typename T>
void getrs_batch_vectorized(const BatchedMatrices<T>& lu,
                            const BatchedPivots& perm, BatchedVectors<T>& b,
                            const VectorizedOptions& opts) {
    VBATCH_ENSURE(lu.layout() == perm.layout() && lu.layout() == b.layout(),
                  "batch layouts differ");
    obs::TraceRegion trace("getrs_batch_vectorized");
    obs::count("trsv.launches");
    obs::count("trsv.problems", static_cast<double>(lu.count()));

    const SimdIsa isa = resolve_simd_isa(opts.isa);
    for (const auto& bucket : size_buckets(lu.layout())) {
        if (bucket.empty() || lu.size(bucket.front()) == 0) {
            continue;
        }
        const index_type m = lu.size(bucket.front());
        InterleavedGroup<T> g(m, static_cast<size_type>(bucket.size()),
                              isa);
        g.pack_matrices(lu, bucket);
        g.pack_pivots(perm, bucket);
        InterleavedVectors<T> rhs(m, static_cast<size_type>(bucket.size()),
                                  isa);
        rhs.pack(b, bucket);
        getrs_interleaved(g, rhs, opts);
        rhs.unpack(b, bucket);
    }
}

#define VBATCH_INSTANTIATE_VECTORIZED(T)                                     \
    template FactorizeStatus getrf_interleaved<T>(                           \
        InterleavedGroup<T>&, const VectorizedOptions&);                     \
    template void getrs_interleaved<T>(const InterleavedGroup<T>&,           \
                                       InterleavedVectors<T>&,               \
                                       const VectorizedOptions&);            \
    template void getrs_interleaved_chunk<T>(const InterleavedGroup<T>&,     \
                                             InterleavedVectors<T>&,         \
                                             size_type);                     \
    template void getrf_interleaved_chunk<T>(InterleavedGroup<T>&,           \
                                             size_type);                     \
    template void envelope_interleaved_chunk<T>(InterleavedGroup<T>&,        \
                                                size_type);                  \
    template void factor_envelope<T>(ConstMatrixView<T>,                     \
                                     std::span<index_type>);                 \
    template void gather_interleaved_chunk<T>(                               \
        InterleavedGroup<T>&, const InterleavedGatherMap&,                   \
        std::span<const T>, size_type, FactorInfo*);                         \
    template void scan_interleaved_chunk<T>(const InterleavedGroup<T>&,      \
                                            size_type, FactorInfo*);         \
    template FactorizeStatus getrf_batch_vectorized<T>(                      \
        BatchedMatrices<T>&, BatchedPivots&, const VectorizedOptions&);      \
    template void getrs_batch_vectorized<T>(const BatchedMatrices<T>&,       \
                                            const BatchedPivots&,            \
                                            BatchedVectors<T>&,              \
                                            const VectorizedOptions&)

VBATCH_INSTANTIATE_VECTORIZED(float);
VBATCH_INSTANTIATE_VECTORIZED(double);

#undef VBATCH_INSTANTIATE_VECTORIZED

}  // namespace vbatch::core
