#include "core/cholesky.hpp"

#include <array>
#include <cmath>

#include "base/macros.hpp"
#include "core/batch_driver.hpp"

namespace vbatch::core {

using simt::first_lanes;
using simt::lane_mask;
using simt::lane_range;
using simt::Reg;
using simt::Warp;

namespace {

/// Kernel body shared by the plain and monitored entry points (the
/// monitor hooks compile away for NullMonitor).
template <typename T, typename Monitor>
index_type potrf_single_impl(MatrixView<T> a, Monitor& mon) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    const index_type m = a.rows();
    if constexpr (Monitor::enabled) {
        // Cholesky only reads the lower triangle.
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = j; i < m; ++i) {
                mon.entry(static_cast<double>(std::abs(a(i, j))));
            }
        }
    }
    // Right-looking variant, mirroring the LU kernel's data flow: at step
    // k, scale column k by 1/sqrt(d) and rank-1 update the trailing
    // lower triangle.
    for (index_type k = 0; k < m; ++k) {
        const T d = a(k, k);
        if (!(d > T{})) {
            return k + 1;  // not positive definite (or NaN)
        }
        if constexpr (Monitor::enabled) {
            mon.pivot(static_cast<double>(d));
        }
        const T s = std::sqrt(d);
        a(k, k) = s;
        T* colk = a.col(k);
        for (index_type i = k + 1; i < m; ++i) {
            colk[i] /= s;
        }
        for (index_type j = k + 1; j < m; ++j) {
            const T ajk = a(j, k);
            T* colj = a.col(j);
            for (index_type i = j; i < m; ++i) {
                colj[i] -= colk[i] * ajk;
            }
        }
    }
    return 0;
}

}  // namespace

template <typename T>
index_type potrf_single(MatrixView<T> a) {
    detail::NullMonitor mon;
    return potrf_single_impl(a, mon);
}

template <typename T>
index_type potrf_single(MatrixView<T> a, FactorInfo& info) {
    detail::PivotMonitor mon;
    const index_type step = potrf_single_impl(a, mon);
    info = mon.finish(step);
    return step;
}

template <typename T>
void potrs_single(ConstMatrixView<T> l, std::span<T> b, TrsvVariant variant) {
    const index_type m = l.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    // Forward solve with L (non-unit diagonal).
    if (variant == TrsvVariant::eager) {
        for (index_type k = 0; k < m; ++k) {
            b[k] /= l(k, k);
            const T bk = b[k];
            const T* col = l.col(k);
            for (index_type i = k + 1; i < m; ++i) {
                b[i] -= col[i] * bk;
            }
        }
        // Backward solve with L^T: column access of L again.
        for (index_type k = m - 1; k >= 0; --k) {
            T acc{};
            const T* col = l.col(k);
            for (index_type i = k + 1; i < m; ++i) {
                acc += col[i] * b[i];
            }
            b[k] = (b[k] - acc) / l(k, k);
        }
    } else {
        for (index_type k = 0; k < m; ++k) {
            T acc{};
            for (index_type j = 0; j < k; ++j) {
                acc += l(k, j) * b[j];
            }
            b[k] = (b[k] - acc) / l(k, k);
        }
        for (index_type k = m - 1; k >= 0; --k) {
            b[k] /= l(k, k);
            const T bk = b[k];
            for (index_type i = 0; i < k; ++i) {
                b[i] -= l(k, i) * bk;
            }
        }
    }
}

template <typename T>
FactorizeStatus potrf_batch(BatchedMatrices<T>& a, const GetrfOptions& opts) {
    return detail::run_factorize_batch(
        a.count(), opts, "batched Cholesky: block not SPD",
        [&](size_type i, FactorInfo* info) {
            return info != nullptr ? potrf_single(a.view(i), *info)
                                   : potrf_single(a.view(i));
        });
}

template <typename T>
void potrs_batch(const BatchedMatrices<T>& l, BatchedVectors<T>& b,
                 const TrsvOptions& opts) {
    VBATCH_ENSURE(l.layout() == b.layout(), "batch layouts differ");
    const auto body = [&](size_type i) {
        potrs_single(l.view(i), b.span(i), opts.variant);
    };
    if (opts.parallel) {
        ThreadPool::global().parallel_for(0, l.count(), body,
                                          batch_entry_grain);
    } else {
        for (size_type i = 0; i < l.count(); ++i) {
            body(i);
        }
    }
}

template <typename T>
index_type potrf_warp(Warp& warp, MatrixView<T> a) {
    VBATCH_ENSURE_DIMS(a.rows() == a.cols());
    const index_type m = a.rows();

    // Coalesced column loads; only the lower triangle is needed, but the
    // register file holds the padded row like the LU kernel.
    std::array<Reg<T>, warp_size> A{};
    for (index_type j = 0; j < m; ++j) {
        A[j] = warp.load_global_strided(lane_range(j, m), a.col(j));
    }
    for (index_type k = 0; k < m; ++k) {
        const T d = warp.shfl(A[k], k);
        if (!(d > T{})) {
            return k + 1;
        }
        // sqrt + reciprocal via the slow path, like the division in LU.
        warp.stats().div_instructions += 1;
        const T s = std::sqrt(d);
        Reg<T> sk = A[k];
        sk[k] = s;
        // Scale the subdiagonal of column k.
        const lane_mask below = lane_range(k + 1, m);
        A[k] = warp.div_scalar(below, sk, s, below);
        A[k][k] = s;
        // Padded trailing update of the lower triangle (no pivot search,
        // no permutation writeback -- the structural savings vs LU).
        for (index_type j = k + 1; j < warp_size; ++j) {
            const T ajk = j < m ? warp.shfl(A[k], j) : T{};
            if (j >= m) {
                ++warp.stats().shuffle_instructions;
            }
            const lane_mask active = lane_range(j, warp_size);
            const lane_mask useful = j < m ? lane_range(j, m) : 0u;
            A[j] = warp.fnma_scalar(active, A[k], ajk, A[j], useful);
        }
    }
    // Store the factor columns (lower triangle), coalesced.
    for (index_type j = 0; j < m; ++j) {
        warp.store_global_strided(lane_range(j, m), a.col(j), A[j]);
    }
    return 0;
}

template <typename T>
void potrs_warp(Warp& warp, ConstMatrixView<T> l, std::span<T> b) {
    const index_type m = l.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    const lane_mask rows_m = first_lanes(m);
    auto x = warp.load_global_strided(rows_m, b.data());
    // Forward solve: one coalesced column of L per step.
    std::array<Reg<T>, warp_size> L{};
    for (index_type k = 0; k < m; ++k) {
        L[k] = warp.load_global_strided(lane_range(k, m), l.col(k));
        const T lkk = warp.shfl(L[k], k);
        x = warp.div_scalar(1u << k, x, lkk, 1u << k);
        const T bk = warp.shfl(x, k);
        const lane_mask active = lane_range(k + 1, m);
        x = warp.fnma_scalar(active, L[k], bk, x, active);
    }
    // Backward solve with L^T from the registers (data reuse the LU solve
    // does not have: the factor is read only once).
    for (index_type k = m - 1; k >= 0; --k) {
        const auto prod = warp.mul(lane_range(k + 1, m), L[k], x,
                                   lane_range(k + 1, m));
        const T acc = k + 1 < m
                          ? warp.reduce_sum(lane_range(k + 1, m), prod)
                          : T{};
        const auto accreg = Warp::broadcast_value(acc);
        x = warp.fnma_scalar(1u << k, accreg, T{1}, x, 1u << k);
        const T lkk = warp.shfl(L[k], k);
        x = warp.div_scalar(1u << k, x, lkk, 1u << k);
    }
    warp.store_global_strided(rows_m, b.data(), x);
}

namespace {

template <typename Body>
SimtBatchResult drive_simt(size_type total, const SimtBatchOptions& opts,
                           Body&& body) {
    SimtBatchResult result;
    result.total = total;
    const size_type limit =
        (opts.sample_limit > 0 && opts.sample_limit < total)
            ? opts.sample_limit
            : total;
    Warp warp;
    for (size_type i = 0; i < limit; ++i) {
        const index_type info = body(warp, i);
        if (info != 0) {
            ++result.status.failures;
            if (result.status.first_failure < 0) {
                result.status.first_failure = i;
            }
        }
    }
    result.emulated = limit;
    result.stats = warp.stats();
    return result;
}

}  // namespace

template <typename T>
SimtBatchResult potrf_batch_simt(BatchedMatrices<T>& a,
                                 const SimtBatchOptions& opts) {
    return drive_simt(a.count(), opts, [&](Warp& w, size_type i) {
        return potrf_warp(w, a.view(i));
    });
}

template <typename T>
SimtBatchResult potrs_batch_simt(const BatchedMatrices<T>& l,
                                 BatchedVectors<T>& b,
                                 const SimtBatchOptions& opts) {
    VBATCH_ENSURE(l.layout() == b.layout(), "batch layouts differ");
    return drive_simt(l.count(), opts, [&](Warp& w, size_type i) {
        potrs_warp(w, l.view(i), b.span(i));
        return index_type{0};
    });
}

#define VBATCH_INSTANTIATE_CHOL(T)                                          \
    template index_type potrf_single<T>(MatrixView<T>);                     \
    template index_type potrf_single<T>(MatrixView<T>, FactorInfo&);        \
    template void potrs_single<T>(ConstMatrixView<T>, std::span<T>,         \
                                  TrsvVariant);                             \
    template FactorizeStatus potrf_batch<T>(BatchedMatrices<T>&,            \
                                            const GetrfOptions&);           \
    template void potrs_batch<T>(const BatchedMatrices<T>&,                 \
                                 BatchedVectors<T>&, const TrsvOptions&);   \
    template index_type potrf_warp<T>(Warp&, MatrixView<T>);                \
    template void potrs_warp<T>(Warp&, ConstMatrixView<T>, std::span<T>);   \
    template SimtBatchResult potrf_batch_simt<T>(BatchedMatrices<T>&,       \
                                                 const SimtBatchOptions&);  \
    template SimtBatchResult potrs_batch_simt<T>(const BatchedMatrices<T>&, \
                                                 BatchedVectors<T>&,        \
                                                 const SimtBatchOptions&)

VBATCH_INSTANTIATE_CHOL(float);
VBATCH_INSTANTIATE_CHOL(double);

#undef VBATCH_INSTANTIATE_CHOL

}  // namespace vbatch::core
