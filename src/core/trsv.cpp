#include "core/trsv.hpp"

#include <array>

#include "base/macros.hpp"
#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vbatch::core {

template <typename T>
void apply_permutation(std::span<const index_type> perm, std::span<T> b) {
    VBATCH_ENSURE_DIMS(perm.size() == b.size());
    std::array<T, max_block_size> tmp;
    for (std::size_t k = 0; k < b.size(); ++k) {
        tmp[k] = b[static_cast<std::size_t>(perm[k])];
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
        b[k] = tmp[k];
    }
}

template <typename T>
void trsv_lower_unit(ConstMatrixView<T> lu, std::span<T> b,
                     TrsvVariant variant, std::span<const index_type> env) {
    const index_type m = lu.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    VBATCH_ENSURE_DIMS(env.empty() ||
                       static_cast<index_type>(env.size()) == 2 * m);
    if (variant == TrsvVariant::eager) {
        // AXPY-oriented: after y_k is final, update the trailing vector
        // (down to the column's last nonzero).
        for (index_type k = 0; k + 1 < m; ++k) {
            const T bk = b[k];
            const T* col = lu.col(k);
            const index_type last = env.empty() ? m - 1 : env[k];
            for (index_type i = k + 1; i <= last; ++i) {
                b[i] -= col[i] * bk;
            }
        }
    } else {
        // DOT-oriented: finalize y_k from the already-final prefix.
        for (index_type k = 1; k < m; ++k) {
            T acc{};
            for (index_type j = 0; j < k; ++j) {
                acc += lu(k, j) * b[j];
            }
            b[k] -= acc;
        }
    }
}

template <typename T>
void trsv_upper(ConstMatrixView<T> lu, std::span<T> b, TrsvVariant variant,
                std::span<const index_type> env) {
    const index_type m = lu.rows();
    VBATCH_ENSURE_DIMS(m == static_cast<index_type>(b.size()));
    VBATCH_ENSURE_DIMS(env.empty() ||
                       static_cast<index_type>(env.size()) == 2 * m);
    if (variant == TrsvVariant::eager) {
        for (index_type k = m - 1; k >= 0; --k) {
            b[k] /= lu(k, k);
            const T bk = b[k];
            const T* col = lu.col(k);
            const index_type first = env.empty() ? 0 : env[m + k];
            for (index_type i = first; i < k; ++i) {
                b[i] -= col[i] * bk;
            }
        }
    } else {
        for (index_type k = m - 1; k >= 0; --k) {
            T acc{};
            for (index_type j = k + 1; j < m; ++j) {
                acc += lu(k, j) * b[j];
            }
            b[k] = (b[k] - acc) / lu(k, k);
        }
    }
}

template <typename T>
void getrs_single(ConstMatrixView<T> lu, std::span<const index_type> perm,
                  std::span<T> b, TrsvVariant variant,
                  std::span<const index_type> env) {
    apply_permutation(perm, b);
    trsv_lower_unit(lu, b, variant, env);
    trsv_upper(lu, b, variant, env);
}

template <typename T>
void getrs_batch(const BatchedMatrices<T>& lu, const BatchedPivots& perm,
                 BatchedVectors<T>& b, const TrsvOptions& opts) {
    VBATCH_ENSURE(lu.layout() == perm.layout() && lu.layout() == b.layout(),
                  "batch layouts differ");
    obs::TraceRegion trace("getrs_batch");
    obs::count("trsv.launches");
    obs::count("trsv.problems", static_cast<double>(lu.count()));
    const auto body = [&](size_type i) {
        getrs_single(lu.view(i), perm.span(i), b.span(i), opts.variant);
    };
    if (opts.parallel) {
        ThreadPool::global().parallel_for(0, lu.count(), body,
                                          batch_entry_grain);
    } else {
        for (size_type i = 0; i < lu.count(); ++i) {
            body(i);
        }
    }
}

#define VBATCH_INSTANTIATE_TRSV(T)                                          \
    template void apply_permutation<T>(std::span<const index_type>,          \
                                       std::span<T>);                        \
    template void trsv_lower_unit<T>(ConstMatrixView<T>, std::span<T>,       \
                                     TrsvVariant,                            \
                                     std::span<const index_type>);           \
    template void trsv_upper<T>(ConstMatrixView<T>, std::span<T>,            \
                                TrsvVariant, std::span<const index_type>);   \
    template void getrs_single<T>(ConstMatrixView<T>,                        \
                                  std::span<const index_type>, std::span<T>, \
                                  TrsvVariant, std::span<const index_type>); \
    template void getrs_batch<T>(const BatchedMatrices<T>&,                  \
                                 const BatchedPivots&, BatchedVectors<T>&,   \
                                 const TrsvOptions&)

VBATCH_INSTANTIATE_TRSV(float);
VBATCH_INSTANTIATE_TRSV(double);

#undef VBATCH_INSTANTIATE_TRSV

}  // namespace vbatch::core
