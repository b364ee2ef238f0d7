// Tests for the interleaved (structure-of-arrays) batch storage and the
// vectorized GETRF/TRSV backend: pack/unpack round trips across all
// supported sizes, and bitwise/ULP equivalence of every available SIMD
// ISA against the scalar implicit-pivoting reference on random and
// adversarial (near-singular, permutation-heavy) batches.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/getrf.hpp"
#include "core/interleaved.hpp"
#include "core/simd_dispatch.hpp"
#include "core/trsv.hpp"
#include "core/vectorized.hpp"

namespace vbatch::core {
namespace {

template <typename T>
std::uint64_t bit_pattern(T x) {
    if constexpr (sizeof(T) == 4) {
        std::uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        return u;
    } else {
        std::uint64_t u;
        std::memcpy(&u, &x, sizeof(u));
        return u;
    }
}

/// Distance in units-in-the-last-place between two finite values of the
/// same sign ordering (0 = bitwise identical up to -0/+0).
template <typename T>
std::uint64_t ulp_distance(T a, T b) {
    if (std::isnan(a) || std::isnan(b)) {
        return a == b || (std::isnan(a) && std::isnan(b))
                   ? 0
                   : std::numeric_limits<std::uint64_t>::max();
    }
    auto key = [](T x) -> std::int64_t {
        const auto u = static_cast<std::int64_t>(bit_pattern(x));
        // Map the sign-magnitude float encoding onto a monotonic range.
        return u < 0 ? std::numeric_limits<std::int64_t>::min() - u : u;
    };
    const auto ka = key(a);
    const auto kb = key(b);
    return static_cast<std::uint64_t>(ka > kb ? ka - kb : kb - ka);
}

std::vector<size_type> iota_indices(size_type n) {
    std::vector<size_type> idx(static_cast<std::size_t>(n));
    std::iota(idx.begin(), idx.end(), size_type{0});
    return idx;
}

/// Reversed identity: forces a different pivot row at every step.
template <typename T>
void make_permutation_heavy(MatrixView<T> v) {
    for (index_type j = 0; j < v.cols(); ++j) {
        for (index_type i = 0; i < v.rows(); ++i) {
            v(i, j) = (i == v.rows() - 1 - j) ? T{1} : T{0};
        }
    }
}

/// Random general block with one row scaled to the denormal edge: still
/// nonsingular, but every pivot decision is magnitude-critical.
template <typename T>
void make_near_singular(MatrixView<T> v, std::uint64_t seed) {
    auto eng = make_engine(seed, 0);
    for (index_type j = 0; j < v.cols(); ++j) {
        for (index_type i = 0; i < v.rows(); ++i) {
            v(i, j) = uniform<T>(eng, T{-1}, T{1});
        }
    }
    const index_type r = v.rows() / 2;
    for (index_type j = 0; j < v.cols(); ++j) {
        v(r, j) *= std::numeric_limits<T>::min();
    }
}

template <typename T>
void expect_batches_equal(const BatchedMatrices<T>& a,
                          const BatchedMatrices<T>& b,
                          std::uint64_t max_ulp, const char* label) {
    ASSERT_EQ(a.count(), b.count());
    for (size_type i = 0; i < a.count(); ++i) {
        const auto va = a.view(i);
        const auto vb = b.view(i);
        for (index_type c = 0; c < va.cols(); ++c) {
            for (index_type r = 0; r < va.rows(); ++r) {
                EXPECT_LE(ulp_distance(va(r, c), vb(r, c)), max_ulp)
                    << label << ": entry " << i << " (" << r << "," << c
                    << "): " << va(r, c) << " vs " << vb(r, c);
            }
        }
    }
}

void expect_pivots_equal(const BatchedPivots& a, const BatchedPivots& b) {
    ASSERT_EQ(a.count(), b.count());
    for (size_type i = 0; i < a.count(); ++i) {
        const auto sa = a.span(i);
        const auto sb = b.span(i);
        for (std::size_t k = 0; k < sa.size(); ++k) {
            EXPECT_EQ(sa[k], sb[k]) << "entry " << i << " pivot " << k;
        }
    }
}

class InterleavedIsas : public ::testing::TestWithParam<SimdIsa> {};

INSTANTIATE_TEST_SUITE_P(
    AvailableIsas, InterleavedIsas,
    ::testing::ValuesIn(available_simd_isas()),
    [](const ::testing::TestParamInfo<SimdIsa>& info) {
        return simd_isa_name(info.param);
    });

TEST_P(InterleavedIsas, PackUnpackRoundTripAllSizes) {
    // One group per size 1..32 with a count that exercises lane padding.
    for (index_type m = 1; m <= max_block_size; ++m) {
        const size_type count = 2 * simd_lanes<double>(GetParam()) + 1;
        auto batch = BatchedMatrices<double>::random_general(
            make_uniform_layout(count, m), 42 + m);
        const auto idx = iota_indices(count);
        InterleavedGroup<double> g(m, count, GetParam());
        g.pack_matrices(batch, idx);
        // Spot-check the layout contract: (r, c) of lane l contiguous.
        const auto v0 = batch.view(0);
        for (index_type c = 0; c < m; ++c) {
            for (index_type r = 0; r < m; ++r) {
                EXPECT_EQ(g.values()[g.value_index(r, c, 0)], v0(r, c));
            }
        }
        BatchedMatrices<double> round(batch.layout_ptr());
        g.unpack_matrices(round, idx);
        expect_batches_equal(batch, round, 0, "round-trip");
    }
}

TEST_P(InterleavedIsas, VectorsRoundTrip) {
    for (index_type m = 1; m <= max_block_size; m += 5) {
        const size_type count = simd_lanes<double>(GetParam()) + 2;
        const auto layout = make_uniform_layout(count, m);
        auto vecs = BatchedVectors<double>::random(layout, 7);
        const auto idx = iota_indices(count);
        InterleavedVectors<double> iv(m, count, GetParam());
        iv.pack(vecs, idx);
        BatchedVectors<double> round(layout);
        iv.unpack(round, idx);
        for (size_type i = 0; i < count; ++i) {
            const auto a = vecs.span(i);
            const auto b = round.span(i);
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k], b[k]);
            }
        }
    }
}

template <typename T>
void check_getrf_equivalence(SimdIsa isa, BatchedMatrices<T>&& batch,
                             const char* label) {
    auto reference = batch.clone();
    BatchedPivots ref_perm(batch.layout_ptr());
    GetrfOptions ref_opts;
    ref_opts.on_singular = SingularPolicy::report;
    ref_opts.parallel = false;
    const auto ref_status = getrf_batch(reference, ref_perm, ref_opts);

    BatchedPivots vec_perm(batch.layout_ptr());
    VectorizedOptions opts;
    opts.isa = isa;
    opts.on_singular = SingularPolicy::report;
    opts.parallel = false;
    const auto vec_status = getrf_batch_vectorized(batch, vec_perm, opts);

    EXPECT_EQ(ref_status.failures, vec_status.failures) << label;
    expect_batches_equal(reference, batch, 0, label);
    expect_pivots_equal(ref_perm, vec_perm);
}

TEST_P(InterleavedIsas, GetrfMatchesScalarOnRandomGeneral) {
    for (index_type m = 1; m <= max_block_size; ++m) {
        check_getrf_equivalence<double>(
            GetParam(),
            BatchedMatrices<double>::random_general(
                make_uniform_layout(9, m), 100 + m),
            "random general (double)");
        check_getrf_equivalence<float>(
            GetParam(),
            BatchedMatrices<float>::random_general(
                make_uniform_layout(17, m), 300 + m),
            "random general (float)");
    }
}

TEST_P(InterleavedIsas, GetrfMatchesScalarOnDiagonallyDominant) {
    for (const index_type m : {4, 8, 16, 24, 32}) {
        check_getrf_equivalence<double>(
            GetParam(),
            BatchedMatrices<double>::random_diagonally_dominant(
                make_uniform_layout(13, m), 500 + m),
            "diagonally dominant");
    }
}

TEST_P(InterleavedIsas, GetrfMatchesScalarOnAdversarialBatches) {
    for (const index_type m : {2, 5, 8, 16, 32}) {
        const size_type count = 8;
        auto batch = BatchedMatrices<double>(make_uniform_layout(count, m));
        for (size_type b = 0; b < count; ++b) {
            if (b % 2 == 0) {
                make_permutation_heavy(batch.view(b));
            } else {
                make_near_singular(batch.view(b),
                                   static_cast<std::uint64_t>(900 + b));
            }
        }
        check_getrf_equivalence<double>(GetParam(), std::move(batch),
                                        "adversarial");
    }
}

TEST_P(InterleavedIsas, GetrfMatchesScalarOnRaggedBatch) {
    std::vector<index_type> sizes = {3, 17, 8, 8, 1, 32, 8, 17, 2, 8,
                                     5, 8,  8, 8, 8, 29, 8, 8,  8, 4};
    auto batch = BatchedMatrices<double>::random_general(
        make_layout(std::move(sizes)), 7777);
    check_getrf_equivalence<double>(GetParam(), std::move(batch),
                                    "ragged batch");
}

TEST_P(InterleavedIsas, GetrsMatchesScalarReference) {
    for (const index_type m : {1, 4, 8, 16, 24, 32}) {
        const size_type count = 11;
        const auto layout = make_uniform_layout(count, m);
        auto factors = BatchedMatrices<double>::random_general(layout,
                                                               600 + m);
        BatchedPivots perm(layout);
        GetrfOptions fopts;
        fopts.parallel = false;
        getrf_batch(factors, perm, fopts);

        auto b_ref = BatchedVectors<double>::random(layout, 11);
        auto b_vec = b_ref.clone();
        TrsvOptions ref_opts;
        ref_opts.parallel = false;
        getrs_batch(factors, perm, b_ref, ref_opts);

        VectorizedOptions opts;
        opts.isa = GetParam();
        opts.parallel = false;
        getrs_batch_vectorized(factors, perm, b_vec, opts);

        for (size_type i = 0; i < count; ++i) {
            const auto ra = b_ref.span(i);
            const auto rb = b_vec.span(i);
            for (std::size_t k = 0; k < ra.size(); ++k) {
                EXPECT_LE(ulp_distance(ra[k], rb[k]), 0u)
                    << "m=" << m << " entry " << i << " row " << k;
            }
        }
    }
}

TEST_P(InterleavedIsas, SingularBlocksAreReportedAndFrozen) {
    const index_type m = 8;
    const size_type count = 7;
    auto batch = BatchedMatrices<double>::random_general(
        make_uniform_layout(count, m), 1234);
    // Zero out one full column of two entries: exact breakdown mid-way.
    for (const size_type bad : {size_type{2}, size_type{5}}) {
        auto v = batch.view(bad);
        for (index_type i = 0; i < m; ++i) {
            v(i, 3) = 0.0;
        }
    }
    auto reference = batch.clone();
    BatchedPivots ref_perm(batch.layout_ptr());
    GetrfOptions ref_opts;
    ref_opts.on_singular = SingularPolicy::report;
    ref_opts.parallel = false;
    const auto ref_status = getrf_batch(reference, ref_perm, ref_opts);
    ASSERT_EQ(ref_status.failures, 2);

    BatchedPivots vec_perm(batch.layout_ptr());
    VectorizedOptions opts;
    opts.isa = GetParam();
    opts.on_singular = SingularPolicy::report;
    opts.parallel = false;
    const auto vec_status = getrf_batch_vectorized(batch, vec_perm, opts);
    EXPECT_EQ(vec_status.failures, 2);
    EXPECT_EQ(vec_status.first_failure, 2);

    // Failed lanes freeze exactly where the scalar kernel returned, and
    // their completed permutation matches too.
    expect_batches_equal(reference, batch, 0, "singular freeze");
    expect_pivots_equal(ref_perm, vec_perm);

    // Throwing policy surfaces the first failure.
    auto again = reference.clone();
    BatchedPivots perm2(again.layout_ptr());
    VectorizedOptions throwing = opts;
    throwing.on_singular = SingularPolicy::throw_on_breakdown;
    EXPECT_THROW(getrf_batch_vectorized(again, perm2, throwing),
                 SingularMatrix);
}

TEST_P(InterleavedIsas, GroupLevelRoundTripSolvesLinearSystem) {
    const index_type m = 16;
    const size_type count = 2 * simd_lanes<double>(GetParam()) + 3;
    const auto layout = make_uniform_layout(count, m);
    auto batch = BatchedMatrices<double>::random_diagonally_dominant(
        layout, 77);
    const auto original = batch.clone();
    const auto idx = iota_indices(count);

    InterleavedGroup<double> g(m, count, GetParam());
    g.pack_matrices(batch, idx);
    VectorizedOptions opts;
    opts.isa = GetParam();
    opts.parallel = false;
    const auto status = getrf_interleaved(g, opts);
    EXPECT_TRUE(status.ok());

    auto x = BatchedVectors<double>::ones(layout);
    InterleavedVectors<double> rhs(m, count, GetParam());
    rhs.pack(x, idx);
    getrs_interleaved(g, rhs, opts);
    rhs.unpack(x, idx);

    // Check A x = 1 by residual.
    for (size_type b = 0; b < count; ++b) {
        const auto v = original.view(b);
        const auto xb = x.span(b);
        for (index_type i = 0; i < m; ++i) {
            double acc = 0;
            for (index_type j = 0; j < m; ++j) {
                acc += v(i, j) * xb[static_cast<std::size_t>(j)];
            }
            EXPECT_NEAR(acc, 1.0, 1e-10) << "entry " << b << " row " << i;
        }
    }
}

TEST_P(InterleavedIsas, EnvelopeFollowsEveryFactorWrite) {
    // Tridiagonal, diagonally dominant blocks: the factorization records
    // each chunk's band envelope, 3m - 2 of the m^2 entries.
    const index_type m = 12;
    const size_type count = 2 * simd_lanes<double>(GetParam()) + 1;
    const auto layout = make_uniform_layout(count, m);
    const auto idx = iota_indices(count);
    BatchedMatrices<double> band(layout);
    for (size_type b = 0; b < count; ++b) {
        auto v = band.view(b);
        for (index_type j = 0; j < m; ++j) {
            for (index_type i = 0; i < m; ++i) {
                v(i, j) = i == j ? 4.0 + static_cast<double>(b)
                          : i - j == 1 || j - i == 1
                              ? -1.0 - 0.1 * static_cast<double>(i)
                              : 0.0;
            }
        }
    }
    InterleavedGroup<double> g(m, count, GetParam());
    g.pack_matrices(band, idx);
    VectorizedOptions opts;
    opts.isa = GetParam();
    opts.parallel = false;
    ASSERT_TRUE(getrf_interleaved(g, opts).ok());
    const auto chunk_entries = [&](size_type c) {
        return envelope_entries(std::span<const index_type>(
            g.envelope() + c * 2 * m, static_cast<std::size_t>(2 * m)));
    };
    for (size_type c = 0; c < g.chunks(); ++c) {
        EXPECT_EQ(chunk_entries(c), 3.0 * m - 2.0) << "chunk " << c;
    }

    // Packing dense factors over the banded ones must not keep the band:
    // pack_matrices resets every chunk to full bounds, the solve matches
    // the full-bounds reference bitwise, and a rescan finds no zeros.
    auto dense = BatchedMatrices<double>::random_general(layout, 5);
    BatchedPivots perm(layout);
    GetrfOptions fopts;
    fopts.parallel = false;
    getrf_batch(dense, perm, fopts);
    g.pack_matrices(dense, idx);
    g.pack_pivots(perm, idx);
    for (size_type c = 0; c < g.chunks(); ++c) {
        EXPECT_EQ(chunk_entries(c), static_cast<double>(m) * m);
    }
    auto b_ref = BatchedVectors<double>::random(layout, 9);
    auto b_vec = b_ref.clone();
    TrsvOptions ref_opts;
    ref_opts.parallel = false;
    getrs_batch(dense, perm, b_ref, ref_opts);
    InterleavedVectors<double> rhs(m, count, GetParam());
    rhs.pack(b_vec, idx);
    getrs_interleaved(g, rhs, opts);
    rhs.unpack(b_vec, idx);
    for (size_type b = 0; b < count; ++b) {
        const auto ra = b_ref.span(b);
        const auto rb = b_vec.span(b);
        for (std::size_t k = 0; k < ra.size(); ++k) {
            EXPECT_EQ(bit_pattern(ra[k]), bit_pattern(rb[k]))
                << "entry " << b << " row " << k;
        }
    }
    for (size_type c = 0; c < g.chunks(); ++c) {
        envelope_interleaved_chunk(g, c);
        EXPECT_EQ(chunk_entries(c), static_cast<double>(m) * m);
    }
}

TEST(InterleavedDispatch, DetectionIsAvailableAndNamed) {
    const auto isa = detect_simd_isa();
    EXPECT_TRUE(simd_isa_available(isa));
    EXPECT_STRNE(simd_isa_name(isa), "unknown");
    const auto isas = available_simd_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), SimdIsa::scalar);
    EXPECT_EQ(simd_lanes<double>(SimdIsa::avx512), 8);
    EXPECT_EQ(simd_lanes<float>(SimdIsa::avx512), 16);
    EXPECT_EQ(simd_lanes<double>(SimdIsa::avx2), 4);
    EXPECT_EQ(simd_lanes<float>(SimdIsa::avx2), 8);
    EXPECT_EQ(simd_lanes<double>(SimdIsa::sse2), 2);
    EXPECT_EQ(simd_lanes<float>(SimdIsa::sse2), 4);
    EXPECT_EQ(simd_lanes<double>(SimdIsa::neon), 2);
    EXPECT_EQ(simd_lanes<float>(SimdIsa::neon), 4);
    EXPECT_EQ(simd_lanes<double>(SimdIsa::scalar), 1);
}

}  // namespace
}  // namespace vbatch::core
