// Tests for the preconditioner ecosystem.
#include "base/exception.hpp"
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "blas/dense_matrix.hpp"
#include "blas/lapack.hpp"
#include "core/bytes.hpp"
#include "obs/metrics.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/preconditioner.hpp"
#include "precond/scalar_jacobi.hpp"
#include "sparse/generators.hpp"
#include "sparse/suite.hpp"

namespace vbatch::precond {
namespace {

TEST(Identity, CopiesInput) {
    IdentityPreconditioner<double> prec;
    std::vector<double> r{1, 2, 3};
    std::vector<double> z(3);
    prec.apply(std::span<const double>(r), std::span<double>(z));
    EXPECT_EQ(z[1], 2.0);
    EXPECT_EQ(prec.name(), "identity");
}

TEST(ScalarJacobi, DividesByDiagonal) {
    const auto a = sparse::laplacian_2d<double>(4, 4, 1);
    ScalarJacobi<double> prec(a);
    std::vector<double> r(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> z(r.size());
    prec.apply(std::span<const double>(r), std::span<double>(z));
    for (index_type i = 0; i < a.num_rows(); ++i) {
        EXPECT_NEAR(z[static_cast<std::size_t>(i)] * a.at(i, i), 1.0,
                    1e-14);
    }
    EXPECT_EQ(prec.num_blocks(), a.num_rows());
}

TEST(ScalarJacobi, RejectsZeroDiagonal) {
    auto a = sparse::Csr<double>::from_triplets(2, 2,
                                                {{0, 0, 1.0}, {1, 0, 1.0}});
    EXPECT_THROW(ScalarJacobi<double>{a}, BadParameter);
}

class BlockJacobiBackends
    : public ::testing::TestWithParam<BlockJacobiBackend> {};

TEST_P(BlockJacobiBackends, ApplyEqualsDenseBlockSolve) {
    const auto backend = GetParam();
    const auto a = sparse::laplacian_2d<double>(6, 6, 4);
    BlockJacobiOptions opts;
    opts.backend = backend;
    opts.max_block_size = 16;
    BlockJacobi<double> prec(a, opts);

    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = std::sin(0.1 * static_cast<double>(i)) + 0.5;
    }
    std::vector<double> z(n);
    prec.apply(std::span<const double>(r), std::span<double>(z));

    // Reference: dense solve of every diagonal block.
    const auto& layout = prec.layout();
    for (size_type b = 0; b < layout.count(); ++b) {
        const auto r0 = static_cast<index_type>(layout.row_offset(b));
        const index_type m = layout.size(b);
        DenseMatrix<double> block(m, m);
        for (index_type i = 0; i < m; ++i) {
            for (index_type j = 0; j < m; ++j) {
                block(i, j) = a.at(r0 + i, r0 + j);
            }
        }
        std::vector<double> ref(r.begin() + r0, r.begin() + r0 + m);
        ASSERT_EQ(lapack::gesv<double>(block.view(), std::span<double>(ref)),
                  0);
        for (index_type i = 0; i < m; ++i) {
            EXPECT_NEAR(z[static_cast<std::size_t>(r0 + i)],
                        ref[static_cast<std::size_t>(i)], 1e-9)
                << backend_name(backend) << " block " << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Backends, BlockJacobiBackends,
                         ::testing::Values(BlockJacobiBackend::lu_simd,
                                           BlockJacobiBackend::gauss_huard,
                                           BlockJacobiBackend::gauss_huard_t,
                                           BlockJacobiBackend::gje_inversion));

TEST(BlockJacobi, SimdBackendMatchesScalarLuBitwise) {
    const auto a = sparse::fem_block_matrix<double>(60, 4, 12, 2, 0.2, 29);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n);
    for (std::size_t i = 0; i < n; ++i) {
        r[i] = std::cos(0.3 * static_cast<double>(i));
    }
    BlockJacobiOptions lu_opts;
    lu_opts.simd = core::SimdIsa::scalar;
    BlockJacobi<double> lu(a, lu_opts);
    std::vector<double> z_lu(n);
    lu.apply(std::span<const double>(r), std::span<double>(z_lu));

    for (const auto isa : core::available_simd_isas()) {
        BlockJacobiOptions simd_opts;
        simd_opts.backend = BlockJacobiBackend::lu_simd;
        simd_opts.simd = isa;
        BlockJacobi<double> simd(a, simd_opts);
        // Identical factors and pivots (implicit-pivoting LU is executed
        // with the same operation order lane-parallel)...
        ASSERT_EQ(simd.factors().count(), lu.factors().count());
        for (size_type b = 0; b < lu.factors().count(); ++b) {
            const auto va = lu.factors().view(b);
            const auto vb = simd.factors().view(b);
            for (index_type c = 0; c < va.cols(); ++c) {
                for (index_type rr = 0; rr < va.rows(); ++rr) {
                    ASSERT_EQ(va(rr, c), vb(rr, c))
                        << core::simd_isa_name(isa) << " block " << b;
                }
            }
            const auto pa = lu.pivots().span(b);
            const auto pb = simd.pivots().span(b);
            for (std::size_t k = 0; k < pa.size(); ++k) {
                ASSERT_EQ(pa[k], pb[k]);
            }
        }
        // ...and a bitwise-identical application.
        std::vector<double> z_simd(n);
        simd.apply(std::span<const double>(r), std::span<double>(z_simd));
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(z_lu[i], z_simd[i])
                << core::simd_isa_name(isa) << " row " << i;
        }
        EXPECT_LE(simd.num_simd_blocks(), simd.num_blocks());
        // One lane is the paper's per-block LU and is named after it.
        EXPECT_EQ(simd.name(),
                  isa == core::SimdIsa::scalar
                      ? std::string("block-jacobi(lu,32)")
                      : std::string("block-jacobi(lu-simd[") +
                            core::simd_isa_name(isa) + "],32)");
    }
}

TEST(BlockJacobi, BackendsAgreeWithinRounding) {
    const auto a = sparse::fem_block_matrix<double>(40, 4, 12, 2, 0.2, 13);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n, 1.0);
    std::vector<double> z_lu(n), z_gh(n);
    BlockJacobiOptions lu_opts;
    lu_opts.simd = core::SimdIsa::scalar;
    BlockJacobi<double> lu(a, lu_opts);
    lu.apply(std::span<const double>(r), std::span<double>(z_lu));
    BlockJacobiOptions gh_opts;
    gh_opts.backend = BlockJacobiBackend::gauss_huard;
    BlockJacobi<double> gh(a, gh_opts);
    gh.apply(std::span<const double>(r), std::span<double>(z_gh));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(z_lu[i], z_gh[i],
                    1e-9 * std::max(1.0, std::abs(z_lu[i])));
    }
}

TEST(BlockJacobi, RespectsBlockSizeBound) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 4);
    for (const index_type bound : {8, 12, 16, 24, 32}) {
        BlockJacobiOptions opts;
        opts.max_block_size = bound;
        BlockJacobi<double> prec(a, opts);
        for (size_type b = 0; b < prec.layout().count(); ++b) {
            EXPECT_LE(prec.layout().size(b), bound);
        }
        EXPECT_EQ(prec.layout().total_rows(), a.num_rows());
    }
}

TEST(BlockJacobi, AcceptsPrecomputedLayout) {
    const auto a = sparse::random_banded<double>(64, 2, 1.0, 3);
    BlockJacobiOptions opts;
    opts.layout = core::make_uniform_layout(8, 8);
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.num_blocks(), 8);
    EXPECT_EQ(prec.layout().size(0), 8);
}

TEST(BlockJacobi, SingularBlockThrowsUnderStrictPolicy) {
    // Block {2,3} is [[1,1],[1,1]]: rows identical inside the block,
    // exactly singular.
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0}, {3, 2, 1.0},
         {3, 3, 1.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({1, 1, 2});
    opts.recovery = RecoveryPolicy::strict();
    EXPECT_THROW((BlockJacobi<double>(a, opts)), SingularMatrix);
}

TEST(BlockJacobi, SingularBlockRecoversByDefault) {
    const auto a = sparse::Csr<double>::from_triplets(
        4, 4,
        {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {2, 3, 1.0}, {3, 2, 1.0},
         {3, 3, 1.0}});
    BlockJacobiOptions opts;
    opts.layout = core::make_layout({1, 1, 2});
    const BlockJacobi<double> precond(a, opts);
    const auto summary = precond.recovery_summary();
    EXPECT_EQ(summary.total(), 3);
    EXPECT_EQ(summary.ok, 2);
    EXPECT_EQ(summary.boosted, 1);
    EXPECT_EQ(precond.block_status()[2], core::BlockStatus::boosted);
    // The boosted preconditioner must produce finite output.
    const std::vector<double> r{1.0, 2.0, 3.0, 4.0};
    std::vector<double> z(4, 0.0);
    precond.apply(r, z);
    for (const auto v : z) {
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(BlockJacobi, NameAndSetupTime) {
    const auto a = sparse::laplacian_2d<double>(5, 5, 2);
    BlockJacobiOptions opts;
    opts.backend = BlockJacobiBackend::gauss_huard_t;
    opts.max_block_size = 12;
    BlockJacobi<double> prec(a, opts);
    EXPECT_EQ(prec.name(), "block-jacobi(gh-t,12)");
    EXPECT_GE(prec.setup_seconds(), 0.0);
}

TEST(BlockJacobi, TrsvVariantsGiveSameAnswer) {
    const auto a = sparse::laplacian_2d<double>(6, 6, 3);
    const auto n = static_cast<std::size_t>(a.num_rows());
    std::vector<double> r(n, 2.0), z1(n), z2(n);
    // One lane, so every block takes the per-block solve the variant
    // selects (lane chunks always solve eagerly).
    BlockJacobiOptions o1;
    o1.simd = core::SimdIsa::scalar;
    o1.trsv_variant = core::TrsvVariant::eager;
    BlockJacobiOptions o2 = o1;
    o2.trsv_variant = core::TrsvVariant::lazy;
    BlockJacobi<double>(a, o1).apply(std::span<const double>(r),
                                     std::span<double>(z1));
    BlockJacobi<double>(a, o2).apply(std::span<const double>(r),
                                     std::span<double>(z2));
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(z1[i], z2[i], 1e-11);
    }
}

TEST(BlockJacobi, DiagnosticsReportConditioning) {
    const auto a = sparse::laplacian_2d<double>(8, 8, 4);
    BlockJacobiOptions opts;
    opts.max_block_size = 16;
    BlockJacobi<double> prec(a, opts);
    const auto d = prec.diagnostics(a);
    EXPECT_EQ(d.num_blocks, prec.num_blocks());
    EXPECT_GE(d.min_block_size, 1);
    EXPECT_LE(d.max_block_size, 16);
    EXPECT_GT(d.mean_block_size, 0.0);
    EXPECT_GE(d.min_condition, 1.0);
    EXPECT_GE(d.max_condition, d.min_condition);
    EXPECT_GE(d.geomean_condition, d.min_condition * 0.999);
    EXPECT_LE(d.geomean_condition, d.max_condition * 1.001);
    // The diagonal blocks of this well-posed stencil are benign.
    EXPECT_LT(d.max_condition, 1e4);
}

/// Reference apply: every block's full-bounds eager solve over
/// prec.factors()/pivots(), wrapped in the butterfly vector transforms
/// where the block took the RBT fast path.
std::vector<double> dense_eager_apply(const BlockJacobi<double>& prec,
                                      const std::vector<double>& r) {
    const auto& layout = prec.layout();
    const core::RbtTransforms<double> rbt(prec.options().rbt_seed,
                                          prec.options().rbt_depth);
    std::vector<double> z(r);
    for (size_type b = 0; b < layout.count(); ++b) {
        const auto st = prec.block_status()[static_cast<std::size_t>(b)];
        EXPECT_TRUE(st == core::BlockStatus::ok ||
                    st == core::BlockStatus::boosted)
            << "block " << b << " is applied by the fallback";
        const std::span<double> zb(
            z.data() + layout.row_offset(b),
            static_cast<std::size_t>(layout.size(b)));
        if (prec.rbt_applied(b)) {
            rbt.forward(b, zb);
            core::getrs_single_nopivot(prec.factors().view(b), zb);
            rbt.backward(b, zb);
        } else {
            core::getrs_single(prec.factors().view(b), prec.pivots().span(b),
                               zb);
        }
    }
    return z;
}

std::vector<double> envelope_rhs(index_type n) {
    std::vector<double> r(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < r.size(); ++i) {
        r[i] = std::sin(0.37 * static_cast<double>(i)) + 1.25;
    }
    return r;
}

TEST(BlockJacobiEnvelope, D1StencilStreamsTheTridiagonalBand) {
    // One dof per point of the 90 x 90 grid, blocks of 30 rows inside one
    // grid line: every block is a tridiagonal run of the 5-point stencil,
    // diagonally dominant, so its LU keeps exactly the band -- 3m - 2
    // entries per block at every lane width.
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("lap2d_d1"));
    ASSERT_EQ(a.num_rows(), 8100);
    BlockJacobiOptions opts;
    opts.layout = core::make_uniform_layout(270, 30);
    const BlockJacobi<double> prec(a, opts);
    double band = 0.0;
    double dense = 0.0;
    for (size_type b = 0; b < prec.layout().count(); ++b) {
        const double m = prec.layout().size(b);
        band += 3.0 * m - 2.0;
        dense += m * m;
    }
    EXPECT_EQ(prec.apply_factor_entries(), band);
    EXPECT_EQ(obs::Registry::global().gauges().at(
                  "block_jacobi.apply_envelope_frac"),
              band / dense);
    // The traffic model charges the streamed band, not the dense blocks.
    double bytes = 0.0;
    for (size_type b = 0; b < prec.layout().count(); ++b) {
        const index_type m = prec.layout().size(b);
        bytes += core::getrs_envelope_bytes<double>(m, 3.0 * m - 2.0);
    }
    EXPECT_DOUBLE_EQ(prec.apply_bytes(), bytes);
}

TEST(BlockJacobiEnvelope, ApplyEqualsDenseEagerSolveBitwise) {
    struct Case {
        const char* name;
        PivotScheme pivot;
    };
    const Case cases[] = {{"lap2d_d1", PivotScheme::implicit},
                          {"convdiff_p10_d4", PivotScheme::implicit},
                          {"circuit_sparse", PivotScheme::implicit},
                          {"fem_d16_m", PivotScheme::implicit},
                          {"convdiff_p10_d4", PivotScheme::rbt}};
    for (const auto& c : cases) {
        const auto a =
            sparse::build_suite_matrix(sparse::suite_case_by_name(c.name));
        const auto r = envelope_rhs(a.num_rows());
        // One lane and the leg's ISA; serial and on the global pool.
        for (const auto isa :
             {core::SimdIsa::scalar, core::detect_simd_isa()}) {
            for (const bool parallel : {false, true}) {
                BlockJacobiOptions opts;
                opts.simd = isa;
                opts.pivot = c.pivot;
                opts.parallel = parallel;
                const BlockJacobi<double> prec(a, opts);
                std::vector<double> z(r.size());
                prec.apply(r, z);
                const auto ref = dense_eager_apply(prec, r);
                for (std::size_t i = 0; i < z.size(); ++i) {
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(z[i]),
                              std::bit_cast<std::uint64_t>(ref[i]))
                        << c.name << " " << prec.name() << " parallel "
                        << parallel << " row " << i;
                }
            }
        }
    }
}

}  // namespace
}  // namespace vbatch::precond
