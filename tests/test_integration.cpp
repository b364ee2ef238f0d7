// End-to-end integration tests: the complete paper pipeline
// (suite matrix -> supervariable blocking -> extraction -> batched
// factorization -> IDR(4) with block-Jacobi preconditioning).
#include "base/exception.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "blas/blas1.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/config.hpp"
#include "solvers/idr.hpp"
#include "sparse/suite.hpp"

namespace vbatch {
namespace {

solvers::SolveResult run_idr(const sparse::Csr<double>& a,
                             const std::string& backend,
                             index_type block_bound,
                             index_type max_iters = 10000) {
    precond::Config config;
    config.backend = backend;
    config.max_block_size = block_bound;
    const auto prec = precond::make_preconditioner<double>(a, config);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()), 1.0);
    std::vector<double> x(b.size(), 0.0);
    solvers::IdrOptions sopts;
    sopts.max_iters = max_iters;
    return solvers::idr(a, std::span<const double>(b), std::span<double>(x),
                        *prec, sopts);
}

TEST(Integration, FemBlockProblemFullPipeline) {
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("fem_d4_s"));
    const auto result = run_idr(a, "lu", 32);
    EXPECT_TRUE(result.converged());
    EXPECT_LT(result.relative_residual(), 1e-6);
    EXPECT_GT(result.iterations, 0);
}

TEST(Integration, LuAndGhPreconditionersAreComparable) {
    // The Fig. 8 observation: iteration counts with LU- and GH-based
    // block-Jacobi agree on most problems up to rounding-driven noise.
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("fem_d8_s"));
    const auto r_lu = run_idr(a, "lu", 24);
    const auto r_gh = run_idr(a, "gh", 24);
    ASSERT_TRUE(r_lu.converged());
    ASSERT_TRUE(r_gh.converged());
    const double ratio = static_cast<double>(r_lu.iterations) /
                         static_cast<double>(r_gh.iterations);
    EXPECT_GT(ratio, 0.5);
    EXPECT_LT(ratio, 2.0);
}

TEST(Integration, GhAndGhtGiveIdenticalIterationCounts) {
    // GH and GH-T factors are bitwise transposes: the preconditioned
    // iteration must be identical, not merely close.
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("lap2d_d4"));
    const auto r_gh = run_idr(a, "gh", 16);
    const auto r_ght = run_idr(a, "gh-t", 16);
    ASSERT_TRUE(r_gh.converged());
    EXPECT_EQ(r_gh.iterations, r_ght.iterations);
}

TEST(Integration, LargerBlocksTypicallyHelp) {
    // Table I trend: larger block bounds improve convergence on matrices
    // with real block structure.
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("fem_d12_s"));
    const auto r8 = run_idr(a, "lu", 8);
    const auto r32 = run_idr(a, "lu", 32);
    ASSERT_TRUE(r8.converged());
    ASSERT_TRUE(r32.converged());
    EXPECT_LE(r32.iterations, r8.iterations);
}

TEST(Integration, InversionBackendAlsoWorks) {
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("lap3d_d2"));
    const auto result = run_idr(a, "gje-inv", 16);
    EXPECT_TRUE(result.converged());
}

TEST(Integration, HardCaseStressesTheSolver) {
    // The deliberately indefinite problems either need many iterations or
    // fail -- mirroring the non-converging entries of the paper's Table I.
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("hard_shift_high"));
    const auto result = run_idr(a, "lu", 32,
                                600);
    if (result.converged()) {
        EXPECT_GT(result.iterations, 50);
    } else {
        SUCCEED();
    }
}

TEST(Integration, CircuitMatrixExtractionAndSolve) {
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("circuit_s"));
    const auto result = run_idr(a, "lu", 16);
    EXPECT_TRUE(result.converged());
}

TEST(Integration, SetupTimeIsAccounted) {
    const auto a = sparse::build_suite_matrix(
        sparse::suite_case_by_name("lap2d_d2"));
    precond::BlockJacobiOptions popts;
    popts.max_block_size = 16;
    precond::BlockJacobi<double> prec(a, popts);
    EXPECT_GT(prec.setup_seconds(), 0.0);
    EXPECT_GT(prec.num_blocks(), 1);
}

}  // namespace
}  // namespace vbatch
