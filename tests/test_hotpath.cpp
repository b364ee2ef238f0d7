// Solver hot-path contracts: fused BLAS-1 kernels are bitwise identical
// to their unfused compositions, chunked reductions are bitwise stable
// under any work distribution, the Csr spmv partition survives structural
// mutation, the BlockJacobi apply and the IDR(s) iteration perform zero
// heap allocations, and the thread pool's inline/nested fast paths behave.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <thread>
#include <vector>

#include "base/random.hpp"
#include "base/thread_pool.hpp"
#include "blas/blas1.hpp"
#include "blas/blas1_ref.hpp"
#include "blas/fused.hpp"
#include "precond/block_jacobi.hpp"
#include "solvers/cg.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

// ---------------------------------------------------------------------
// Global allocation counter (for the zero-allocation apply and IDR
// iteration tests). All other tests ignore it; the counter itself never
// allocates.
// ---------------------------------------------------------------------
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) -
                                      1) /
                                         static_cast<std::size_t>(align) *
                                         static_cast<std::size_t>(align))) {
        return p;
    }
    throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace vbatch {
namespace {

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 eng(seed);
    std::vector<double> v(n);
    for (auto& x : v) {
        x = uniform(eng, -1.0, 1.0);
    }
    return v;
}

constexpr std::span<const double> cspan(const std::vector<double>& v) {
    return {v.data(), v.size()};
}

// Sizes straddling the chunk boundary: single-chunk (== textbook serial),
// exactly one chunk, and several chunks with a ragged tail.
const std::size_t kSizes[] = {1, 100, blas::blas1_chunk,
                              3 * blas::blas1_chunk + 17};

// ---------------------------------------------------------------------
// Chunked BLAS-1 vs the serial reference loops
// ---------------------------------------------------------------------

TEST(ChunkedBlas1, MatchesSerialReferenceWithinOneChunk) {
    // n <= blas1_chunk: one chunk IS the serial loop, so results must be
    // bitwise equal to the reference for every op.
    const std::size_t n = blas::blas1_chunk;
    const auto x = random_vec(n, 1);
    auto y1 = random_vec(n, 2);
    auto y2 = y1;
    blas::axpy(0.7, cspan(x), std::span<double>(y1));
    blas::ref::axpy(0.7, cspan(x), std::span<double>(y2));
    EXPECT_EQ(y1, y2);
    blas::xpby(cspan(x), -1.3, std::span<double>(y1));
    blas::ref::xpby(cspan(x), -1.3, std::span<double>(y2));
    EXPECT_EQ(y1, y2);
    EXPECT_EQ(blas::dot(cspan(x), cspan(y1)),
              blas::ref::dot(cspan(x), cspan(y2)));
    EXPECT_EQ(blas::nrm2(cspan(x)), blas::ref::nrm2(cspan(x)));
    EXPECT_EQ(blas::asum(cspan(x)), blas::ref::asum(cspan(x)));
}

TEST(ChunkedBlas1, DotMatchesManualChunkOrderCombine) {
    // Multi-chunk dot must equal the fixed-order combination of per-chunk
    // serial partials -- the definition of the determinism contract.
    for (const std::size_t n : kSizes) {
        const auto x = random_vec(n, 3);
        const auto y = random_vec(n, 4);
        double expected = 0.0;
        for (std::size_t lo = 0; lo < n; lo += blas::blas1_chunk) {
            const std::size_t hi = std::min(lo + blas::blas1_chunk, n);
            double partial = 0.0;
            for (std::size_t i = lo; i < hi; ++i) {
                partial += x[i] * y[i];
            }
            expected += partial;
        }
        EXPECT_EQ(blas::dot(cspan(x), cspan(y)), expected) << "n=" << n;
    }
}

// ---------------------------------------------------------------------
// Fused kernels vs their unfused compositions (bitwise)
// ---------------------------------------------------------------------

TEST(FusedBlas1, ResidualNorm2MatchesUnfused) {
    for (const std::size_t n : kSizes) {
        const auto b = random_vec(n, 5);
        auto r1 = random_vec(n, 6);
        auto r2 = r1;
        const double norm =
            blas::fused_residual_norm2(cspan(b), std::span<double>(r1));
        for (std::size_t i = 0; i < n; ++i) {
            r2[i] = b[i] - r2[i];
        }
        EXPECT_EQ(r1, r2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(r2))) << "n=" << n;
    }
}

TEST(FusedBlas1, CgUpdateMatchesUnfused) {
    for (const std::size_t n : kSizes) {
        const auto p = random_vec(n, 7);
        const auto q = random_vec(n, 8);
        auto x1 = random_vec(n, 9);
        auto r1 = random_vec(n, 10);
        auto x2 = x1;
        auto r2 = r1;
        const double alpha = 0.37;
        const double norm = blas::fused_cg_update(
            alpha, cspan(p), cspan(q), std::span<double>(x1),
            std::span<double>(r1));
        blas::axpy(alpha, cspan(p), std::span<double>(x2));
        blas::axpy(-alpha, cspan(q), std::span<double>(r2));
        EXPECT_EQ(x1, x2) << "n=" << n;
        EXPECT_EQ(r1, r2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(r2))) << "n=" << n;
    }
}

TEST(FusedBlas1, BicgstabKernelsMatchUnfused) {
    for (const std::size_t n : kSizes) {
        const auto r = random_vec(n, 11);
        const auto v = random_vec(n, 12);
        const double beta = 1.7, omega = 0.4, alpha = -0.9;
        auto p1 = random_vec(n, 13);
        auto p2 = p1;
        blas::fused_bicg_p_update(beta, omega, cspan(r), cspan(v),
                                  std::span<double>(p1));
        for (std::size_t i = 0; i < n; ++i) {
            p2[i] = r[i] + beta * (p2[i] - omega * v[i]);
        }
        EXPECT_EQ(p1, p2) << "n=" << n;

        std::vector<double> s1(n), s2(n);
        const double norms = blas::fused_sub_axpy_norm2(
            alpha, cspan(r), cspan(v), std::span<double>(s1));
        for (std::size_t i = 0; i < n; ++i) {
            s2[i] = r[i] - alpha * v[i];
        }
        EXPECT_EQ(s1, s2) << "n=" << n;
        EXPECT_EQ(norms, blas::nrm2(cspan(s2))) << "n=" << n;

        const auto t = random_vec(n, 14);
        const auto [tt, ts] = blas::fused_dot2(cspan(t), cspan(t), cspan(s1));
        EXPECT_EQ(tt, blas::dot(cspan(t), cspan(t))) << "n=" << n;
        EXPECT_EQ(ts, blas::dot(cspan(t), cspan(s1))) << "n=" << n;

        auto x1 = random_vec(n, 15);
        auto r1 = random_vec(n, 16);
        auto x2 = x1;
        auto r2 = r1;
        const auto phat = random_vec(n, 17);
        const auto shat = random_vec(n, 18);
        const double norm = blas::fused_bicg_xr_update(
            alpha, cspan(phat), omega, cspan(shat), cspan(s1), cspan(t),
            std::span<double>(x1), std::span<double>(r1));
        for (std::size_t i = 0; i < n; ++i) {
            x2[i] += alpha * phat[i] + omega * shat[i];
            r2[i] = s1[i] - omega * t[i];
        }
        EXPECT_EQ(x1, x2) << "n=" << n;
        EXPECT_EQ(r1, r2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(r2))) << "n=" << n;
    }
}

TEST(FusedBlas1, AxpyNorm2AndAxpbyAndDivCopyMatchUnfused) {
    for (const std::size_t n : kSizes) {
        const auto x = random_vec(n, 19);
        auto y1 = random_vec(n, 20);
        auto y2 = y1;
        const double norm =
            blas::fused_axpy_norm2(-0.6, cspan(x), std::span<double>(y1));
        blas::axpy(-0.6, cspan(x), std::span<double>(y2));
        EXPECT_EQ(y1, y2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(y2))) << "n=" << n;

        blas::fused_axpby(0.3, cspan(x), -1.1, std::span<double>(y1));
        for (std::size_t i = 0; i < n; ++i) {
            y2[i] = 0.3 * x[i] + -1.1 * y2[i];
        }
        EXPECT_EQ(y1, y2) << "n=" << n;

        std::vector<double> z1(n), z2(n);
        blas::fused_div_copy(cspan(x), 3.7, std::span<double>(z1));
        for (std::size_t i = 0; i < n; ++i) {
            z2[i] = x[i] / 3.7;
        }
        EXPECT_EQ(z1, z2) << "n=" << n;
    }
}

TEST(FusedBlas1, SmoothingKernelsMatchUnfused) {
    for (const std::size_t n : kSizes) {
        const auto r = random_vec(n, 21);
        const auto x = random_vec(n, 22);
        auto rs1 = random_vec(n, 23);
        auto xs1 = random_vec(n, 24);
        auto rs2 = rs1;
        auto xs2 = xs1;
        const auto [dd, rd] = blas::fused_smoothing_dots(cspan(rs1),
                                                         cspan(r));
        {
            // Unfused composition with the same chunked reductions.
            std::vector<double> d(n);
            for (std::size_t i = 0; i < n; ++i) {
                d[i] = rs2[i] - r[i];
            }
            EXPECT_EQ(dd, blas::dot(cspan(d), cspan(d))) << "n=" << n;
            EXPECT_EQ(rd, blas::dot(cspan(rs2), cspan(d))) << "n=" << n;
        }
        const double gamma = 0.42;
        const double norm = blas::fused_smooth_update(
            gamma, cspan(r), cspan(x), std::span<double>(rs1),
            std::span<double>(xs1));
        for (std::size_t i = 0; i < n; ++i) {
            rs2[i] -= gamma * (rs2[i] - r[i]);
            xs2[i] -= gamma * (xs2[i] - x[i]);
        }
        EXPECT_EQ(rs1, rs2) << "n=" << n;
        EXPECT_EQ(xs1, xs2) << "n=" << n;
        EXPECT_EQ(norm, blas::nrm2(cspan(rs2))) << "n=" << n;
    }
}

TEST(FusedBlas1, MultiDotMatchesPerColumnDots) {
    const size_type n = static_cast<size_type>(2 * blas::blas1_chunk + 31);
    const index_type cols = 5;
    const auto basis =
        random_vec(static_cast<std::size_t>(n) * cols, 25);
    const auto x = random_vec(static_cast<std::size_t>(n), 26);
    std::vector<double> out(cols);
    blas::multi_dot(basis.data(), n, cols, x.data(), out.data());
    for (index_type c = 0; c < cols; ++c) {
        const std::span<const double> col{
            basis.data() + static_cast<std::size_t>(c) * n,
            static_cast<std::size_t>(n)};
        EXPECT_EQ(out[static_cast<std::size_t>(c)], blas::dot(col, cspan(x)))
            << "col=" << c;
    }
}

TEST(FusedBlas1, MultiAxpyMatchesSequentialAxpys) {
    const size_type n = static_cast<size_type>(2 * blas::blas1_chunk + 31);
    const index_type cols = 5;
    const auto basis =
        random_vec(static_cast<std::size_t>(n) * cols, 27);
    const std::vector<double> coeff{0.3, -1.2, 0.05, 2.0, -0.7};
    auto z1 = random_vec(static_cast<std::size_t>(n), 28);
    auto z2 = z1;
    blas::multi_axpy(basis.data(), n, cols, coeff.data(), z1.data());
    for (index_type c = 0; c < cols; ++c) {
        const std::span<const double> col{
            basis.data() + static_cast<std::size_t>(c) * n,
            static_cast<std::size_t>(n)};
        blas::axpy(coeff[static_cast<std::size_t>(c)], col,
                   std::span<double>(z2));
    }
    EXPECT_EQ(z1, z2);
}

// ---------------------------------------------------------------------
// Csr spmv partition caching and invalidation
// ---------------------------------------------------------------------

TEST(SpmvPartition, CoversAllRowsStrictlyIncreasing) {
    const auto a = sparse::circuit_like<double>(500, 5, 4, 120, 99);
    const auto parts = a.spmv_partition();
    ASSERT_GE(parts.size(), 2u);
    EXPECT_EQ(parts.front(), 0);
    EXPECT_EQ(parts.back(), a.num_rows());
    for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
        EXPECT_LT(parts[p], parts[p + 1]);
    }
}

TEST(SpmvPartition, BalancesSkewedNnz) {
    // Hub rows concentrate the nnz; a row-count split would put all hubs
    // in one part. The nnz-balanced split must keep every part at or
    // under one fair share plus one row's worth of slack.
    const index_type n = 4000;
    const auto a = sparse::circuit_like<double>(n, 4, 8, 600, 7);
    const auto parts = a.spmv_partition();
    if (parts.size() <= 2) {
        GTEST_SKIP() << "single-part pool; nothing to balance";
    }
    index_type max_row = 0;
    for (index_type i = 0; i < n; ++i) {
        max_row = std::max(max_row, a.row_nnz(i));
    }
    const auto nparts = static_cast<size_type>(parts.size()) - 1;
    const size_type fair = a.nnz() / nparts;
    const auto rp = a.row_ptrs();
    for (size_type p = 0; p < nparts; ++p) {
        const size_type part_nnz =
            rp[static_cast<std::size_t>(parts[p + 1])] -
            rp[static_cast<std::size_t>(parts[p])];
        // Guaranteed bound: one fair share (+1 for the floored goals) plus
        // at most one row's worth of boundary slack.
        EXPECT_LE(part_nnz, fair + static_cast<size_type>(max_row) + 1)
            << "part " << p;
    }
}

TEST(SpmvPartition, RebuiltAfterStructuralMutation) {
    // Give most rows a tiny entry so drop_small_entries changes the nnz
    // distribution substantially, then check the partition was rebuilt
    // for the new structure and spmv is correct (no stale partition).
    const index_type n = 3000;
    auto a = sparse::circuit_like<double>(n, 6, 6, 400, 3);
    auto vals = a.values();
    std::mt19937_64 eng(5);
    for (auto& v : vals) {
        if (uniform(eng, 0.0, 1.0) < 0.5) {
            v = 1e-30;
        }
    }
    const auto before_nnz = a.nnz();
    a.drop_small_entries(1e-20);
    ASSERT_LT(a.nnz(), before_nnz);
    const auto parts = a.spmv_partition();
    EXPECT_EQ(parts.front(), 0);
    EXPECT_EQ(parts.back(), n);
    for (std::size_t p = 0; p + 1 < parts.size(); ++p) {
        EXPECT_LT(parts[p], parts[p + 1]);
    }
    // spmv against a straightforward serial reference on the new structure.
    const auto x = random_vec(static_cast<std::size_t>(n), 30);
    std::vector<double> y(static_cast<std::size_t>(n));
    a.spmv(cspan(x), std::span<double>(y));
    const auto rp = a.row_ptrs();
    const auto ci = a.col_idxs();
    const auto va = a.values();
    for (index_type i = 0; i < n; ++i) {
        double acc = 0.0;
        for (auto p = rp[static_cast<std::size_t>(i)];
             p < rp[static_cast<std::size_t>(i) + 1]; ++p) {
            acc += va[static_cast<std::size_t>(p)] *
                   x[static_cast<std::size_t>(ci[static_cast<std::size_t>(p)])];
        }
        ASSERT_EQ(y[static_cast<std::size_t>(i)], acc) << "row " << i;
    }
}

TEST(SpmvPartition, SetValuesKeepsStructureAndPartition) {
    auto a = sparse::circuit_like<double>(600, 5, 3, 90, 12);
    const std::vector<size_type> before(a.spmv_partition().begin(),
                                        a.spmv_partition().end());
    std::vector<double> nv(static_cast<std::size_t>(a.nnz()), 2.5);
    a.set_values(std::span<const double>(nv));
    EXPECT_EQ(a.values()[0], 2.5);
    const std::vector<size_type> after(a.spmv_partition().begin(),
                                       a.spmv_partition().end());
    EXPECT_EQ(before, after);
}

TEST(SpmvPartition, SmallProductIsOnePart) {
    // Fewer than two parts' worth of stored entries: the product stays
    // one part, so it is never scattered across the pool, whatever the
    // pool size.
    const auto a = sparse::laplacian_2d<double>(20, 20);
    ASSERT_LT(a.nnz(), 2 * sparse::spmv_min_part_nnz);
    const auto parts = a.spmv_partition();
    ASSERT_EQ(parts.size(), 2u);
    EXPECT_EQ(parts.front(), 0);
    EXPECT_EQ(parts.back(), a.num_rows());
}

// ---------------------------------------------------------------------
// Zero-allocation BlockJacobi apply
// ---------------------------------------------------------------------

TEST(BlockJacobiApply, PerformsNoHeapAllocations) {
    for (const auto isa : {core::SimdIsa::scalar, core::detect_simd_isa()}) {
        const auto a = sparse::laplacian_2d<double>(40, 40);
        precond::BlockJacobiOptions opts;
        opts.simd = isa;
        opts.max_block_size = 12;
        const precond::BlockJacobi<double> prec(a, opts);
        const auto nz = static_cast<std::size_t>(a.num_rows());
        const auto r = random_vec(nz, 31);
        std::vector<double> z(nz);
        // Warm-up: first-use metric counters insert map nodes once.
        prec.apply(cspan(r), std::span<double>(z));
        const long before = g_allocations.load(std::memory_order_relaxed);
        for (int rep = 0; rep < 10; ++rep) {
            prec.apply(cspan(r), std::span<double>(z));
        }
        const long after = g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 0)
            << prec.name() << ": apply allocated";
    }
}

TEST(IdrIteration, PerformsNoHeapAllocations) {
    // Every allocation of a solve that runs out of budget happens before
    // or after the iteration loop: 8 and 64 iterations allocate equally
    // often, so an iteration allocates nothing.
    const auto a = sparse::laplacian_2d<double>(40, 40);
    const precond::BlockJacobi<double> prec(a, {});
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const auto b = random_vec(nz, 34);
    const auto count_allocations = [&](index_type max_iters) {
        solvers::IdrOptions opts;
        opts.max_iters = max_iters;
        opts.rel_tol = 1e-300;  // unreachable: the budget ends the solve
        std::vector<double> x(nz, 0.0);
        const long before = g_allocations.load(std::memory_order_relaxed);
        const auto res =
            solvers::idr(a, cspan(b), std::span<double>(x), prec, opts);
        const long after = g_allocations.load(std::memory_order_relaxed);
        EXPECT_EQ(res.iterations, max_iters);
        return after - before;
    };
    count_allocations(8);  // warm-up: first-use metric counters
    EXPECT_EQ(count_allocations(8), count_allocations(64));
}

TEST(BlockJacobiApply, SimdPathMatchesScalarBackendBitwise) {
    const auto a = sparse::circuit_like<double>(900, 5, 4, 60, 21);
    precond::BlockJacobiOptions scalar_opts;
    scalar_opts.simd = core::SimdIsa::scalar;
    const precond::BlockJacobi<double> scalar(a, scalar_opts);
    precond::BlockJacobiOptions simd_opts;
    simd_opts.backend = precond::BlockJacobiBackend::lu_simd;
    const precond::BlockJacobi<double> simd(a, simd_opts);
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const auto r = random_vec(nz, 32);
    std::vector<double> z1(nz), z2(nz);
    scalar.apply(cspan(r), std::span<double>(z1));
    simd.apply(cspan(r), std::span<double>(z2));
    EXPECT_EQ(z1, z2);
    // Applying twice through the persistent workspace must be idempotent.
    std::vector<double> z3(nz);
    simd.apply(cspan(r), std::span<double>(z3));
    EXPECT_EQ(z2, z3);
}

// ---------------------------------------------------------------------
// Thread pool fast paths
// ---------------------------------------------------------------------

TEST(ThreadPoolFastPath, SmallRangeRunsInline) {
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(3);
    pool.parallel_for(
        0, 3, [&](size_type i) {
            seen[static_cast<std::size_t>(i)] = std::this_thread::get_id();
        },
        8);  // n <= grain: must not dispatch
    for (const auto& id : seen) {
        EXPECT_EQ(id, caller);
    }
}

TEST(ThreadPoolFastPath, NestedParallelForDispatchesUnderStealing) {
    // A nested call splits into stealable half-ranges instead of
    // inlining. Every (outer, inner) pair must still run exactly once,
    // with no deadlock between the nested joins.
    ThreadPool pool(4);
    constexpr int outer = 16;
    constexpr int inner = 64;
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(outer * inner));
    pool.parallel_for(
        0, outer,
        [&](size_type i) {
            pool.parallel_for(
                0, inner,
                [&](size_type j) {
                    hits[static_cast<std::size_t>(i * inner + j)]
                        .fetch_add(1, std::memory_order_relaxed);
                },
                1);
        },
        1);
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolFastPath, GlobalPoolSolvesAreDeterministicInProcess) {
    // Two identical CG solves through the full hot path (spmv + fused
    // BLAS-1 + block-Jacobi apply) must agree bitwise.
    const auto a = sparse::circuit_like<double>(2000, 5, 4, 100, 77);
    precond::BlockJacobiOptions popts;
    popts.backend = precond::BlockJacobiBackend::lu_simd;
    const precond::BlockJacobi<double> prec(a, popts);
    const auto nz = static_cast<std::size_t>(a.num_rows());
    const auto b = random_vec(nz, 33);
    std::vector<double> x1(nz, 0.0), x2(nz, 0.0);
    solvers::SolverOptions sopts;
    sopts.max_iters = 60;
    sopts.rel_tol = 1e-10;
    solvers::cg(a, cspan(b), std::span<double>(x1), prec, sopts);
    solvers::cg(a, cspan(b), std::span<double>(x2), prec, sopts);
    EXPECT_EQ(x1, x2);
}

}  // namespace
}  // namespace vbatch
