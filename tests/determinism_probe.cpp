// Cross-process determinism probe: runs every Krylov solver over the full
// hot path (nnz-balanced spmv, fused BLAS-1, block-Jacobi apply with the
// LU at one lane and at the native width), then a block-Jacobi setup over
// injected ill-conditioned and singular blocks, and writes a running
// FNV-1a hash of all bit patterns to argv[1] -- one "<section> <hash>"
// line after each section, so two files that differ name the first
// section that diverged. CTest launches this binary under
// VBATCH_THREADS=1, 2 and 8 and compares the output files byte for byte
// -- the pool size is fixed at startup, so thread-count independence can
// only be proven across processes.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "base/random.hpp"
#include "precond/block_jacobi.hpp"
#include "solvers/bicgstab.hpp"
#include "solvers/cg.hpp"
#include "solvers/gmres.hpp"
#include "solvers/idr.hpp"
#include "sparse/generators.hpp"

namespace {

struct Fnv1a {
    std::uint64_t state = 0xcbf29ce484222325ULL;
    void add(const void* data, std::size_t bytes) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ULL;
        }
    }
    void add_vector(const std::vector<double>& v) {
        add(v.data(), v.size() * sizeof(double));
    }
};

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: determinism_probe <output-file>\n");
        return 2;
    }
    using namespace vbatch;
    std::FILE* out = std::fopen(argv[1], "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", argv[1]);
        return 2;
    }

    // Skewed-nnz system spanning several BLAS-1 chunks so both the spmv
    // partition and the chunked reductions actually split.
    const index_type n = 12000;
    const auto a = sparse::circuit_like<double>(n, 5, 6, 300, 17);
    const auto nz = static_cast<std::size_t>(n);
    std::vector<double> b(nz);
    auto eng = make_engine(123);
    for (auto& v : b) {
        v = uniform(eng, -1.0, 1.0);
    }

    Fnv1a hash;
    // Labels name the pass (one lane, then the native width), never the
    // ISA it resolved to, so a run pinned to scalar prints the same lines.
    const auto section = [&](const char* lanes, const char* name) {
        std::fprintf(out, "%s.%s %016llx\n", lanes, name,
                     static_cast<unsigned long long>(hash.state));
    };
    const char* lanes = "lane1";
    for (const auto isa : {core::SimdIsa::scalar, core::detect_simd_isa()}) {
        precond::BlockJacobiOptions popts;
        popts.simd = isa;
        popts.max_block_size = 16;
        const precond::BlockJacobi<double> prec(a, popts);

        solvers::SolverOptions opts;
        opts.max_iters = 80;
        opts.rel_tol = 1e-10;

        std::vector<double> x(nz, 0.0);
        auto res = solvers::cg(a, std::span<const double>(b),
                               std::span<double>(x), prec, opts);
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));
        section(lanes, "cg");

        x.assign(nz, 0.0);
        res = solvers::bicgstab(a, std::span<const double>(b),
                                std::span<double>(x), prec, opts);
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));
        section(lanes, "bicgstab");

        x.assign(nz, 0.0);
        solvers::IdrOptions iopts;
        iopts.max_iters = 80;
        iopts.rel_tol = 1e-10;
        res = solvers::idr(a, std::span<const double>(b),
                           std::span<double>(x), prec, iopts);
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));
        section(lanes, "idr");

        x.assign(nz, 0.0);
        solvers::GmresOptions gopts;
        gopts.max_iters = 80;
        gopts.rel_tol = 1e-10;
        gopts.restart = 20;
        res = solvers::gmres(a, std::span<const double>(b),
                             std::span<double>(x), prec, gopts);
        hash.add_vector(x);
        hash.add(&res.iterations, sizeof(res.iterations));
        section(lanes, "gmres");
        lanes = "native";
    }

    // Recovery chain: graded near-singular blocks (kept by the implicit
    // pivoting, every pivot stays above the degeneracy tolerance) and
    // zeroed blocks (scalar-Jacobi/identity fallback) must factorize,
    // classify and apply bitwise independent of the thread count and
    // the lane width.
    {
        auto graded = a;
        const auto layout = blocking::supervariable_layout(
            graded, blocking::BlockingOptions{.max_block_size = 16});
        blocking::make_blocks_illcond(graded, *layout, 6);
        blocking::make_blocks_singular(graded, *layout, 2);
        for (const auto isa :
             {core::SimdIsa::scalar, core::detect_simd_isa()}) {
            precond::BlockJacobiOptions popts;
            popts.simd = isa;
            popts.max_block_size = 16;
            popts.layout = layout;
            const precond::BlockJacobi<double> prec(graded, popts);
            for (size_type bi = 0; bi < prec.factors().count(); ++bi) {
                const auto v = prec.factors().view(bi);
                for (index_type c = 0; c < v.cols(); ++c) {
                    for (index_type r = 0; r < v.rows(); ++r) {
                        const double x = v(r, c);
                        hash.add(&x, sizeof(x));
                    }
                }
            }
            const auto summary = prec.recovery_summary();
            for (const auto count : {summary.ok, summary.boosted,
                                     summary.fell_back, summary.singular}) {
                hash.add(&count, sizeof(count));
            }
            hash.add(&summary.max_growth, sizeof(summary.max_growth));
            std::vector<double> z(nz, 0.0);
            prec.apply(std::span<const double>(b), std::span<double>(z));
            hash.add_vector(z);
        }
    }
    std::fprintf(out, "illcond %016llx\n",
                 static_cast<unsigned long long>(hash.state));
    std::fclose(out);
    return 0;
}
