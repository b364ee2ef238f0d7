// Retired preconditioner option spellings, kept only so that
// bench_e2e/e2e_bench.cpp -- the repository benchmark, whose sources do
// not change together with the library -- still compiles: it names
// PivotScheme::implicit and copies `pivot`, `rbt_seed`, `rbt_depth` and
// `trsv_variant` between Config and BlockJacobiOptions. Delete this
// header together with those lines of the benchmark.
#pragma once

namespace vbatch::precond {

/// The LU backend pivots implicitly (the paper's kernel); there is no
/// other scheme to select.
enum class PivotScheme { implicit };

/// A field that holds no value: it can be copied, but there is nothing
/// to set.
struct RetiredOption {};

}  // namespace vbatch::precond
