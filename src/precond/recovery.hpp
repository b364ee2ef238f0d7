// Per-block breakdown recovery for the block-Jacobi setup.
//
// The paper's protocol simply reports "-" when a diagonal block breaks
// down (Table I); production block-Jacobi preconditioning cannot afford
// that, because one singular 4x4 block would abort the setup for the
// whole matrix. The recovery pipeline keeps the setup total: a block
// whose factorization breaks down (or whose pivots are numerically
// negligible) is re-tried with an escalating scaled-identity diagonal
// shift ("boosting"), then degraded to scalar-Jacobi application from
// its pristine diagonal, then to the identity -- so the preconditioner
// always exists and the solver can report degradation instead of dying.
#pragma once

#include "base/types.hpp"

namespace vbatch::precond {

/// What to do when a diagonal block's factorization breaks down or its
/// pivot sequence is numerically degenerate.
struct RecoveryPolicy {
    enum class Mode {
        /// Pre-recovery behavior: the first breakdown throws
        /// vbatch::SingularMatrix out of the setup (the paper's "-").
        strict,
        /// Diagonal boosting only; throws once the boosts are exhausted.
        boost,
        /// Boosting, then scalar-Jacobi fallback, then identity: the
        /// setup always succeeds.
        full,
    };
    Mode mode = Mode::full;

    /// A block counts as degenerate when min_pivot <= rel_tol * max_entry.
    /// Negative = auto: eps(T)^2, which catches exact breakdowns and
    /// essentially-zero pivots (~1e-300 in double) but never perturbs a
    /// merely ill-conditioned block -- healthy blocks stay bitwise
    /// identical to the strict path.
    double pivot_rel_tol = -1.0;
    /// First boost shift, relative to the block's largest entry magnitude.
    double boost_scale = 1e-8;
    /// Escalation factor between consecutive boost attempts.
    double boost_growth = 1e4;
    /// Boost attempts before falling back. The final shift is
    /// boost_scale * boost_growth^(max_boosts-1) * max_entry; with the
    /// defaults that is 1e4 * max_entry, which exceeds the Gershgorin
    /// radius of any block of size <= 32 and therefore guarantees
    /// diagonal dominance on the last attempt.
    index_type max_boosts = 4;

    /// Effective degeneracy tolerance for a value type with epsilon `eps`.
    double effective_tol(double eps) const noexcept {
        return pivot_rel_tol >= 0.0 ? pivot_rel_tol : eps * eps;
    }

    static RecoveryPolicy strict() noexcept {
        RecoveryPolicy p;
        p.mode = Mode::strict;
        return p;
    }
    static RecoveryPolicy boost_only() noexcept {
        RecoveryPolicy p;
        p.mode = Mode::boost;
        return p;
    }
};

}  // namespace vbatch::precond
