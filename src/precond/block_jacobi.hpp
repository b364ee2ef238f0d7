// Block-Jacobi preconditioner -- the complete ecosystem of the paper
// (Section III.C): supervariable blocking -> diagonal block extraction ->
// batched factorization (setup), batched triangular solves (application).
//
// The interchangeable factorization backends reproduce the paper's
// comparison:
//   lu_simd        - the small-size LU with implicit pivoting (this work)
//                    at any lane width: same-size classes of the block
//                    layout run lane-parallel through the interleaved SIMD
//                    kernels, ragged leftovers take the per-block path. At
//                    SimdIsa::scalar (one lane; factory key "lu", name
//                    "lu") every block takes the per-block path. Every
//                    width rounds identically.
//   gauss_huard    - GH factorization, solve reads the factors row-wise
//   gauss_huard_t  - GH with transpose-friendly factor storage
//   gje_inversion  - explicit inversion via Gauss-Jordan; application is a
//                    batched GEMV (the strategy of [4])
//   cholesky       - batched Cholesky for SPD blocks (the paper's future
//                    work, Section V); throws if a block is not SPD
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "base/timer.hpp"
#include "blocking/extraction.hpp"
#include "blocking/gather_plan.hpp"
#include "blocking/size_classes.hpp"
#include "blocking/supervariable.hpp"
#include "core/cholesky.hpp"
#include "core/gauss_huard.hpp"
#include "core/gauss_jordan.hpp"
#include "core/getrf.hpp"
#include "core/trsv.hpp"
#include "core/vectorized.hpp"
#include "precond/preconditioner.hpp"
#include "precond/recovery.hpp"
#include "precond/retired_options.hpp"
#include "sparse/csr.hpp"

namespace vbatch::precond {

enum class BlockJacobiBackend { lu_simd, gauss_huard, gauss_huard_t,
                                gje_inversion, cholesky };

std::string backend_name(BlockJacobiBackend backend);

/// The complete symbolic (pattern-only) state of a block-Jacobi setup:
/// block layout, extraction gather plan, interleaved group shapes +
/// lane gather maps, and the task list. Everything in here depends only
/// on the sparsity pattern, the block bound and the lane width -- never
/// on the values -- so one immutable instance can be shared by any
/// number of preconditioners over same-pattern matrices (the service
/// layer's plan cache holds exactly these, refcounted through the
/// shared_ptr). Each block has exactly one owner: one lane of one group
/// chunk, or one slot of one per-block range.
struct BlockJacobiSymbolic {
    core::BatchLayoutPtr layout;
    /// Cached CSR -> block extraction plan (carries the 64-bit pattern
    /// fingerprint adoption is validated against).
    blocking::GatherPlan plan;
    /// ISA the lane groups were built for (see lane_width).
    core::SimdIsa isa = core::SimdIsa::scalar;
    /// Matrices per vector instruction. At 1 there are no groups and
    /// every block is on the per-block path; that plan is shared by the
    /// one-lane LU and every other backend.
    index_type lanes = 1;
    /// The agglomeration bound the layout was derived under.
    index_type max_block_size = 0;

    /// One same-size class of the lane path (none when lanes == 1).
    struct Group {
        index_type size = 0;
        /// Block ids assigned to the lanes, in lane order.
        std::vector<size_type> indices;
        /// CSR-value -> lane-slot gather map.
        core::InterleavedGatherMap gather;
        /// row_offsets[l] = flat row offset of lane l's block.
        std::vector<size_type> row_offsets;
        /// Lane chunks of the group (= ceil(indices.size() / lanes)).
        size_type chunks = 0;
    };
    std::vector<Group> groups;
    /// Blocks on the per-block path: the ragged leftovers of the groups,
    /// or every block when lanes == 1.
    std::vector<size_type> scalar_blocks;

    /// One unit of numeric and apply work: either chunk `chunk` of
    /// groups[group] (group != no_group) or the per-block blocks
    /// scalar_blocks[lo, hi).
    struct Task {
        size_type group = no_group;
        size_type chunk = 0;
        size_type lo = 0;
        size_type hi = 0;
    };
    static constexpr size_type no_group = -1;
    std::vector<Task> tasks;

    /// Build-time attribution (copied into SetupPhases when a
    /// preconditioner builds its own symbolic; adoption costs zero).
    double blocking_seconds = 0.0;
    double plan_seconds = 0.0;

    /// Heap footprint of the index arrays; the service-layer cache
    /// charges entries against its byte budget with this.
    std::size_t byte_size() const noexcept;
};

using BlockJacobiSymbolicPtr = std::shared_ptr<const BlockJacobiSymbolic>;

struct BlockJacobiOptions {
    BlockJacobiBackend backend = BlockJacobiBackend::lu_simd;
    /// Upper bound for the supervariable agglomeration (Table I sweeps
    /// {8, 12, 16, 24, 32}).
    index_type max_block_size = 32;
    /// Instruction set of the LU backend (clamped by availability;
    /// defaults to the widest the machine supports). SimdIsa::scalar is
    /// the one-lane LU, the paper's per-block kernel.
    core::SimdIsa simd = core::detect_simd_isa();
    /// Retired spellings that only bench_e2e/e2e_bench.cpp still names
    /// (precond/retired_options.hpp): they select nothing.
    PivotScheme pivot = PivotScheme::implicit;
    RetiredOption rbt_seed;
    RetiredOption rbt_depth;
    RetiredOption trsv_variant;
    /// Parallelize setup/application over the blocks.
    bool parallel = true;
    /// Reuse a precomputed block structure instead of running
    /// supervariable blocking (empty = detect).
    core::BatchLayoutPtr layout;
    /// Per-block breakdown handling. The default (Mode::full) makes the
    /// setup total: it never throws, and degraded blocks are recorded in
    /// block_status() / recovery_summary(). RecoveryPolicy::strict()
    /// restores the old throwing behavior.
    RecoveryPolicy recovery;
    /// Adopt a prebuilt symbolic analysis (see
    /// build_block_jacobi_symbolic) instead of running blocking +
    /// analysis here. The instance must have been built for the same
    /// pattern, block bound and lane_width as this setup; adoption
    /// validates all of that and throws vbatch::BadParameter on a
    /// mismatch. Takes precedence over `layout`. Empty = analyze locally.
    BlockJacobiSymbolicPtr symbolic;
};

/// The ISA and lane count a setup under `options` runs at: the LU
/// backend's options.simd clamped to what is available, and one scalar
/// lane for every other backend.
template <typename T>
core::LaneWidth lane_width(const BlockJacobiOptions& options) {
    if (options.backend != BlockJacobiBackend::lu_simd) {
        return {};
    }
    const auto isa = core::resolve_simd_isa(options.simd);
    return {isa, core::simd_lanes<T>(isa)};
}

/// Run only the symbolic layer of a block-Jacobi setup for `a` under
/// `options` (blocking, gather-plan analysis, size-class bucketing at
/// more than one lane, lane gather maps, task list) and return it as an
/// immutable shareable object. T matters only through lane_width; every
/// one-lane setup of either precision can adopt the same instance.
template <typename T>
BlockJacobiSymbolicPtr build_block_jacobi_symbolic(
    const sparse::Csr<T>& a, const BlockJacobiOptions& options);

template <typename T>
class BlockJacobi final : public Preconditioner<T> {
public:
    /// Setup in two layers. The *symbolic* phase (once per sparsity
    /// pattern) runs supervariable blocking, size-class bucketing and
    /// builds the cached extraction gather plan + fused task list; the
    /// *numeric* phase gathers the values straight into the persistent
    /// factor storage and factorizes them in one fused parallel pass,
    /// then recovers per-block breakdowns. Under the default
    /// RecoveryPolicy the setup is total (degraded blocks are boosted or
    /// fall back, see recovery.hpp); under RecoveryPolicy::strict() it
    /// throws vbatch::SingularMatrix if a diagonal block breaks down.
    BlockJacobi(const sparse::Csr<T>& a, BlockJacobiOptions options);

    /// Numeric re-setup: re-runs only the numeric phase on `a`'s values
    /// through the cached symbolic plan (the time-stepping / Newton case
    /// after sparse::Csr::set_values). Factors, pivots, statuses and
    /// recovery outcomes are bitwise identical to a fresh setup on `a`;
    /// throws vbatch::BadParameter when `a`'s sparsity pattern differs
    /// from the one analyzed at construction.
    void refresh(const sparse::Csr<T>& a) override;

    /// z := M^{-1} r over the same task list as the numeric pass. Performs
    /// no heap allocation: lane chunks run on persistent per-group
    /// workspaces and precomputed row-offset maps built at setup.
    /// Consequently apply is NOT safe to call concurrently on the same
    /// object (distinct objects are fine); the Krylov solvers apply
    /// strictly one at a time.
    void apply(std::span<const T> r, std::span<T> z) const override;

    std::string name() const override;
    double setup_seconds() const override { return setup_seconds_; }
    size_type num_blocks() const override { return layout_->count(); }
    /// Per-apply traffic (sum of the envelope getrs flop/byte models over
    /// the blocks, core/flops.hpp and core/bytes.hpp), for the solvers'
    /// roofline attribution. Recomputed by every numeric pass from the
    /// envelopes the solves actually stream.
    double apply_flops() const override { return apply_flops_; }
    double apply_bytes() const override { return apply_bytes_; }
    /// Factor entries one apply streams, summed over the blocks: the
    /// chunk's column envelope for every lane of a chunk, the block's own
    /// envelope on the per-block LU solve, and all m^2 entries for the
    /// other backends.
    double apply_factor_entries() const noexcept {
        return apply_entries_;
    }

    /// Per-phase breakdown of setup_seconds() (the paper's cost model
    /// separates blocking, extraction and factorization; Figs. 4-9).
    /// After refresh() the numeric fields (gather/factorize/pack/
    /// recovery) describe the most recent numeric pass; the symbolic
    /// fields (blocking/plan) keep their construction-time values.
    struct SetupPhases {
        /// Supervariable blocking (symbolic; zero when a layout is given).
        double blocking_seconds = 0.0;
        /// Symbolic analysis: gather-plan build, size-class bucketing,
        /// interleaved-group layout and the task list.
        double plan_seconds = 0.0;
        /// Numeric gather of the CSR values into the factor storage (the
        /// former extraction phase, now fused into the chunk tasks).
        double gather_seconds = 0.0;
        double factorize_seconds = 0.0;
        /// Interleaved -> packed factor/pivot writeback of the SIMD
        /// chunks (previously folded into factorize_seconds).
        double pack_seconds = 0.0;
        /// Degeneracy scan + boosting/fallback work (0 when no block
        /// needed recovery or under the strict policy).
        double recovery_seconds = 0.0;
    };
    const SetupPhases& setup_phases() const { return setup_phases_; }

    /// Per-block setup outcome (one entry per diagonal block).
    const std::vector<core::BlockStatus>& block_status() const {
        return block_status_;
    }
    core::RecoverySummary recovery_summary() const override {
        return recovery_;
    }

    const core::BatchLayout& layout() const { return *layout_; }
    const BlockJacobiOptions& options() const { return options_; }

    /// The factored blocks (for tests / inspection).
    const core::BatchedMatrices<T>& factors() const { return factors_; }
    const core::BatchedPivots& pivots() const { return pivots_; }

    /// The cached symbolic extraction plan (for tests / inspection).
    const blocking::GatherPlan& gather_plan() const { return sym_->plan; }
    /// The full symbolic state -- either built here or adopted from
    /// options.symbolic; hand it to further same-pattern setups to skip
    /// their symbolic phase entirely.
    const BlockJacobiSymbolicPtr& symbolic() const { return sym_; }
    /// True when this setup adopted a shared symbolic instead of
    /// building one.
    bool symbolic_shared() const noexcept { return symbolic_shared_; }
    /// Wall time of the last refresh() (0 before the first refresh).
    double refresh_seconds() const noexcept { return refresh_seconds_; }

    /// Conditioning diagnostics of the extracted diagonal blocks (the
    /// stability aspect Sections II.C/IV.D discuss: ill-conditioned blocks
    /// are where the factorization strategies' rounding differences show).
    struct Diagnostics {
        size_type num_blocks = 0;
        index_type min_block_size = 0;
        index_type max_block_size = 0;
        double mean_block_size = 0.0;
        /// 1-norm condition numbers of the blocks (inf for singular).
        double min_condition = 0.0;
        double max_condition = 0.0;
        double geomean_condition = 0.0;
    };

    /// Recomputes block condition numbers from `a` (setup-time matrix is
    /// not retained); cost O(sum m_i^3), intended for analysis runs.
    Diagnostics diagnostics(const sparse::Csr<T>& a) const;

    /// Blocks solved through the interleaved lanes (none at one lane; the
    /// remainder takes the per-block path).
    size_type num_simd_blocks() const noexcept {
        return layout_->count() -
               static_cast<size_type>(sym_->scalar_blocks.size());
    }

private:
    /// The *numeric* state of one same-size class; the group shapes,
    /// lane assignments and gather maps live in the shared symbolic
    /// (sym_->groups, indexed in parallel with this vector).
    struct SimdGroup {
        core::InterleavedGroup<T> group;
        /// Per-lane entry/pivot statistics scratch of the fused numeric
        /// pass (monitored setups only). Chunk tasks write disjoint lane
        /// ranges.
        std::vector<core::FactorInfo> lane_infos;
        /// Persistent right-hand-side workspace, sized once at setup; the
        /// chunk tasks gather into / scatter out of it on every apply so
        /// no InterleavedVectors is ever constructed per application.
        /// mutable: apply is logically const but stages data here. Owned
        /// exclusively by the chunk tasks of this group, each of which
        /// touches a disjoint chunk.
        mutable core::InterleavedVectors<T> rhs;
    };

    static constexpr size_type no_group = BlockJacobiSymbolic::no_group;

    /// Check an adopted shared symbolic against `a` and the options
    /// (pattern fingerprint, block bound, ISA/lane width).
    void validate_symbolic(const sparse::Csr<T>& a) const;
    /// Fused numeric phase: one parallel pass gathering + factorizing all
    /// blocks into the persistent storage, then breakdown recovery.
    /// Shared by construction and refresh(); resets all numeric state.
    void run_numeric(const sparse::Csr<T>& a);
    /// The backend's per-block solve z_b := D_b^{-1} r_b of block b.
    void solve_block(size_type b, std::span<const T> r,
                     std::span<T> z) const;
    /// Degeneracy scan + boost/fallback pipeline (non-strict setup only).
    void recover(std::span<const T> values, core::FactorizeStatus& status);
    /// Run the backend's single-block factorization on block b in place;
    /// fills the pivot statistics when `info` is non-null.
    index_type factorize_block(size_type b, core::FactorInfo* info);
    /// Export the numeric-phase timings and per-status block counters
    /// to the metrics registry (shared by construction and refresh()).
    void record_numeric_metrics() const;
    /// Recompute apply_entries_/apply_bytes_/apply_flops_ from the
    /// current envelopes (end of every numeric pass).
    void update_apply_traffic();
    /// Block b's column envelope (2*m entries, LU backend only; see
    /// core::factor_envelope), bounding its per-block eager solve.
    std::span<index_type> block_envelope(size_type b) {
        return {block_envelope_.data() + 2 * layout_->row_offset(b),
                static_cast<std::size_t>(2 * layout_->size(b))};
    }
    std::span<const index_type> block_envelope(size_type b) const {
        return {block_envelope_.data() + 2 * layout_->row_offset(b),
                static_cast<std::size_t>(2 * layout_->size(b))};
    }
    /// Overwrite a degraded block's factors/pivots with the identity so
    /// factors()/pivots() and any stray factored-path application of the
    /// block stay finite.
    void set_identity_block(size_type b);
    void apply_fallback_block(size_type b, std::span<const T> r,
                              std::span<T> z) const;

    BlockJacobiOptions options_;
    /// The (possibly shared) symbolic state: layout, gather plan, group
    /// shapes + lane maps and the fused task lists. Immutable; refresh()
    /// and all numeric passes only read it.
    BlockJacobiSymbolicPtr sym_;
    bool symbolic_shared_ = false;
    core::BatchLayoutPtr layout_;  // alias of sym_->layout
    core::BatchedMatrices<T> factors_;
    core::BatchedPivots pivots_;
    /// Numeric lane-path state, indexed in parallel with sym_->groups.
    std::vector<SimdGroup> simd_groups_;
    /// Per-block column envelopes of the LU backend, block b's 2*m
    /// entries at 2 * row_offset(b) (empty for the other backends).
    /// Recorded for every block on the per-block path and for every
    /// block recovery refactorizes.
    std::vector<index_type> block_envelope_;
    /// Factor entries, bytes (factors + pivots + r + z) and flops one
    /// apply streams, recomputed per numeric pass (update_apply_traffic)
    /// and fed to the metrics registry / roofline attribution per
    /// application. dense_entries_ = sum of m^2 over the blocks.
    double apply_entries_ = 0.0;
    double dense_entries_ = 0.0;
    double apply_bytes_ = 0.0;
    double apply_flops_ = 0.0;
    double setup_seconds_ = 0.0;
    double refresh_seconds_ = 0.0;
    SetupPhases setup_phases_;
    /// Per-block outcomes; all `ok` under the strict policy.
    std::vector<core::BlockStatus> block_status_;
    core::RecoverySummary recovery_;
    /// Row-wise inverse diagonal used by fell_back/singular blocks
    /// (1 where the pristine diagonal was zero/non-finite); empty when
    /// no block fell back.
    std::vector<T> fallback_inv_diag_;
    /// Blocks applied through fallback_inv_diag_ instead of the factors.
    std::vector<size_type> degraded_blocks_;
};

}  // namespace vbatch::precond
