#include "precond/block_jacobi.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <numeric>

#include "base/thread_pool.hpp"
#include "blas/lapack.hpp"
#include "core/bytes.hpp"
#include "core/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"

namespace vbatch::precond {

namespace {

/// Lock-free accumulation of the per-task phase timings (the tasks of
/// one numeric pass add their slices concurrently).
void atomic_add(std::atomic<double>& acc, double v) {
    double cur = acc.load(std::memory_order_relaxed);
    while (!acc.compare_exchange_weak(cur, cur + v,
                                      std::memory_order_relaxed)) {
    }
}

/// Blocks per timing sub-batch of a scalar-range task: coarse enough to
/// amortize the clock reads against small-block work, fine enough to
/// split the gather/factorize attribution honestly.
constexpr size_type scalar_stats_batch = 8;

/// True when the group chunks and per-block ranges of `sym` cover every
/// block exactly once (no block has two writers, none is skipped).
[[maybe_unused]] bool single_owner(const BlockJacobiSymbolic& sym) {
    std::vector<int> owners(static_cast<std::size_t>(sym.layout->count()),
                            0);
    for (const auto& task : sym.tasks) {
        if (task.group != BlockJacobiSymbolic::no_group) {
            const auto& indices =
                sym.groups[static_cast<std::size_t>(task.group)].indices;
            const size_type lo = task.chunk * sym.lanes;
            const size_type hi = std::min(
                lo + sym.lanes, static_cast<size_type>(indices.size()));
            for (size_type l = lo; l < hi; ++l) {
                ++owners[static_cast<std::size_t>(
                    indices[static_cast<std::size_t>(l)])];
            }
        } else {
            for (size_type i = task.lo; i < task.hi; ++i) {
                ++owners[static_cast<std::size_t>(
                    sym.scalar_blocks[static_cast<std::size_t>(i)])];
            }
        }
    }
    return std::all_of(owners.begin(), owners.end(),
                       [](int n) { return n == 1; });
}

}  // namespace

std::string backend_name(BlockJacobiBackend backend) {
    switch (backend) {
    case BlockJacobiBackend::lu_simd: return "lu-simd";
    case BlockJacobiBackend::gauss_huard: return "gh";
    case BlockJacobiBackend::gauss_huard_t: return "gh-t";
    case BlockJacobiBackend::gje_inversion: return "gje-inv";
    case BlockJacobiBackend::cholesky: return "cholesky";
    }
    return "unknown";
}

std::size_t BlockJacobiSymbolic::byte_size() const noexcept {
    std::size_t bytes = sizeof(BlockJacobiSymbolic);
    if (layout) {
        // sizes + row offsets of the partition.
        bytes += static_cast<std::size_t>(layout->count()) *
                 (sizeof(index_type) + sizeof(size_type));
    }
    bytes += plan.byte_size();
    for (const auto& g : groups) {
        bytes += g.indices.capacity() * sizeof(size_type) +
                 g.row_offsets.capacity() * sizeof(size_type) +
                 (g.gather.lane_ptrs.capacity() + g.gather.src.capacity() +
                  g.gather.dst.capacity()) *
                     sizeof(size_type) +
                 sizeof(Group);
    }
    bytes += scalar_blocks.capacity() * sizeof(size_type) +
             tasks.capacity() * sizeof(Task);
    return bytes;
}

template <typename T>
BlockJacobiSymbolicPtr build_block_jacobi_symbolic(
    const sparse::Csr<T>& a, const BlockJacobiOptions& options) {
    auto sym = std::make_shared<BlockJacobiSymbolic>();
    sym->max_block_size = options.max_block_size;
    {
        ScopedTimer phase(sym->blocking_seconds);
        if (options.layout) {
            sym->layout = options.layout;
        } else {
            blocking::BlockingOptions bopts;
            bopts.max_block_size = options.max_block_size;
            sym->layout = blocking::supervariable_layout(a, bopts);
        }
    }
    ScopedTimer phase(sym->plan_seconds);
    sym->plan = blocking::GatherPlan(a, sym->layout);
    const auto width = lane_width<T>(options);
    sym->isa = width.isa;
    sym->lanes = width.lanes;
    if (sym->lanes == 1) {
        sym->scalar_blocks.resize(
            static_cast<std::size_t>(sym->layout->count()));
        std::iota(sym->scalar_blocks.begin(), sym->scalar_blocks.end(),
                  size_type{0});
    } else {
        const auto plan =
            blocking::build_size_class_plan(*sym->layout, sym->lanes);
        sym->groups.reserve(plan.vector_groups.size());
        for (const auto& cls : plan.vector_groups) {
            BlockJacobiSymbolic::Group g;
            g.size = cls.size;
            g.indices = cls.indices;
            g.gather = sym->plan.interleaved_map(g.indices, sym->lanes);
            g.row_offsets.resize(g.indices.size());
            for (std::size_t l = 0; l < g.indices.size(); ++l) {
                g.row_offsets[l] = sym->layout->row_offset(g.indices[l]);
            }
            const auto count = static_cast<size_type>(g.indices.size());
            g.chunks = (count + sym->lanes - 1) / sym->lanes;
            const auto gi = static_cast<size_type>(sym->groups.size());
            for (size_type c = 0; c < g.chunks; ++c) {
                sym->tasks.push_back({gi, c, 0, 0});
            }
            sym->groups.push_back(std::move(g));
        }
        sym->scalar_blocks = plan.scalar_indices;
    }
    // Per-block blocks run in ranges of batch_entry_grain -- task units
    // of a weight comparable to one SIMD chunk, matching the grain the
    // batch drivers used.
    const auto nscalar = static_cast<size_type>(sym->scalar_blocks.size());
    for (size_type lo = 0; lo < nscalar; lo += batch_entry_grain) {
        sym->tasks.push_back({BlockJacobiSymbolic::no_group, 0, lo,
                              std::min(lo + batch_entry_grain, nscalar)});
    }
    VBATCH_ASSERT(single_owner(*sym));
    // Every symbolic construction is one plan build, whether it happens
    // inline in a BlockJacobi setup or ahead of time for sharing (the
    // service plan cache); adopters count plan_reuses instead.
    obs::Registry::global().add("block_jacobi.plan_builds", 1.0);
    return sym;
}

template <typename T>
void BlockJacobi<T>::validate_symbolic(const sparse::Csr<T>& a) const {
    VBATCH_ENSURE(sym_->plan.matches(a),
                  "block-Jacobi setup: shared symbolic was analyzed for a "
                  "different sparsity pattern");
    VBATCH_ENSURE(sym_->max_block_size == options_.max_block_size,
                  "block-Jacobi setup: shared symbolic was built under a "
                  "different block bound");
    const auto width = lane_width<T>(options_);
    VBATCH_ENSURE(sym_->lanes == width.lanes && sym_->isa == width.isa,
                  "block-Jacobi setup: shared symbolic was built for a "
                  "different ISA or lane width");
}

template <typename T>
BlockJacobi<T>::BlockJacobi(const sparse::Csr<T>& a,
                            BlockJacobiOptions options)
    : options_(std::move(options)) {
    obs::TraceRegion trace("block_jacobi::setup");
    obs::PerfRegion perf("block_jacobi::setup");
    Timer timer;
    if (options_.symbolic) {
        sym_ = options_.symbolic;
        symbolic_shared_ = true;
        validate_symbolic(a);
        // Adoption is free: blocking/plan_seconds stay zero -- that *is*
        // the point of sharing the symbolic across tenants.
    } else {
        obs::TraceRegion plan_trace("setup_plan");
        sym_ = build_block_jacobi_symbolic(a, options_);
        setup_phases_.blocking_seconds = sym_->blocking_seconds;
        setup_phases_.plan_seconds = sym_->plan_seconds;
    }
    layout_ = sym_->layout;
    options_.simd = sym_->isa;  // the ISA actually executed
    factors_ = core::BatchedMatrices<T>(layout_);
    pivots_ = core::BatchedPivots(layout_);
    const bool monitor =
        options_.recovery.mode != RecoveryPolicy::Mode::strict;
    simd_groups_.reserve(sym_->groups.size());
    for (const auto& g : sym_->groups) {
        SimdGroup sg;
        sg.group = core::InterleavedGroup<T>(
            g.size, static_cast<size_type>(g.indices.size()), sym_->isa);
        if (monitor) {
            sg.lane_infos.resize(g.indices.size());
        }
        sg.rhs = core::InterleavedVectors<T>(
            g.size, static_cast<size_type>(g.indices.size()), sym_->isa);
        simd_groups_.push_back(std::move(sg));
    }
    if (options_.backend == BlockJacobiBackend::lu_simd) {
        block_envelope_.resize(
            2 * static_cast<std::size_t>(layout_->total_rows()));
    }
    run_numeric(a);
    setup_seconds_ = timer.seconds();
    auto& registry = obs::Registry::global();
    registry.add("block_jacobi.simd_blocks",
                 static_cast<double>(num_simd_blocks()));
    registry.add("block_jacobi.simd_scalar_blocks",
                 static_cast<double>(sym_->scalar_blocks.size()));
    registry.add("block_jacobi.simd_groups",
                 static_cast<double>(simd_groups_.size()));
    registry.add("block_jacobi.setups", 1.0);
    // A zero delta still creates the counter, keeping the bench-JSON
    // key contract stable whether or not this setup built the plan (the
    // builder itself counts the +1).
    registry.add("block_jacobi.plan_builds", 0.0);
    if (symbolic_shared_) {
        registry.add("block_jacobi.plan_reuses", 1.0);
    }
    registry.add("block_jacobi.blocking_seconds",
                 setup_phases_.blocking_seconds);
    registry.add("block_jacobi.plan_seconds", setup_phases_.plan_seconds);
    record_numeric_metrics();
    registry.set("block_jacobi.num_blocks",
                 static_cast<double>(layout_->count()));
}

template <typename T>
void BlockJacobi<T>::refresh(const sparse::Csr<T>& a) {
    VBATCH_ENSURE(sym_->plan.matches(a),
                  "block-Jacobi refresh: matrix sparsity pattern differs "
                  "from the one the preconditioner was set up with");
    obs::TraceRegion trace("block_jacobi::refresh");
    obs::PerfRegion perf("block_jacobi::refresh");
    Timer timer;
    run_numeric(a);
    refresh_seconds_ = timer.seconds();
    auto& registry = obs::Registry::global();
    registry.add("block_jacobi.refreshes", 1.0);
    registry.add("block_jacobi.plan_reuses", 1.0);
    registry.add("block_jacobi.refresh_seconds", refresh_seconds_);
    record_numeric_metrics();
}

template <typename T>
void BlockJacobi<T>::record_numeric_metrics() const {
    auto& registry = obs::Registry::global();
    registry.add("block_jacobi.gather_seconds",
                 setup_phases_.gather_seconds);
    registry.add("block_jacobi.factorize_seconds",
                 setup_phases_.factorize_seconds);
    registry.add("block_jacobi.pack_seconds", setup_phases_.pack_seconds);
    registry.add("block_jacobi.recovery_seconds",
                 setup_phases_.recovery_seconds);
    registry.add("block_jacobi.blocks_ok",
                 static_cast<double>(recovery_.ok));
    registry.add("block_jacobi.blocks_boosted",
                 static_cast<double>(recovery_.boosted));
    registry.add("block_jacobi.blocks_fell_back",
                 static_cast<double>(recovery_.fell_back));
    registry.add("block_jacobi.blocks_singular",
                 static_cast<double>(recovery_.singular));
    registry.set("block_jacobi.max_pivot_growth", recovery_.max_growth);
    registry.set("block_jacobi.apply_envelope_frac",
                 dense_entries_ > 0.0 ? apply_entries_ / dense_entries_
                                      : 1.0);
    // Roofline traffic of this numeric pass's factorization phase under
    // the canonical models. run_numeric() resets factorize_seconds per
    // episode, so each call records exactly one pass.
    if (setup_phases_.factorize_seconds > 0.0) {
        double flops = 0.0;
        double bytes = 0.0;
        for (size_type b = 0; b < layout_->count(); ++b) {
            flops += core::getrf_flops(layout_->size(b));
            bytes += core::getrf_bytes<T>(layout_->size(b));
        }
        registry.record_traffic("block_jacobi.factorize", flops, bytes,
                                setup_phases_.factorize_seconds,
                                layout_->count());
    }
}

template <typename T>
void BlockJacobi<T>::update_apply_traffic() {
    apply_entries_ = 0.0;
    dense_entries_ = 0.0;
    apply_bytes_ = 0.0;
    apply_flops_ = 0.0;
    const auto add_blocks = [&](index_type m, double entries, double n) {
        apply_entries_ += n * entries;
        dense_entries_ += n * static_cast<double>(m) * m;
        apply_bytes_ += n * core::getrs_envelope_bytes<T>(m, entries);
        apply_flops_ += n * core::getrs_envelope_flops(entries);
    };
    // Every lane of a chunk streams the chunk's envelope.
    for (const auto& sg : simd_groups_) {
        const index_type m = sg.group.size();
        const auto lanes = static_cast<size_type>(sg.group.lanes());
        for (size_type c = 0; c * lanes < sg.group.count(); ++c) {
            const std::span<const index_type> env(
                sg.group.envelope() + c * 2 * m,
                static_cast<std::size_t>(2 * m));
            const size_type real =
                std::min(lanes, sg.group.count() - c * lanes);
            add_blocks(m, core::envelope_entries(env),
                       static_cast<double>(real));
        }
    }
    const bool envelope_solve =
        options_.backend == BlockJacobiBackend::lu_simd;
    for (const auto b : sym_->scalar_blocks) {
        const index_type m = layout_->size(b);
        add_blocks(m,
                   envelope_solve
                       ? core::envelope_entries(block_envelope(b))
                       : static_cast<double>(m) * m,
                   1.0);
    }
}

template <typename T>
void BlockJacobi<T>::run_numeric(const sparse::Csr<T>& a) {
    obs::TraceRegion trace("fused_numeric_setup");
    const bool strict =
        options_.recovery.mode == RecoveryPolicy::Mode::strict;
    const bool monitor = !strict;
    const size_type nb = layout_->count();
    const auto values = a.values();

    setup_phases_.gather_seconds = 0.0;
    setup_phases_.factorize_seconds = 0.0;
    setup_phases_.pack_seconds = 0.0;
    setup_phases_.recovery_seconds = 0.0;
    recovery_ = {};
    degraded_blocks_.clear();
    fallback_inv_diag_.clear();

    core::FactorizeStatus status;
    if (monitor) {
        status.block_status.assign(static_cast<std::size_t>(nb),
                                   core::BlockStatus::ok);
        status.block_info.assign(static_cast<std::size_t>(nb), {});
    }
    std::atomic<double> gather_s{0.0};
    std::atomic<double> factor_s{0.0};
    std::atomic<double> pack_s{0.0};
    // Breakdowns are rare; a mutex keeps (first_failure, step) coherent
    // without an atomic two-field dance on the common path.
    std::mutex failure_mutex;
    const auto note_failure = [&](size_type block, index_type step) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (status.failures == 0 || block < status.first_failure) {
            status.first_failure = block;
            status.first_failure_step = step;
        }
        ++status.failures;
    };

    // One fused pass: every task gathers its blocks straight into the
    // persistent factor storage and factorizes them cache-hot -- no
    // intermediate batch container, no extract/pack/factorize barriers.
    const auto body = [&](size_type t) {
        const auto& task = sym_->tasks[static_cast<std::size_t>(t)];
        if (task.group != no_group) {
            auto& sg = simd_groups_[static_cast<std::size_t>(task.group)];
            const auto& gsym =
                sym_->groups[static_cast<std::size_t>(task.group)];
            core::FactorInfo* infos =
                monitor ? sg.lane_infos.data() : nullptr;
            Timer tg;
            core::gather_interleaved_chunk(sg.group, gsym.gather, values,
                                           task.chunk, infos);
            atomic_add(gather_s, tg.seconds());
            Timer tf;
            core::getrf_interleaved_chunk(sg.group, task.chunk);
            if (monitor) {
                core::scan_interleaved_chunk(sg.group, task.chunk, infos);
            }
            atomic_add(factor_s, tf.seconds());
            // Scatter factors and pivots back while the chunk is hot so
            // factors()/pivots() and the diagnostics stay truthful
            // regardless of the apply path taken.
            Timer tp;
            sg.group.unpack_matrices_chunk(factors_, gsym.indices,
                                           task.chunk);
            sg.group.unpack_pivots_chunk(pivots_, gsym.indices,
                                         task.chunk);
            atomic_add(pack_s, tp.seconds());
            const auto lanes = static_cast<size_type>(sg.group.lanes());
            const size_type lane_lo = task.chunk * lanes;
            const size_type lane_hi =
                std::min(lane_lo + lanes, sg.group.count());
            for (size_type l = lane_lo; l < lane_hi; ++l) {
                const auto step = sg.group.info()[l];
                const auto gi =
                    gsym.indices[static_cast<std::size_t>(l)];
                if (monitor) {
                    status.block_info[static_cast<std::size_t>(gi)] =
                        sg.lane_infos[static_cast<std::size_t>(l)];
                    if (step != 0) {
                        status
                            .block_status[static_cast<std::size_t>(gi)] =
                            core::BlockStatus::singular;
                    }
                }
                if (step != 0) {
                    note_failure(gi, step);
                }
            }
            return;
        }
        double gsec = 0.0;
        double fsec = 0.0;
        for (size_type lo = task.lo; lo < task.hi;
             lo += scalar_stats_batch) {
            const size_type hi =
                std::min(lo + scalar_stats_batch, task.hi);
            Timer tg;
            for (size_type i = lo; i < hi; ++i) {
                const auto b = sym_->scalar_blocks[static_cast<std::size_t>(i)];
                sym_->plan.gather_block(values, b, factors_.view(b));
            }
            gsec += tg.seconds();
            Timer tf;
            for (size_type i = lo; i < hi; ++i) {
                const auto b = sym_->scalar_blocks[static_cast<std::size_t>(i)];
                core::FactorInfo* info =
                    monitor
                        ? &status.block_info[static_cast<std::size_t>(b)]
                        : nullptr;
                const auto step = factorize_block(b, info);
                if (!block_envelope_.empty()) {
                    core::factor_envelope<T>(factors_.view(b),
                                             block_envelope(b));
                }
                if (step != 0) {
                    if (monitor) {
                        status.block_status[static_cast<std::size_t>(b)] =
                            core::BlockStatus::singular;
                    }
                    note_failure(b, step);
                }
            }
            fsec += tf.seconds();
        }
        atomic_add(gather_s, gsec);
        atomic_add(factor_s, fsec);
    };
    {
        obs::TraceRegion fused_trace("fused_gather_factorize");
        const auto ntasks = static_cast<size_type>(sym_->tasks.size());
        if (options_.parallel) {
            ThreadPool::global().parallel_for(0, ntasks, body, 1);
        } else {
            for (size_type t = 0; t < ntasks; ++t) {
                body(t);
            }
        }
    }
    setup_phases_.gather_seconds = gather_s.load();
    setup_phases_.factorize_seconds = factor_s.load();
    setup_phases_.pack_seconds = pack_s.load();

    if (strict) {
        if (status.failures != 0) {
            throw SingularMatrix(
                "block-Jacobi setup: diagonal block factorization broke "
                "down",
                status.first_failure, status.first_failure_step);
        }
        block_status_.assign(static_cast<std::size_t>(nb),
                             core::BlockStatus::ok);
        recovery_.ok = nb;
    } else {
        ScopedTimer phase(setup_phases_.recovery_seconds);
        recover(values, status);
    }
    update_apply_traffic();
}

template <typename T>
index_type BlockJacobi<T>::factorize_block(size_type b,
                                           core::FactorInfo* info) {
    switch (options_.backend) {
    case BlockJacobiBackend::lu_simd:
        // The scalar implicit-pivoting kernel rounds identically to the
        // interleaved lanes, so a boosted block can stay on the SIMD
        // apply path after a repack.
        return info != nullptr
                   ? core::getrf_implicit(factors_.view(b),
                                          pivots_.span(b), *info)
                   : core::getrf_implicit(factors_.view(b),
                                          pivots_.span(b));
    case BlockJacobiBackend::gauss_huard:
        return info != nullptr
                   ? core::gauss_huard_factorize(
                         factors_.view(b), pivots_.span(b),
                         core::GhStorage::standard, *info)
                   : core::gauss_huard_factorize(
                         factors_.view(b), pivots_.span(b),
                         core::GhStorage::standard);
    case BlockJacobiBackend::gauss_huard_t:
        return info != nullptr
                   ? core::gauss_huard_factorize(
                         factors_.view(b), pivots_.span(b),
                         core::GhStorage::transposed, *info)
                   : core::gauss_huard_factorize(
                         factors_.view(b), pivots_.span(b),
                         core::GhStorage::transposed);
    case BlockJacobiBackend::gje_inversion:
        return info != nullptr
                   ? core::gauss_jordan_invert(factors_.view(b), *info)
                   : core::gauss_jordan_invert(factors_.view(b));
    case BlockJacobiBackend::cholesky:
        return info != nullptr
                   ? core::potrf_single(factors_.view(b), *info)
                   : core::potrf_single(factors_.view(b));
    }
    return 0;
}

template <typename T>
void BlockJacobi<T>::set_identity_block(size_type b) {
    auto v = factors_.view(b);
    const index_type m = v.rows();
    for (index_type j = 0; j < m; ++j) {
        for (index_type i = 0; i < m; ++i) {
            v(i, j) = i == j ? T{1} : T{};
        }
    }
    auto p = pivots_.span(b);
    for (index_type k = 0; k < m; ++k) {
        p[static_cast<std::size_t>(k)] = k;
    }
}

template <typename T>
void BlockJacobi<T>::recover(std::span<const T> values,
                             core::FactorizeStatus& status) {
    const size_type nb = layout_->count();
    block_status_ = std::move(status.block_status);
    const auto& infos = status.block_info;
    const auto& policy = options_.recovery;
    const double tol = policy.effective_tol(
        static_cast<double>(std::numeric_limits<T>::epsilon()));

    std::vector<size_type> bad;
    for (size_type b = 0; b < nb; ++b) {
        const auto& fi = infos[static_cast<std::size_t>(b)];
        if (fi.degenerate(tol)) {
            bad.push_back(b);
        } else {
            recovery_.max_growth =
                std::max(recovery_.max_growth, fi.growth());
        }
    }
    if (bad.empty()) {
        recovery_.ok = nb;
        return;
    }

    // The failed blocks' storage holds partial factors; re-gather only
    // the degenerate blocks through the cached plan (the full-layout
    // re-extraction this replaces scaled with the matrix, not with the
    // handful of blocks that actually broke down).
    alignas(64) std::array<T, static_cast<std::size_t>(max_block_size) *
                                  max_block_size>
        pristine_buf;
    for (const auto b : bad) {
        const auto& fi0 = infos[static_cast<std::size_t>(b)];
        const index_type m = layout_->size(b);
        const MatrixView<T> src(pristine_buf.data(), m, m);
        sym_->plan.gather_block(values, b, src);
        // Boosting needs a finite magnitude to scale the shift by; an
        // all-zero or non-finite block goes straight to the fallback.
        const double scale =
            (fi0.finite && fi0.max_entry > 0.0) ? fi0.max_entry : 0.0;
        bool recovered = false;
        core::FactorInfo fi;
        if (scale > 0.0) {
            double tau = policy.boost_scale * scale;
            for (index_type attempt = 0; attempt < policy.max_boosts;
                 ++attempt, tau *= policy.boost_growth) {
                auto dst = factors_.view(b);
                for (index_type j = 0; j < m; ++j) {
                    for (index_type i = 0; i < m; ++i) {
                        dst(i, j) = src(i, j);
                    }
                }
                const T shift = static_cast<T>(tau);
                for (index_type k = 0; k < m; ++k) {
                    dst(k, k) += shift;
                }
                fi = {};
                if (factorize_block(b, &fi) == 0 && !fi.degenerate(tol)) {
                    recovered = true;
                    break;
                }
            }
        }
        if (recovered) {
            block_status_[static_cast<std::size_t>(b)] =
                core::BlockStatus::boosted;
            recovery_.max_growth =
                std::max(recovery_.max_growth, fi.growth());
            continue;
        }
        if (policy.mode == RecoveryPolicy::Mode::boost) {
            throw SingularMatrix(
                "block-Jacobi setup: diagonal block unrecoverable after "
                "boosting",
                b, fi0.step);
        }
        // Scalar-Jacobi fallback from the pristine diagonal; rows whose
        // diagonal is zero or non-finite apply as identity.
        if (fallback_inv_diag_.empty()) {
            fallback_inv_diag_.assign(
                static_cast<std::size_t>(layout_->total_rows()), T{1});
        }
        const auto off = static_cast<std::size_t>(layout_->row_offset(b));
        bool any_diag = false;
        for (index_type i = 0; i < m; ++i) {
            const T d = src(i, i);
            if (std::isfinite(static_cast<double>(d)) && d != T{}) {
                fallback_inv_diag_[off + static_cast<std::size_t>(i)] =
                    T{1} / d;
                any_diag = true;
            } else {
                fallback_inv_diag_[off + static_cast<std::size_t>(i)] =
                    T{1};
            }
        }
        block_status_[static_cast<std::size_t>(b)] =
            any_diag ? core::BlockStatus::fell_back
                     : core::BlockStatus::singular;
        // Keep the factored-path state finite even for degraded blocks.
        set_identity_block(b);
        degraded_blocks_.push_back(b);
    }

    for (const auto s : block_status_) {
        recovery_.record(s);
    }

    // Every bad block was restored/refactorized through the scalar
    // kernel, but the interleaved groups still hold the pre-boost lanes;
    // repack the groups that contain one and rescan their envelopes.
    // Boosted blocks stay on the SIMD apply path (scalar and lane kernels
    // round identically); the per-block envelopes serve the blocks that
    // are solved per block.
    std::vector<char> dirty(static_cast<std::size_t>(nb), 0);
    for (const auto b : bad) {
        dirty[static_cast<std::size_t>(b)] = 1;
        if (!block_envelope_.empty()) {
            core::factor_envelope<T>(factors_.view(b), block_envelope(b));
        }
    }
    for (std::size_t g = 0; g < simd_groups_.size(); ++g) {
        auto& sg = simd_groups_[g];
        const auto& indices = sym_->groups[g].indices;
        const bool needs_repack = std::any_of(
            indices.begin(), indices.end(), [&](size_type idx) {
                return dirty[static_cast<std::size_t>(idx)] != 0;
            });
        if (needs_repack) {
            sg.group.pack_matrices(factors_, indices);
            sg.group.pack_pivots(pivots_, indices);
            for (size_type c = 0; c < sym_->groups[g].chunks; ++c) {
                core::envelope_interleaved_chunk(sg.group, c);
            }
        }
    }
}

template <typename T>
void BlockJacobi<T>::apply_fallback_block(size_type b, std::span<const T> r,
                                          std::span<T> z) const {
    const auto off = static_cast<std::size_t>(layout_->row_offset(b));
    const auto m = static_cast<std::size_t>(layout_->size(b));
    for (std::size_t i = 0; i < m; ++i) {
        z[off + i] = r[off + i] * fallback_inv_diag_[off + i];
    }
}

template <typename T>
void BlockJacobi<T>::solve_block(size_type b, std::span<const T> r,
                                 std::span<T> z) const {
    const auto off = static_cast<std::size_t>(layout_->row_offset(b));
    const auto m = static_cast<std::size_t>(layout_->size(b));
    const std::span<T> zb = z.subspan(off, m);
    for (std::size_t i = 0; i < m; ++i) {
        zb[i] = r[off + i];
    }
    switch (options_.backend) {
    case BlockJacobiBackend::lu_simd:
        core::getrs_single(factors_.view(b), pivots_.span(b), zb,
                           core::TrsvVariant::eager, block_envelope(b));
        break;
    case BlockJacobiBackend::gauss_huard:
        core::gauss_huard_solve(factors_.view(b), pivots_.span(b), zb,
                                core::GhStorage::standard);
        break;
    case BlockJacobiBackend::gauss_huard_t:
        core::gauss_huard_solve(factors_.view(b), pivots_.span(b), zb,
                                core::GhStorage::transposed);
        break;
    case BlockJacobiBackend::cholesky:
        core::potrs_single(factors_.view(b), zb);
        break;
    case BlockJacobiBackend::gje_inversion: {
        // z_b := D_b^{-1} r_b as a small GEMV from the inverted block.
        const auto inv = factors_.view(b);
        std::array<T, max_block_size> y{};
        for (index_type j = 0; j < inv.cols(); ++j) {
            const T xj = zb[static_cast<std::size_t>(j)];
            const T* col = inv.col(j);
            for (index_type i = 0; i < inv.rows(); ++i) {
                y[static_cast<std::size_t>(i)] += col[i] * xj;
            }
        }
        for (std::size_t i = 0; i < m; ++i) {
            zb[i] = y[i];
        }
        break;
    }
    }
}

template <typename T>
void BlockJacobi<T>::apply(std::span<const T> r, std::span<T> z) const {
    VBATCH_ENSURE_DIMS(static_cast<size_type>(r.size()) ==
                       layout_->total_rows());
    VBATCH_ENSURE_DIMS(r.size() == z.size());
    obs::TraceRegion trace("block_jacobi::apply");
    obs::PerfRegion perf("block_jacobi::apply");
    // Name the inner region after the per-block solve the backend runs.
    const char* solve_kind = nullptr;
    switch (options_.backend) {
    case BlockJacobiBackend::lu_simd:
    case BlockJacobiBackend::cholesky:
        solve_kind = "trsv_apply";
        break;
    case BlockJacobiBackend::gauss_huard:
    case BlockJacobiBackend::gauss_huard_t:
        solve_kind = "gauss_huard_apply";
        break;
    case BlockJacobiBackend::gje_inversion:
        solve_kind = "gemv_apply";
        break;
    }
    obs::TraceRegion solve_trace(solve_kind);
    obs::count("block_jacobi.applies");
    obs::count("block_jacobi.apply.bytes_moved", apply_bytes_);
    // The numeric pass's task list: each group chunk fuses gather -> lane
    // solve -> scatter on its slice of the persistent workspace, with the
    // row offsets resolved at setup (no per-element div/mod, no per-apply
    // InterleavedVectors, no zero-fill of padding lanes -- the matrix
    // padding is identity, so stale padding values pass through the
    // solve and stay finite without ever being read); each range task
    // runs the per-block solve over its blocks.
    const auto body = [&](size_type t) {
        const auto& task = sym_->tasks[static_cast<std::size_t>(t)];
        if (task.group == no_group) {
            for (size_type i = task.lo; i < task.hi; ++i) {
                solve_block(sym_->scalar_blocks[static_cast<std::size_t>(i)],
                            r, z);
            }
            return;
        }
        const auto& sg = simd_groups_[static_cast<std::size_t>(task.group)];
        const auto& row_offsets =
            sym_->groups[static_cast<std::size_t>(task.group)].row_offsets;
        const auto m = static_cast<size_type>(sg.group.size());
        const auto lanes = static_cast<size_type>(sg.group.lanes());
        const size_type lane_lo = task.chunk * lanes;
        const size_type lane_hi = std::min(lane_lo + lanes, sg.group.count());
        T* chunk_vals = sg.rhs.values() + task.chunk * m * lanes;
        for (size_type l = lane_lo; l < lane_hi; ++l) {
            const T* src = r.data() + row_offsets[static_cast<std::size_t>(l)];
            T* dst = chunk_vals + (l - lane_lo);
            for (size_type i = 0; i < m; ++i) {
                dst[i * lanes] = src[i];
            }
        }
        core::getrs_interleaved_chunk(sg.group, sg.rhs, task.chunk);
        for (size_type l = lane_lo; l < lane_hi; ++l) {
            T* dst = z.data() + row_offsets[static_cast<std::size_t>(l)];
            const T* src = chunk_vals + (l - lane_lo);
            for (size_type i = 0; i < m; ++i) {
                dst[i] = src[i * lanes];
            }
        }
    };
    const auto ntasks = static_cast<size_type>(sym_->tasks.size());
    if (options_.parallel) {
        ThreadPool::global().parallel_for(0, ntasks, body, 1);
    } else {
        for (size_type t = 0; t < ntasks; ++t) {
            body(t);
        }
    }
    // Degraded blocks route through the inverse-diagonal fallback; the
    // fix-up pass overwrites whatever the chunk or per-block solve
    // produced for them from their identity factors (the few degraded
    // blocks do not justify a lane path).
    for (const auto b : degraded_blocks_) {
        apply_fallback_block(b, r, z);
    }
}

template <typename T>
typename BlockJacobi<T>::Diagnostics BlockJacobi<T>::diagnostics(
    const sparse::Csr<T>& a) const {
    Diagnostics d;
    d.num_blocks = layout_->count();
    if (d.num_blocks == 0) {
        return d;
    }
    const auto blocks = blocking::extract_diagonal_blocks(a, layout_);
    d.min_block_size = layout_->max_size();
    double size_sum = 0.0;
    double log_sum = 0.0;
    d.min_condition = std::numeric_limits<double>::infinity();
    d.max_condition = 0.0;
    for (size_type b = 0; b < layout_->count(); ++b) {
        const index_type m = layout_->size(b);
        d.min_block_size = std::min(d.min_block_size, m);
        d.max_block_size = std::max(d.max_block_size, m);
        size_sum += m;
        const double cond = static_cast<double>(
            lapack::condition_number_1<T>(blocks.view(b)));
        d.min_condition = std::min(d.min_condition, cond);
        d.max_condition = std::max(d.max_condition, cond);
        log_sum += std::log(std::max(cond, 1.0));
    }
    d.mean_block_size = size_sum / static_cast<double>(d.num_blocks);
    d.geomean_condition =
        std::exp(log_sum / static_cast<double>(d.num_blocks));
    return d;
}

template <typename T>
std::string BlockJacobi<T>::name() const {
    std::string backend = backend_name(options_.backend);
    if (sym_->lanes > 1) {
        backend += std::string("[") + core::simd_isa_name(sym_->isa) + "]";
    } else if (options_.backend == BlockJacobiBackend::lu_simd) {
        backend = "lu";  // one lane: the paper's per-block LU
    }
    return "block-jacobi(" + backend + "," +
           std::to_string(options_.max_block_size) + ")";
}

template class BlockJacobi<float>;
template class BlockJacobi<double>;
template BlockJacobiSymbolicPtr build_block_jacobi_symbolic<float>(
    const sparse::Csr<float>&, const BlockJacobiOptions&);
template BlockJacobiSymbolicPtr build_block_jacobi_symbolic<double>(
    const sparse::Csr<double>&, const BlockJacobiOptions&);

}  // namespace vbatch::precond
