// Measuring program of the layered time-to-solution benchmark.
//
// Drives the public API from outside, one process per run:
//
//   suite    the Fig. 9 protocol: for every named suite case, a fresh
//            block-Jacobi setup (make_symbolic, then make_preconditioner
//            adopting that symbolic) followed by one IDR(4) solve of
//            A x = ones from x = 0. Repeated in passes.
//   service  one service::Engine with several tenant sessions over shared
//            patterns: onboarding, closed-loop bursts (one request per
//            tenant at once) and an open-loop Poisson stream of
//            refresh+solve requests at fixed rates.
//
// This program only measures and checks; it writes raw samples as one JSON
// document (--out) that run.py reduces to the benchmark's metrics. With
// --trace 1 it also records spans around each call into a layer's public
// function (make_symbolic, make_preconditioner, refresh, apply through a
// forwarding decorator, solve, and every service request) and writes them
// to --spans as CSV: id,name,start,end,parent,request. Tracing state is
// switched per pass, so one traced process also yields untraced passes
// and hence the tracing overhead.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#include "base/random.hpp"
#include "base/thread_pool.hpp"
#include "core/bytes.hpp"
#include "core/flops.hpp"
#include "obs/json.hpp"
#include "precond/block_jacobi.hpp"
#include "precond/config.hpp"
#include "service/engine.hpp"
#include "solvers/config.hpp"
#include "sparse/suite.hpp"

namespace vb = vbatch;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

double now_s() {
    return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

// ---------------------------------------------------------------------
// Seeded inputs

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t s = a ^ (0x9e3779b97f4a7c15ULL * (b + 1));
    vb::splitmix64(s);
    return vb::splitmix64(s);
}

/// Uniform in [-1, 1) from a counter-based key (pure function of key).
double unit(std::uint64_t key) {
    std::uint64_t s = key;
    const std::uint64_t z = vb::splitmix64(s);
    return static_cast<double>(z >> 11) * 0x1.0p-52 - 1.0;
}

/// Seed 0 keeps the suite's own per-case seeds; any other seed is mixed
/// into each of them.
vb::sparse::SuiteCase seeded_case(const std::string& name,
                                  std::uint64_t seed) {
    vb::sparse::SuiteCase c = vb::sparse::suite_case_by_name(name);
    if (seed != 0) {
        c.seed = mix(c.seed, seed);
    }
    return c;
}

/// Same-pattern values: base * (1 + 1e-3 u), u uniform in [-1, 1).
void perturb(std::span<const double> base, std::uint64_t key,
             std::vector<double>& out) {
    out.resize(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        out[i] = base[i] * (1.0 + 1e-3 * unit(key + i));
    }
}

std::uint64_t hash_doubles(std::span<const double> v) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the bytes
    for (const double d : v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int k = 0; k < 8; ++k) {
            h ^= (bits >> (8 * k)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/// ||b - A x|| / ||b||.
double true_residual(const vb::sparse::Csr<double>& a,
                     std::span<const double> b, std::span<const double> x) {
    std::vector<double> ax(b.size());
    a.spmv(x, std::span<double>(ax));
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double d = b[i] - ax[i];
        rr += d * d;
        bb += b[i] * b[i];
    }
    return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------
// Spans. Each thread appends to its own buffer (no lock on the hot path);
// parents are same-thread, except that the service post-pass re-parents a
// request's worker-side spans under the request span it creates.

enum class SpanName : int {
    pass_case,
    make_symbolic,
    make_preconditioner,
    solve,
    apply,
    refresh,
    request,
    gen_lag,
    queue_wait,
};

const char* span_name(SpanName n) {
    switch (n) {
    case SpanName::pass_case: return "case";
    case SpanName::make_symbolic: return "make_symbolic";
    case SpanName::make_preconditioner: return "make_preconditioner";
    case SpanName::solve: return "solve";
    case SpanName::apply: return "apply";
    case SpanName::refresh: return "refresh";
    case SpanName::request: return "request";
    case SpanName::gen_lag: return "gen_lag";
    case SpanName::queue_wait: return "queue_wait";
    }
    return "unknown";
}

struct Span {
    SpanName name;
    double start;
    double end;
    std::int64_t parent;   // index in the same buffer, -1 = root
    std::int64_t request;  // case index or request id, -1 = none
};

struct SpanBuffer {
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  // stack of open span indices
};

std::atomic<bool> g_tracing{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<SpanBuffer>> g_buffers;  // guarded by mutex

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanBuffer& thread_buffer() {
    thread_local SpanBuffer* buffer = nullptr;
    if (buffer == nullptr) {
        auto owned = std::make_unique<SpanBuffer>();
        owned->spans.reserve(1 << 16);
        buffer = owned.get();
        std::lock_guard<std::mutex> lock(g_buffers_mutex);
        g_buffers.push_back(std::move(owned));
    }
    return *buffer;
}

/// RAII span on the calling thread; inert unless `armed`.
class SpanScope {
public:
    SpanScope(bool armed, SpanName name, std::int64_t request = -1)
        : buffer_(armed ? &thread_buffer() : nullptr) {
        if (buffer_ != nullptr) {
            index_ = static_cast<std::int64_t>(buffer_->spans.size());
            const std::int64_t parent =
                buffer_->open.empty() ? -1 : buffer_->open.back();
            buffer_->spans.push_back({name, now_s(), 0.0, parent, request});
            buffer_->open.push_back(index_);
        }
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    ~SpanScope() {
        if (buffer_ != nullptr) {
            buffer_->spans[static_cast<std::size_t>(index_)].end = now_s();
            buffer_->open.pop_back();
        }
    }

private:
    SpanBuffer* buffer_;
    std::int64_t index_ = -1;
};

// ---------------------------------------------------------------------
// Forwarding decorator: records a span around every apply and refresh.

class TracedPreconditioner final : public vb::precond::Preconditioner<double> {
public:
    explicit TracedPreconditioner(vb::precond::PreconditionerPtr<double> inner)
        : inner_(std::move(inner)) {}

    void apply(std::span<const double> r,
               std::span<double> z) const override {
        SpanScope span(tracing(), SpanName::apply);
        inner_->apply(r, z);
    }
    void refresh(const vb::sparse::Csr<double>& a) override {
        SpanScope span(tracing(), SpanName::refresh);
        inner_->refresh(a);
    }
    std::string name() const override { return inner_->name(); }
    double setup_seconds() const override { return inner_->setup_seconds(); }
    vb::size_type num_blocks() const override { return inner_->num_blocks(); }
    vb::core::RecoverySummary recovery_summary() const override {
        return inner_->recovery_summary();
    }
    double apply_flops() const override { return inner_->apply_flops(); }
    double apply_bytes() const override { return inner_->apply_bytes(); }

    const vb::precond::Preconditioner<double>& inner() const { return *inner_; }

private:
    vb::precond::PreconditionerPtr<double> inner_;
};

// ---------------------------------------------------------------------
// Protocol shared by all workloads.

vb::precond::Config precond_config() {
    vb::precond::Config config;
    config.backend = "lu-simd";
    config.max_block_size = 32;
    config.pivot = vb::precond::PivotScheme::implicit;
    return config;  // default (full) recovery
}

vb::solvers::Config solver_config(bool phases) {
    vb::solvers::Config config;
    config.method = "idr";
    config.idr_s = 4;
    config.rel_tol = 1e-6;
    config.max_iters = 10000;
    config.collect_phase_times = phases;
    return config;
}

/// What one block-Jacobi setup looked like (read from the concrete
/// preconditioner; zero for anything else).
struct SetupInfo {
    double blocking_s = 0.0;
    double plan_s = 0.0;
    double gather_s = 0.0;
    double factorize_s = 0.0;
    double pack_s = 0.0;
    double recovery_s = 0.0;
    double blocks = 0.0;
    double blocks_ok = 0.0;
    double block_rows = 0.0;
    double getrf_flops = 0.0;
    double factor_bytes = 0.0;
    double apply_bytes = 0.0;  // per apply, core/bytes.hpp model
};

void add_layout(const vb::core::BatchLayout& layout, SetupInfo& info) {
    for (vb::size_type b = 0; b < layout.count(); ++b) {
        const auto m = layout.size(b);
        info.blocks += 1.0;
        info.block_rows += static_cast<double>(m);
        info.getrf_flops += vb::core::getrf_flops(m);
        info.factor_bytes += static_cast<double>(m) * m * sizeof(double) +
                             static_cast<double>(m) * sizeof(vb::index_type);
    }
}

void add_numeric(const vb::precond::BlockJacobi<double>& bj,
                 SetupInfo& info) {
    const auto& ph = bj.setup_phases();
    info.gather_s += ph.gather_seconds;
    info.factorize_s += ph.factorize_seconds;
    info.pack_s += ph.pack_seconds;
    info.recovery_s += ph.recovery_seconds;
    info.blocks_ok += static_cast<double>(bj.recovery_summary().ok);
    info.apply_bytes += bj.apply_bytes();
}

// ---------------------------------------------------------------------
// JSON helpers

void put(vb::obs::JsonWriter& j, const char* key, double v) {
    j.key(key);
    j.value(v);
}

void put_array(vb::obs::JsonWriter& j, const char* key,
               const std::vector<double>& v) {
    j.key(key);
    j.begin_array();
    for (const double d : v) {
        j.value(d);
    }
    j.end_array();
}

void put_setup(vb::obs::JsonWriter& j, const char* key, const SetupInfo& s) {
    j.key(key);
    j.begin_object();
    put(j, "blocking_s", s.blocking_s);
    put(j, "plan_s", s.plan_s);
    put(j, "gather_s", s.gather_s);
    put(j, "factorize_s", s.factorize_s);
    put(j, "pack_s", s.pack_s);
    put(j, "recovery_s", s.recovery_s);
    put(j, "blocks", s.blocks);
    put(j, "blocks_ok", s.blocks_ok);
    put(j, "block_rows", s.block_rows);
    put(j, "getrf_flops", s.getrf_flops);
    put(j, "factor_bytes", s.factor_bytes);
    put(j, "apply_bytes", s.apply_bytes);
    j.end_object();
}

struct PoolSnapshot {
    vb::obs::PoolTelemetry t;
    double wall = 0.0;
};

PoolSnapshot pool_snapshot() {
    return {vb::ThreadPool::global().telemetry(), now_s()};
}

void put_pool_delta(vb::obs::JsonWriter& j, const PoolSnapshot& a,
                    const PoolSnapshot& b) {
    j.key("pool");
    j.begin_object();
    put(j, "workers", static_cast<double>(b.t.workers));
    put(j, "wall_s", b.wall - a.wall);
    put(j, "busy_s", b.t.busy_seconds - a.t.busy_seconds);
    put(j, "steals", static_cast<double>(b.t.steals - a.t.steals));
    put(j, "splits", static_cast<double>(b.t.splits - a.t.splits));
    put(j, "parks", static_cast<double>(b.t.parks - a.t.parks));
    put(j, "inline_runs",
        static_cast<double>(b.t.inline_runs - a.t.inline_runs));
    j.end_object();
}

/// Write every thread's spans as CSV with process-wide ids. `reparent`
/// may hang a root span under a span of buffer `main` by returning its
/// index there (-1 = keep it a root).
void write_spans(const std::string& path,
                 const std::function<std::int64_t(const Span&)>& reparent = {},
                 const SpanBuffer* main = nullptr) {
    if (path.empty()) {
        return;
    }
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    std::unordered_map<const SpanBuffer*, std::int64_t> offset;
    std::int64_t total = 0;
    for (const auto& buffer : g_buffers) {
        offset[buffer.get()] = total;
        total += static_cast<std::int64_t>(buffer->spans.size());
    }
    std::ofstream os(path);
    os << "id,name,start,end,parent,request\n";
    char line[160];
    for (const auto& buffer : g_buffers) {
        const std::int64_t base = offset[buffer.get()];
        for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
            const Span& s = buffer->spans[i];
            std::int64_t parent = s.parent < 0 ? -1 : base + s.parent;
            if (s.parent < 0 && reparent && main != nullptr) {
                const std::int64_t p = reparent(s);
                if (p >= 0) {
                    parent = offset[main] + p;
                }
            }
            std::snprintf(line, sizeof(line), "%lld,%s,%.9f,%.9f,%lld,%lld\n",
                          static_cast<long long>(base + static_cast<std::int64_t>(i)),
                          span_name(s.name), s.start, s.end,
                          static_cast<long long>(parent),
                          static_cast<long long>(s.request));
            os << line;
        }
    }
}

// ---------------------------------------------------------------------
// Options

struct Options {
    std::string mode;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string spans;
    // suite
    std::vector<std::string> cases;
    int warmup = 1;
    int min_passes = 3;
    int max_passes = 0;  // 0 = unbounded (time-boxed)
    // service
    std::vector<std::pair<std::string, int>> tenants;
    std::vector<double> rates;
    int window_requests = 1000;  // timed requests per rate
    int warmup_requests = 20;    // per rate, in the warm-up round
    int rounds = 10;
};

std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, sep)) {
        if (!item.empty()) {
            parts.push_back(item);
        }
    }
    return parts;
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            throw std::invalid_argument("missing value for " + arg);
        }
        const std::string v = argv[++i];
        if (arg == "--mode") {
            o.mode = v;
        } else if (arg == "--seed") {
            o.seed = std::stoull(v);
        } else if (arg == "--seconds") {
            o.seconds = std::stod(v);
        } else if (arg == "--trace") {
            o.trace = v == "1";
        } else if (arg == "--out") {
            o.out = v;
        } else if (arg == "--spans") {
            o.spans = v;
        } else if (arg == "--cases") {
            o.cases = split(v, ',');
        } else if (arg == "--warmup") {
            o.warmup = std::stoi(v);
        } else if (arg == "--min-passes") {
            o.min_passes = std::stoi(v);
        } else if (arg == "--max-passes") {
            o.max_passes = std::stoi(v);
        } else if (arg == "--tenants") {
            for (const auto& t : split(v, ',')) {
                const auto colon = t.find(':');
                if (colon == std::string::npos) {
                    throw std::invalid_argument("tenant needs name:count");
                }
                o.tenants.emplace_back(t.substr(0, colon),
                                       std::stoi(t.substr(colon + 1)));
            }
        } else if (arg == "--rates") {
            for (const auto& r : split(v, ',')) {
                o.rates.push_back(std::stod(r));
            }
        } else if (arg == "--window-requests") {
            o.window_requests = std::stoi(v);
        } else if (arg == "--warmup-requests") {
            o.warmup_requests = std::stoi(v);
        } else if (arg == "--rounds") {
            o.rounds = std::stoi(v);
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (o.mode != "suite" && o.mode != "service") {
        throw std::invalid_argument("--mode must be suite or service");
    }
    if (o.out.empty()) {
        throw std::invalid_argument("--out is required");
    }
    return o;
}

// ---------------------------------------------------------------------
// suite

struct CaseSample {
    double case_s = 0.0;
    double symbolic_s = 0.0;
    double numeric_s = 0.0;
    double solve_s = 0.0;
    double iterations = 0.0;
    bool converged = false;
    double residual = 0.0;
    std::uint64_t hash = 0;
    vb::solvers::PhaseSeconds phases;
    SetupInfo setup;
};

CaseSample run_case(const vb::sparse::Csr<double>& a, std::int64_t index,
                    std::vector<double>& b, std::vector<double>& x,
                    const vb::solvers::Solver<double>& solver, bool traced) {
    CaseSample out;
    std::fill(b.begin(), b.end(), 1.0);
    std::fill(x.begin(), x.end(), 0.0);
    const auto config = precond_config();
    vb::precond::PreconditionerPtr<double> prec;
    const vb::precond::BlockJacobi<double>* bj = nullptr;
    vb::solvers::SolveResult result;
    std::shared_ptr<const vb::precond::BlockJacobiSymbolic> sym;
    const double t0 = now_s();
    double t1 = 0.0;
    double t2 = 0.0;
    {
        SpanScope case_span(traced, SpanName::pass_case, index);
        {
            SpanScope span(traced, SpanName::make_symbolic, index);
            sym = vb::precond::make_symbolic<double>(a, config);
        }
        t1 = now_s();
        {
            SpanScope span(traced, SpanName::make_preconditioner, index);
            auto adopted = config;
            adopted.symbolic = sym;
            prec = vb::precond::make_preconditioner<double>(a, adopted);
            bj = dynamic_cast<const vb::precond::BlockJacobi<double>*>(
                prec.get());
            if (traced) {
                prec = std::make_unique<TracedPreconditioner>(std::move(prec));
            }
        }
        t2 = now_s();
        SpanScope span(traced, SpanName::solve, index);
        result = solver.solve(a, std::span<const double>(b),
                              std::span<double>(x), *prec);
    }
    const double t3 = now_s();
    if (sym != nullptr) {
        out.setup.blocking_s = sym->blocking_seconds;
        out.setup.plan_s = sym->plan_seconds;
        add_layout(*sym->layout, out.setup);
    }
    out.case_s = t3 - t0;
    out.symbolic_s = t1 - t0;
    out.numeric_s = t2 - t1;
    out.solve_s = t3 - t2;
    out.iterations = static_cast<double>(result.iterations);
    out.converged = result.converged();
    out.phases = result.phase_seconds;
    out.residual = true_residual(a, b, x);
    out.hash = hash_doubles(x);
    if (bj != nullptr) {
        add_numeric(*bj, out.setup);
    }
    return out;
}

int run_suite(const Options& o) {
    if (o.cases.empty()) {
        throw std::invalid_argument("--cases is required for the suite");
    }
    // Set-up (untimed): generate every matrix once, over the pool.
    std::vector<vb::sparse::SuiteCase> cases;
    for (const auto& name : o.cases) {
        cases.push_back(seeded_case(name, o.seed));
    }
    std::vector<vb::sparse::Csr<double>> mats(cases.size());
    const double gen0 = now_s();
    vb::ThreadPool::global().parallel_for(
        0, static_cast<vb::size_type>(cases.size()),
        [&](vb::size_type i) {
            mats[static_cast<std::size_t>(i)] =
                vb::sparse::build_suite_matrix(cases[static_cast<std::size_t>(i)]);
        },
        1);
    const double gen_s = now_s() - gen0;

    const auto plain_solver = vb::solvers::make_solver<double>(solver_config(false));
    const auto phase_solver = vb::solvers::make_solver<double>(solver_config(true));
    std::vector<std::vector<double>> bs(mats.size());
    std::vector<std::vector<double>> xs(mats.size());
    for (std::size_t i = 0; i < mats.size(); ++i) {
        bs[i].resize(static_cast<std::size_t>(mats[i].num_rows()));
        xs[i].resize(bs[i].size());
    }

    struct Pass {
        bool traced = false;
        double start_s = 0.0;
        double wall_s = 0.0;
        std::vector<CaseSample> samples;
        PoolSnapshot pool0, pool1;
    };
    std::vector<Pass> passes;
    const auto run_pass = [&](bool traced) {
        Pass p;
        p.traced = traced;
        g_tracing.store(traced);
        vb::ThreadPool::set_stats_enabled(traced);
        p.pool0 = pool_snapshot();
        const double w0 = now_s();
        p.start_s = w0;
        for (std::size_t i = 0; i < mats.size(); ++i) {
            p.samples.push_back(run_case(mats[i], static_cast<std::int64_t>(i),
                                         bs[i], xs[i],
                                         traced ? *phase_solver : *plain_solver,
                                         traced));
        }
        p.wall_s = now_s() - w0;
        p.pool1 = pool_snapshot();
        vb::ThreadPool::set_stats_enabled(false);
        g_tracing.store(false);
        return p;
    };

    for (int w = 0; w < o.warmup; ++w) {
        passes.push_back(run_pass(false));
    }
    const double start = now_s();
    int timed = 0;
    while (true) {
        // In a traced run, untraced and traced passes alternate so the
        // tracing overhead is measured under the same conditions.
        const bool traced = o.trace && (timed % 2 == 1);
        passes.push_back(run_pass(traced));
        ++timed;
        const bool enough_time = now_s() - start >= o.seconds;
        const bool enough_passes =
            timed >= o.min_passes && (!o.trace || timed >= 2);
        if ((enough_time && enough_passes) ||
            (o.max_passes > 0 && timed >= o.max_passes)) {
            break;
        }
    }

    std::ofstream os(o.out);
    vb::obs::JsonWriter j(os);
    j.begin_object();
    j.key("mode");
    j.value("suite");
    j.key("seed");
    j.value(static_cast<std::uint64_t>(o.seed));
    put(j, "threads", static_cast<double>(vb::ThreadPool::global().size()));
    put(j, "generate_s", gen_s);
    put(j, "peak_rss_mb", peak_rss_mb());
    put(j, "warmup_passes", static_cast<double>(o.warmup));
    j.key("cases");
    j.begin_array();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        j.begin_object();
        j.key("name");
        j.value(cases[i].name);
        put(j, "rows", static_cast<double>(mats[i].num_rows()));
        put(j, "nnz", static_cast<double>(mats[i].nnz()));
        put(j, "spmv_bytes",
            vb::core::spmv_bytes<double>(mats[i].num_rows(), mats[i].nnz()));
        j.end_object();
    }
    j.end_array();
    j.key("passes");
    j.begin_array();
    for (std::size_t p = 0; p < passes.size(); ++p) {
        const Pass& pass = passes[p];
        j.begin_object();
        j.key("warmup");
        j.value(static_cast<int>(p) < o.warmup);
        j.key("traced");
        j.value(pass.traced);
        put(j, "start_s", pass.start_s);
        put(j, "wall_s", pass.wall_s);
        put_pool_delta(j, pass.pool0, pass.pool1);
        j.key("cases");
        j.begin_array();
        for (const CaseSample& s : pass.samples) {
            j.begin_object();
            put(j, "case_s", s.case_s);
            put(j, "symbolic_s", s.symbolic_s);
            put(j, "numeric_s", s.numeric_s);
            put(j, "solve_s", s.solve_s);
            put(j, "iterations", s.iterations);
            j.key("converged");
            j.value(s.converged);
            put(j, "residual", s.residual);
            j.key("hash");
            j.value(std::to_string(s.hash));
            put(j, "spmv_s", s.phases.spmv);
            put(j, "precond_s", s.phases.precond);
            put(j, "blas1_s", s.phases.blas1);
            put(j, "orth_s", s.phases.orth);
            put_setup(j, "setup", s.setup);
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();
    j.end_object();
    os << '\n';
    write_spans(o.spans);
    return 0;
}


// ---------------------------------------------------------------------
// service

/// One submitted request, filled in by the generator (due/submit), the
/// stamping solver (start/end, on the worker) and the response.
struct RequestRecord {
    int tenant = -1;
    int level = -1;  // rate index; -1 = closed-loop burst
    int round = 0;
    bool warm = false;
    bool has_values = false;
    double due = 0.0;
    double submit = 0.0;
    double start = 0.0;  // solve start
    double end = 0.0;    // solve end = completion
    bool accepted = false;
    bool converged = false;
    double iterations = 0.0;
    double queue_s = 0.0;
    double refresh_s = 0.0;
    double solve_s = 0.0;
    vb::solvers::PhaseSeconds phases;
    double residual = -1.0;
    std::uint64_t hash = 0;
};

std::vector<RequestRecord> g_records;
std::mutex g_ids_mutex;
std::unordered_map<const double*, std::int64_t> g_ids;  // guarded

void register_request(const double* rhs, std::int64_t id) {
    std::lock_guard<std::mutex> lock(g_ids_mutex);
    g_ids[rhs] = id;
}

std::int64_t take_request(const double* rhs) {
    std::lock_guard<std::mutex> lock(g_ids_mutex);
    const auto it = g_ids.find(rhs);
    if (it == g_ids.end()) {
        return -1;
    }
    const std::int64_t id = it->second;
    g_ids.erase(it);
    return id;
}

/// IDR(4) behind a solver key of its own: stamps the solve start and the
/// completion time of every engine request (the engine reports durations
/// only), and records the solve span in traced runs. The request is
/// recognised by its right-hand side, which the engine passes through.
class StampingSolver final : public vb::solvers::Solver<double> {
public:
    explicit StampingSolver(vb::solvers::Config config) {
        config.method = "idr";
        config.collect_phase_times = false;
        plain_ = vb::solvers::make_solver<double>(config);
        config.collect_phase_times = true;
        phased_ = vb::solvers::make_solver<double>(config);
    }

    vb::solvers::SolveResult solve(
        const vb::sparse::Csr<double>& a, std::span<const double> b,
        std::span<double> x,
        const vb::precond::Preconditioner<double>& prec) const override {
        const std::int64_t id = take_request(b.data());
        const bool traced = tracing();
        if (traced && id >= 0) {
            // The session ran this request's refresh on this thread just
            // before the solve; hand that span to the request.
            SpanBuffer& buf = thread_buffer();
            if (!buf.spans.empty() && buf.spans.back().name == SpanName::refresh &&
                buf.spans.back().request < 0) {
                buf.spans.back().request = id;
            }
        }
        const double start = now_s();
        vb::solvers::SolveResult result;
        {
            SpanScope span(traced, SpanName::solve, id);
            result = (traced ? phased_ : plain_)->solve(a, b, x, prec);
        }
        const double end = now_s();
        if (id >= 0) {
            auto& rec = g_records[static_cast<std::size_t>(id)];
            rec.start = start;
            rec.end = end;
        }
        return result;
    }
    std::string name() const override { return "e2e-idr"; }

private:
    vb::solvers::SolverPtr<double> plain_;
    vb::solvers::SolverPtr<double> phased_;
};

/// The "lu-simd" block-Jacobi wrapped in the tracing decorator, for the
/// sessions of a traced run (the engine builds its preconditioners itself).
vb::precond::PreconditionerPtr<double> traced_lu_simd(
    const vb::sparse::Csr<double>& a, const vb::precond::Config& c) {
    SpanScope span(tracing(), SpanName::make_preconditioner);
    vb::precond::BlockJacobiOptions o;
    o.backend = vb::precond::BlockJacobiBackend::lu_simd;
    o.max_block_size = c.max_block_size;
    o.trsv_variant = c.trsv_variant;
    o.simd = c.simd;
    o.parallel = c.parallel;
    o.pivot = c.pivot;
    o.rbt_seed = c.rbt_seed;
    o.rbt_depth = c.rbt_depth;
    o.layout = c.layout;
    o.recovery = c.recovery;
    o.symbolic = c.symbolic;
    return std::make_unique<TracedPreconditioner>(
        std::make_unique<vb::precond::BlockJacobi<double>>(a, o));
}

const vb::precond::BlockJacobi<double>* block_jacobi_of(
    const vb::precond::Preconditioner<double>& p) {
    if (const auto* t = dynamic_cast<const TracedPreconditioner*>(&p)) {
        return dynamic_cast<const vb::precond::BlockJacobi<double>*>(
            &t->inner());
    }
    return dynamic_cast<const vb::precond::BlockJacobi<double>*>(&p);
}

struct Tenant {
    std::string pattern;
    vb::sparse::Csr<double> matrix;  // the tenant's own base values
    std::vector<double> ones;
};

/// Seeded request content: tenant choice, values flag, rhs and values.
struct RequestKeys {
    std::uint64_t seed;
    std::uint64_t pick(std::int64_t id) const { return mix(seed, 3 * id + 1); }
    std::uint64_t rhs(std::int64_t id) const { return mix(seed, 3 * id + 2); }
    std::uint64_t values(std::int64_t id) const { return mix(seed, 3 * id + 3); }
};

/// A stream request's right-hand side: 1 + 0.5 u, u uniform in [-1, 1).
void request_rhs(const RequestKeys& keys, std::int64_t id, std::size_t n,
                 std::vector<double>& out) {
    out.resize(n);
    const std::uint64_t key = keys.rhs(id);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = 1.0 + 0.5 * unit(key + i);
    }
}

/// Rebuilds, after the clock stops, the matrix values a session held when
/// it solved each request and checks the true residual. A session
/// serializes its requests, so in solve-start order a request sees the
/// values of the latest values-carrying request before it.
class ResidualChecker {
public:
    ResidualChecker(const std::vector<Tenant>& tenants, const RequestKeys& keys)
        : tenants_(tenants), keys_(keys) {
        for (const auto& t : tenants) {
            work_.push_back(t.matrix);
        }
    }

    /// Check the given (completed, drained) requests; `solutions[id]` holds
    /// each answer and is released afterwards.
    void check(const std::vector<std::int64_t>& ids,
               std::vector<std::vector<double>>& solutions) {
        const auto nt = static_cast<vb::size_type>(tenants_.size());
        std::vector<std::vector<std::int64_t>> by_tenant(tenants_.size());
        for (const std::int64_t id : ids) {
            const auto& rec = g_records[static_cast<std::size_t>(id)];
            if (rec.accepted) {
                by_tenant[static_cast<std::size_t>(rec.tenant)].push_back(id);
            }
        }
        vb::ThreadPool::global().parallel_for(
            0, nt,
            [&](vb::size_type i) {
                check_tenant(static_cast<std::size_t>(i),
                             by_tenant[static_cast<std::size_t>(i)], solutions);
            },
            1);
    }

private:
    void check_tenant(std::size_t i, std::vector<std::int64_t>& ids,
                      std::vector<std::vector<double>>& solutions) {
        std::sort(ids.begin(), ids.end(), [](std::int64_t x, std::int64_t y) {
            return g_records[static_cast<std::size_t>(x)].start <
                   g_records[static_cast<std::size_t>(y)].start;
        });
        const Tenant& tenant = tenants_[i];
        std::vector<double> vals;
        std::vector<double> rhs;
        for (const std::int64_t id : ids) {
            auto& rec = g_records[static_cast<std::size_t>(id)];
            if (rec.level < 0) {
                // Bursts carry the tenant's base values.
                work_[i].set_values(tenant.matrix.values());
                rhs = tenant.ones;
            } else {
                if (rec.has_values) {
                    perturb(tenant.matrix.values(), keys_.values(id), vals);
                    work_[i].set_values(vals);
                }
                request_rhs(keys_, id, tenant.ones.size(), rhs);
            }
            auto& x = solutions[static_cast<std::size_t>(id)];
            rec.residual = x.size() == rhs.size() ? true_residual(work_[i], rhs, x)
                                                  : -1.0;
            rec.hash = hash_doubles(x);
            std::vector<double>().swap(x);
        }
    }

    const std::vector<Tenant>& tenants_;
    RequestKeys keys_;
    std::vector<vb::sparse::Csr<double>> work_;
};

int run_service(const Options& o) {
    if (o.tenants.empty() || o.rates.empty() || o.rounds < 1) {
        throw std::invalid_argument("--tenants, --rates and --rounds are required");
    }
    const RequestKeys keys{mix(o.seed, 0x5e41ce)};
    // Set-up (untimed): one matrix per pattern, one value set per tenant.
    std::vector<Tenant> tenants;
    {
        std::unordered_map<std::string, vb::sparse::Csr<double>> patterns;
        for (const auto& [name, count] : o.tenants) {
            if (patterns.count(name) == 0) {
                patterns.emplace(name, vb::sparse::build_suite_matrix(
                                           seeded_case(name, o.seed)));
            }
            for (int k = 0; k < count; ++k) {
                Tenant t;
                t.pattern = name;
                t.matrix = patterns.at(name);
                std::vector<double> vals;
                perturb(patterns.at(name).values(),
                        mix(o.seed, 0x7e4a47 + tenants.size()), vals);
                t.matrix.set_values(vals);
                t.ones.assign(static_cast<std::size_t>(t.matrix.num_rows()), 1.0);
                tenants.push_back(std::move(t));
            }
        }
    }
    const int nt = static_cast<int>(tenants.size());
    const int nl = static_cast<int>(o.rates.size());

    vb::solvers::register_solver<double>(
        "e2e-idr", [](const vb::solvers::Config& c) {
            return vb::solvers::SolverPtr<double>(
                std::make_unique<StampingSolver>(c));
        });
    if (o.trace) {
        vb::precond::register_backend<double>("lu-simd", traced_lu_simd);
    }
    vb::service::SessionOptions session_options;
    session_options.precond = precond_config();
    session_options.solver = solver_config(false);
    session_options.solver.method = "e2e-idr";
    vb::service::EngineOptions engine_options;
    engine_options.admission = vb::service::Admission::reject;

    // Round 0 warms up (its onboarding opens the engine every later round
    // uses); rounds 1..R are timed. Each round: one onboarding on a fresh
    // engine, one burst, then one stream segment per rate. Interleaving
    // spreads every metric's samples over the whole run, so a transient
    // slowdown of the host touches all of them alike.
    const int segment = std::max(1, o.window_requests / o.rounds);
    std::size_t total = 0;
    for (int r = 0; r <= o.rounds; ++r) {
        total += static_cast<std::size_t>(nt + nl * (r == 0 ? o.warmup_requests : segment));
    }
    g_records.assign(total, RequestRecord{});
    std::vector<std::future<vb::service::SolveResponse<double>>> futures(total);
    std::vector<std::vector<double>> solutions(total);
    ResidualChecker checker(tenants, keys);

    const auto collect = [&](std::int64_t id) {
        auto response = futures[static_cast<std::size_t>(id)].get();
        auto& rec = g_records[static_cast<std::size_t>(id)];
        rec.accepted = response.accepted;
        rec.converged = response.result.converged();
        rec.iterations = static_cast<double>(response.result.iterations);
        rec.queue_s = response.queue_seconds;
        rec.refresh_s = response.refresh_seconds;
        rec.solve_s = response.result.solve_seconds;
        rec.phases = response.result.phase_seconds;
        solutions[static_cast<std::size_t>(id)] = std::move(response.x);
    };
    const auto open_all = [&](vb::service::Engine& engine,
                              std::vector<vb::service::SessionPtr<double>>& out) {
        std::vector<vb::sparse::Csr<double>> copies;
        for (const auto& t : tenants) {
            copies.push_back(t.matrix);
        }
        const double t0 = now_s();
        for (int i = 0; i < nt; ++i) {
            out.push_back(engine.open_session<double>(
                std::move(copies[static_cast<std::size_t>(i)]), session_options));
        }
        return now_s() - t0;
    };

    g_tracing.store(o.trace);
    vb::ThreadPool::set_stats_enabled(o.trace);
    std::vector<double> onboard_s;
    std::vector<double> burst_s;
    std::vector<int> burst_traced;
    auto engine = std::make_unique<vb::service::Engine>(engine_options);
    std::vector<vb::service::SessionPtr<double>> sessions;
    onboard_s.push_back(open_all(*engine, sessions));
    const auto cache_stats = engine->stats().cache;
    const auto counters0 = vb::obs::Registry::global().counters();
    const PoolSnapshot pool0 = pool_snapshot();
    std::vector<std::pair<double, double>> round_span;
    std::map<std::string, double> onboarding_counters;  // timed onboardings
    std::int64_t next_id = 0;
    for (int round = 0; round <= o.rounds; ++round) {
        const std::int64_t first = next_id;
        const double round_start = now_s();
        if (round > 0) {
            const auto before = vb::obs::Registry::global().counters();
            vb::service::Engine fresh(engine_options);
            std::vector<vb::service::SessionPtr<double>> fresh_sessions;
            onboard_s.push_back(open_all(fresh, fresh_sessions));
            for (const auto& [name, value] : vb::obs::Registry::global().counters()) {
                const auto it = before.find(name);
                onboarding_counters[name] += value - (it == before.end() ? 0.0 : it->second);
            }
        }
        // Closed-loop burst: every tenant refreshes to its base values and
        // solves A x = ones, all submitted at once. Traced runs alternate
        // untraced and traced bursts (tracing overhead).
        {
            const bool traced = o.trace && round % 2 == 0;
            g_tracing.store(traced);
            std::vector<vb::service::SolveRequest<double>> reqs(static_cast<std::size_t>(nt));
            for (int i = 0; i < nt; ++i) {
                auto& req = reqs[static_cast<std::size_t>(i)];
                const auto& t = tenants[static_cast<std::size_t>(i)];
                req.values.assign(t.matrix.values().begin(), t.matrix.values().end());
                req.rhs = t.ones;
            }
            const std::int64_t burst_first = next_id;
            const double t0 = now_s();
            for (int i = 0; i < nt; ++i) {
                const std::int64_t id = next_id++;
                auto& rec = g_records[static_cast<std::size_t>(id)];
                rec.tenant = i;
                rec.round = round;
                rec.warm = round == 0;
                auto& req = reqs[static_cast<std::size_t>(i)];
                register_request(req.rhs.data(), id);
                rec.due = rec.submit = now_s();
                futures[static_cast<std::size_t>(id)] =
                    sessions[static_cast<std::size_t>(i)]->submit(std::move(req));
            }
            for (std::int64_t id = burst_first; id < next_id; ++id) {
                collect(id);
            }
            burst_s.push_back(now_s() - t0);
            burst_traced.push_back(traced ? 1 : 0);
            g_tracing.store(o.trace);
        }
        // Open-loop stream: one Poisson segment per rate, back to back;
        // the generator prepares each request ahead, sleeps until it is
        // due, then submits.
        std::uint64_t arrival_state = mix(keys.seed, 0xa771 + static_cast<std::uint64_t>(round));
        double t = now_s() + 0.01;
        const int count = round == 0 ? o.warmup_requests : segment;
        for (int level = 0; level < nl; ++level) {
            for (int k = 0; k < count; ++k) {
                const double u =
                    static_cast<double>(vb::splitmix64(arrival_state) >> 11) * 0x1.0p-53;
                t += -std::log1p(-u) / o.rates[static_cast<std::size_t>(level)];
                const std::int64_t id = next_id++;
                auto& rec = g_records[static_cast<std::size_t>(id)];
                rec.level = level;
                rec.round = round;
                rec.warm = round == 0;
                rec.tenant = static_cast<int>(keys.pick(id) % static_cast<std::uint64_t>(nt));
                rec.has_values = (mix(keys.pick(id), 1) & 1U) != 0U;
                rec.due = t;
                const Tenant& tenant = tenants[static_cast<std::size_t>(rec.tenant)];
                vb::service::SolveRequest<double> req;
                request_rhs(keys, id, tenant.ones.size(), req.rhs);
                if (rec.has_values) {
                    perturb(tenant.matrix.values(), keys.values(id), req.values);
                }
                register_request(req.rhs.data(), id);
                const double wait = rec.due - now_s();
                if (wait > 0.0) {
                    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
                }
                rec.submit = now_s();
                futures[static_cast<std::size_t>(id)] =
                    sessions[static_cast<std::size_t>(rec.tenant)]->submit(std::move(req));
            }
        }
        for (std::int64_t id = first; id < next_id; ++id) {
            if (g_records[static_cast<std::size_t>(id)].level >= 0) {
                collect(id);
            }
        }
        round_span.emplace_back(round_start, now_s());
        // Correctness of this round, off the clock.
        std::vector<std::int64_t> ids;
        for (std::int64_t id = first; id < next_id; ++id) {
            ids.push_back(id);
        }
        const bool traced_now = tracing();
        g_tracing.store(false);
        checker.check(ids, solutions);
        g_tracing.store(traced_now);
    }
    const PoolSnapshot pool1 = pool_snapshot();
    const auto counters1 = vb::obs::Registry::global().counters();
    vb::ThreadPool::set_stats_enabled(false);
    g_tracing.store(false);
    const auto engine_stats = engine->stats();

    // Per-session setup and storage.
    SetupInfo setup;
    for (const auto& session : sessions) {
        if (const auto* bj = block_jacobi_of(session->preconditioner())) {
            add_layout(bj->layout(), setup);
            add_numeric(*bj, setup);
        }
    }

    std::ofstream os(o.out);
    vb::obs::JsonWriter j(os);
    j.begin_object();
    j.key("mode");
    j.value("service");
    j.key("seed");
    j.value(static_cast<std::uint64_t>(o.seed));
    put(j, "threads", static_cast<double>(vb::ThreadPool::global().size()));
    put(j, "peak_rss_mb", peak_rss_mb());
    put(j, "segment_requests", static_cast<double>(segment));
    put_array(j, "onboard_s", onboard_s);
    put_array(j, "burst_s", burst_s);
    j.key("burst_traced");
    j.begin_array();
    for (const int b : burst_traced) {
        j.value(b == 1);
    }
    j.end_array();
    put_array(j, "rates", o.rates);
    j.key("tenants");
    j.begin_array();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const auto& t = tenants[i];
        SetupInfo own;
        if (const auto* bj = block_jacobi_of(sessions[i]->preconditioner())) {
            add_layout(bj->layout(), own);
            own.apply_bytes = bj->apply_bytes();
        }
        j.begin_object();
        j.key("pattern");
        j.value(t.pattern);
        put(j, "rows", static_cast<double>(t.matrix.num_rows()));
        put(j, "nnz", static_cast<double>(t.matrix.nnz()));
        put(j, "spmv_bytes",
            vb::core::spmv_bytes<double>(t.matrix.num_rows(), t.matrix.nnz()));
        put(j, "apply_bytes", own.apply_bytes);
        put(j, "getrf_flops", own.getrf_flops);
        j.end_object();
    }
    j.end_array();
    j.key("engine");
    j.begin_object();
    put(j, "plan_builds", static_cast<double>(cache_stats.builds));
    put(j, "plan_reuses", static_cast<double>(cache_stats.reuses));
    put(j, "rejected", static_cast<double>(engine_stats.rejected));
    put(j, "peak_depth", static_cast<double>(engine_stats.peak_depth));
    j.end_object();
    // Library counters of the steady state: everything after the main
    // engine's onboarding except the timed onboardings on fresh engines.
    const auto delta = [&](const char* name) {
        const auto a = counters0.find(name);
        const auto b = counters1.find(name);
        const auto c = onboarding_counters.find(name);
        return (b == counters1.end() ? 0.0 : b->second) -
               (a == counters0.end() ? 0.0 : a->second) -
               (c == onboarding_counters.end() ? 0.0 : c->second);
    };
    j.key("counters");
    j.begin_object();
    put(j, "blocking_s", delta("block_jacobi.blocking_seconds"));
    put(j, "plan_s", delta("block_jacobi.plan_seconds"));
    put(j, "gather_s", delta("block_jacobi.gather_seconds"));
    put(j, "factorize_s", delta("block_jacobi.factorize_seconds"));
    put(j, "pack_s", delta("block_jacobi.pack_seconds"));
    put(j, "recovery_s", delta("block_jacobi.recovery_seconds"));
    j.end_object();
    put_pool_delta(j, pool0, pool1);
    put_setup(j, "setup", setup);
    j.key("requests");
    j.begin_array();
    for (std::int64_t id = 0; id < next_id; ++id) {
        const auto& r = g_records[static_cast<std::size_t>(id)];
        j.begin_array();  // compact row; run.py names the columns
        j.value(static_cast<std::int64_t>(r.tenant));
        j.value(static_cast<std::int64_t>(r.level));
        j.value(static_cast<std::int64_t>(r.round));
        j.value(r.warm);
        j.value(r.has_values);
        j.value(r.accepted);
        j.value(r.converged);
        j.value(r.iterations);
        j.value(r.due);
        j.value(r.submit);
        j.value(r.start);
        j.value(r.end);
        j.value(r.queue_s);
        j.value(r.refresh_s);
        j.value(r.solve_s);
        j.value(r.phases.spmv);
        j.value(r.phases.precond);
        j.value(r.phases.blas1);
        j.value(r.phases.orth);
        j.value(r.residual);
        j.value(std::to_string(r.hash));
        j.end_array();
    }
    j.end_array();
    j.end_object();
    os << '\n';
    os.close();

    if (o.trace) {
        // Request spans: [due, completion], parenting the generator lag,
        // the queue wait and the worker-side refresh/solve spans.
        SpanBuffer& buf = thread_buffer();
        std::unordered_map<std::int64_t, std::int64_t> request_span;
        for (std::int64_t id = 0; id < next_id; ++id) {
            const auto& r = g_records[static_cast<std::size_t>(id)];
            if (!r.accepted || r.level < 0) {
                continue;
            }
            const auto idx = static_cast<std::int64_t>(buf.spans.size());
            buf.spans.push_back({SpanName::request, r.due, r.end, -1, id});
            buf.spans.push_back({SpanName::gen_lag, r.due, r.submit, idx, id});
            buf.spans.push_back({SpanName::queue_wait, r.submit,
                                 r.submit + r.queue_s, idx, id});
            request_span[id] = idx;
        }
        write_spans(
            o.spans,
            [&](const Span& sp) -> std::int64_t {
                if (sp.request < 0 || (sp.name != SpanName::refresh &&
                                       sp.name != SpanName::solve)) {
                    return -1;
                }
                const auto it = request_span.find(sp.request);
                return it == request_span.end() ? -1 : it->second;
            },
            &buf);
    }
    sessions.clear();
    engine.reset();
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Options o = parse(argc, argv);
        return o.mode == "suite" ? run_suite(o) : run_service(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 2;
    }
}
