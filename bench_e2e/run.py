#!/usr/bin/env python3
"""Layered time-to-solution benchmark of the block-Jacobi + IDR(4) stack.

    python3 bench_e2e/run.py --workload suite_t1 --seed 0 --seconds 24 --trace 0
    python3 bench_e2e/run.py --self-check

Run from the root of a source checkout. The first run builds e2e_bench
(bench_e2e/CMakeLists.txt, which builds the library from ../src) into
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e. Workload definitions live
in bench_e2e/workloads.json; the metric list and bounds in BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The lines before it are a
human-readable ledger. A failed correctness gate makes the exit code 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170

REQUEST_COLUMNS = (
    "tenant level round warm has_values accepted converged iterations due submit "
    "start end queue_s refresh_s solve_s spmv_s precond_s blas1_s orth_s "
    "residual hash"
).split()


# ---------------------------------------------------------------------------
# build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2e")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench", "-j", jobs])
    with open(log_path, "w") as logf:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                                timeout=840).returncode
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as logf:
            sys.stderr.write("".join(logf.readlines()[-30:]))
        raise SystemExit("bench_e2e: build failed (log: %s)" % log_path)
    return os.path.join(out, "e2e_bench")


def run_e2e_bench(exe, threads, args, trace):
    env = dict(os.environ)
    env["VBATCH_THREADS"] = str(threads)
    for knob in ("VBATCH_POOL_STATS", "VBATCH_TRACE", "VBATCH_SCHED", "VBATCH_SIMD",
                 "VBATCH_RBT_SEED", "VBATCH_SERVICE_QUEUE"):
        env.pop(knob, None)  # the protocol runs the defaults
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%d-%d" % (os.getpid(), len(os.listdir(runs)))
    out = os.path.join(runs, tag + ".json")
    spans = os.path.join(runs, tag + "-spans.csv") if trace else ""
    cmd = [exe] + args + ["--out", out, "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("bench_e2e: e2e_bench failed with code %d" % proc.returncode)
    with open(out) as f:
        data = json.load(f)
    os.remove(out)
    span_rows = read_spans(spans) if spans else []
    if spans:
        os.remove(spans)
    return data, span_rows


def read_spans(path):
    rows = []
    with open(path) as f:
        next(f)
        for line in f:
            sid, name, start, end, parent, request = line.rstrip("\n").split(",")
            rows.append((int(sid), name, float(start), float(end), int(parent), int(request)))
    return rows


# ---------------------------------------------------------------------------
# statistics

def median(values):
    return statistics.median(values) if values else 0.0


def pct(values, p):
    """p-th percentile (inclusive interpolation); needs >= 2 values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Spans:
    """Span tree with self times (duration minus direct children)."""

    def __init__(self, rows):
        self.rows = {r[0]: r for r in rows}
        self.child_time = {}
        for sid, _name, start, end, parent, _req in rows:
            if parent >= 0:
                self.child_time[parent] = self.child_time.get(parent, 0.0) + (end - start)

    def self_time(self, sid):
        _, _, start, end, _, _ = self.rows[sid]
        return (end - start) - self.child_time.get(sid, 0.0)

    def owner(self, sid, name):
        """Nearest ancestor span called `name` (or None)."""
        parent = self.rows[sid][4]
        while parent >= 0:
            row = self.rows[parent]
            if row[1] == name:
                return row
            parent = row[4]
        return None


def idr_blas1_bytes(rows, iterations, s=4):
    """Computed BLAS-1 traffic of IDR(s) under the core/bytes.hpp building
    blocks (8-byte values): per cycle of s+1 iterations, the k-th inner step
    streams 2(s-k)+14 vectors (copy, two multi-axpys, axpby, axpy, fused
    axpy+norm) and the dimension reduction 8 (dot pair, axpy, fused
    axpy+norm)."""
    per_cycle = sum(2 * (s - k) + 14 for k in range(s)) + 8
    return 8.0 * rows * per_cycle * iterations / (s + 1)


# ---------------------------------------------------------------------------
# suite

LEVELS = ("low", "mid", "high")


def suite_args(cfg, seed, seconds, quick):
    names = [n for lvl in LEVELS for n in cfg["suite_cases"][lvl]]
    args = ["--mode", "suite", "--seed", str(seed), "--seconds", str(seconds),
            "--cases", ",".join(names)]
    if quick:
        args += ["--min-passes", "2", "--max-passes", "2"]
    return args


def levels(cfg, cases):
    """Case indices of the light/medium/heavy thirds of the suite."""
    index = {c["name"]: i for i, c in enumerate(cases)}
    return {lvl: sorted(index[n] for n in cfg["suite_cases"][lvl]) for lvl in LEVELS}


def level_latencies(cfg, cases, passes):
    """Per level: p50 over every case sample, p99 as the median over passes
    of each pass's 99th percentile (a pass holds one sample per case)."""
    out = {}
    for lvl, members in levels(cfg, cases).items():
        lat = [p["cases"][i]["case_s"] * 1e3 for p in passes for i in members]
        p99 = [pct([p["cases"][i]["case_s"] * 1e3 for i in members], 99) for p in passes]
        out[lvl] = (median(lat), median(p99))
    return out


def suite_check(data, ref, bound):
    """Correctness gate: convergence, true residual, and identical
    iterations + solution hash across passes and against the reference run
    at the other thread count. Returns (attempted, failed, problems)."""
    attempted = failed = 0
    problems = []
    names = [c["name"] for c in data["cases"]]
    refs = [(c["iterations"], c["hash"]) for c in ref["passes"][0]["cases"]]
    for p, ps in enumerate(data["passes"]):
        for i, c in enumerate(ps["cases"]):
            attempted += 1
            why = None
            if not c["converged"]:
                why = "not converged"
            elif c["residual"] is None or not c["residual"] <= bound:
                why = "true residual %r over %g" % (c["residual"], bound)
            elif (c["iterations"], c["hash"]) != refs[i]:
                why = "iterations/hash %s differ from the %d-thread reference %s" % (
                    (c["iterations"], c["hash"]), ref["threads"], refs[i])
            if why:
                failed += 1
                if len(problems) < 10:
                    problems.append("pass %d case %s: %s" % (p, names[i], why))
    return attempted, failed, problems


def suite_metrics(cfg, data, spans, trace):
    cases = data["cases"]
    timed = [p for p in data["passes"] if not p["warmup"]]
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"]]

    def per_pass(passes, key):
        return [sum(c[key] for c in p["cases"]) for p in passes]

    if not trace:
        tts = per_pass(plain, "case_s")
        m = {
            "tts_suite_s": (median(tts), "s"),
            "setup_s": (median([sum(c["symbolic_s"] + c["numeric_s"] for c in p["cases"])
                                for p in plain]), "s"),
            "solve_s": (median(per_pass(plain, "solve_s")), "s"),
            "iters_total": (sum(c["iterations"] for c in plain[0]["cases"]), "count"),
            "peak_rss_mb": (data["peak_rss_mb"], "MB"),
            "max_rate_rps": (len(cases) / median(tts), "1/s"),
        }
        ledger = ["suite: %d cases, %d timed passes (+%d warm-up), tts median %.4f s" % (
            len(cases), len(plain), data["warmup_passes"], median(tts))]
        for lvl, (p50, p99) in level_latencies(cfg, cases, plain).items():
            ledger.append("suite %-4s third: per-case time to solution p50 %.2f ms p99 %.2f ms" % (
                lvl, p50, p99))
        return m, ledger

    # Traced run: per-layer numbers from the traced passes, as medians of
    # per-pass sums; span-derived values are attributed to passes by time.
    sp = Spans(spans)
    bounds = [(p["start_s"], p["start_s"] + p["wall_s"]) for p in traced]

    def pass_of(start):
        for k, (a, b) in enumerate(bounds):
            if a <= start <= b:
                return k
        return None

    nt = len(traced)
    acc = {k: [0.0] * nt for k in (
        "symbolic", "numeric", "apply", "apply_calls", "apply_bytes", "solve_self")}
    apply_bytes = {}
    for p in traced:
        for i, c in enumerate(p["cases"]):
            apply_bytes[i] = c["setup"]["apply_bytes"]
    for sid, name, start, end, parent, req in sp.rows.values():
        k = pass_of(start)
        if k is None:
            continue
        if name == "make_symbolic":
            acc["symbolic"][k] += sp.self_time(sid)
        elif name == "make_preconditioner":
            acc["numeric"][k] += sp.self_time(sid)
        elif name == "apply":
            acc["apply"][k] += sp.self_time(sid)
            acc["apply_calls"][k] += 1
            owner = sp.owner(sid, "solve")
            if owner is not None:
                acc["apply_bytes"][k] += apply_bytes.get(owner[5], 0.0)
        elif name == "solve":
            acc["solve_self"][k] += sp.self_time(sid)

    def tsum(key, sub=None):
        return [sum((c[key] if sub is None else c[sub][key]) for c in p["cases"]) for p in traced]

    spmv = tsum("spmv_s")
    blas1 = tsum("blas1_s")
    orth = tsum("orth_s")
    iters = tsum("iterations")
    solve = tsum("solve_s")
    spmv_calls = [sum(c["iterations"] + 1 for c in p["cases"]) for p in traced]
    spmv_bytes = [sum((c["iterations"] + 1) * cases[i]["spmv_bytes"] for i, c in enumerate(p["cases"]))
                  for p in traced]
    blas1_bytes = [sum(idr_blas1_bytes(cases[i]["rows"], c["iterations"]) for i, c in enumerate(p["cases"]))
                   for p in traced]
    tts_traced = tsum("case_s")
    tts_plain = per_pass(plain, "case_s")
    solver_unattr = [acc["solve_self"][k] - spmv[k] - blas1[k] - orth[k] for k in range(nt)]
    layers = {
        "blocking (make_symbolic)": acc["symbolic"],
        "precond numeric (make_preconditioner)": acc["numeric"],
        "precond apply": acc["apply"],
        "sparse spmv": spmv,
        "blas blas1": blas1,
        "solvers orth": orth,
    }
    # Everything the six layers leave of the traced tts: the solver's own
    # loop (solve self time outside the phase timers) plus the harness.
    attributed = [sum(v[k] for v in layers.values()) for k in range(nt)]
    unattr = [tts_traced[k] - attributed[k] for k in range(nt)]
    setup = lambda key: median(tsum(key, "setup"))
    blocks = setup("blocks")
    factor_mb = median([max(c["setup"]["factor_bytes"] for c in p["cases"]) for p in traced]) / 2**20
    pool = [p["pool"] for p in traced]
    m = {
        "sparse.spmv_s": (median(spmv), "s"),
        "sparse.spmv_calls": (median(spmv_calls), "count"),
        "sparse.spmv_gbs": (sum(spmv_bytes) / max(sum(spmv), 1e-12) / 1e9, "GB/s"),
        "blas.blas1_s": (median(blas1), "s"),
        "blas.blas1_gbs": (sum(blas1_bytes) / max(sum(blas1), 1e-12) / 1e9, "GB/s"),
        "solvers.orth_s": (median(orth), "s"),
        "solvers.iters": (median(iters), "count"),
        "solvers.iter_us": (median(solve) / max(median(iters), 1) * 1e6, "us"),
        "solvers.unattributed_s": (median(solver_unattr), "s"),
        "blocking.supervariable_s": (setup("blocking_s"), "s"),
        "blocking.plan_s": (setup("plan_s"), "s"),
        "blocking.blocks": (blocks, "count"),
        "blocking.mean_block": (setup("block_rows") / max(blocks, 1), "rows"),
        "precond.symbolic_s": (median(acc["symbolic"]), "s"),
        "precond.numeric_s": (median(acc["numeric"]), "s"),
        "precond.gather_s": (setup("gather_s"), "s"),
        "precond.factorize_s": (setup("factorize_s"), "s"),
        "precond.pack_s": (setup("pack_s"), "s"),
        "precond.recovery_s": (setup("recovery_s"), "s"),
        "precond.refresh_s": (0.0, "s"),
        "precond.apply_s": (median(acc["apply"]), "s"),
        "precond.apply_calls": (median(acc["apply_calls"]), "count"),
        "precond.apply_us": (sum(acc["apply"]) / max(sum(acc["apply_calls"]), 1) * 1e6, "us"),
        "precond.apply_gbs": (sum(acc["apply_bytes"]) / max(sum(acc["apply"]), 1e-12) / 1e9, "GB/s"),
        "precond.blocks_ok_frac": (setup("blocks_ok") / max(blocks, 1), "frac"),
        "precond.factor_mb": (factor_mb, "MB"),
        "core.getrf_gflops": (sum(tsum("getrf_flops", "setup")) /
                              max(sum(tsum("factorize_s", "setup")), 1e-12) / 1e9, "GFLOP/s"),
    }
    m.update(pool_metrics(pool, per=nt))
    m.update(zero_service_metrics())
    # Latencies from the untraced passes of this run.
    for lvl, (p50, p99) in level_latencies(cfg, cases, plain).items():
        m["p50_ms." + lvl] = (p50, "ms")
        m["p99_ms." + lvl] = (p99, "ms")
    overhead = median(tts_traced) - median(tts_plain)
    m.update({
        "trace.tts_traced_s": (median(tts_traced), "s"),
        "trace.tts_untraced_s": (median(tts_plain), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.unattributed_s": (median(unattr), "s"),
        "trace.unattributed_frac": (median([unattr[k] / tts_traced[k] for k in range(nt)]), "frac"),
    })
    base = median(tts_traced)
    ledger = ["suite ledger over %d traced passes (%d untraced); shares of traced tts_suite_s = %.4f s:"
              % (nt, len(plain), base)]
    shown = dict(layers)
    shown["solvers unattributed"] = solver_unattr
    shown["harness unattributed (case span self)"] = [u - s for u, s in zip(unattr, solver_unattr)]
    for name, vals in shown.items():
        ledger.append("  %-40s %9.4f s  %6.2f%%" % (name, median(vals), 100 * median(vals) / base))
    ledger.append("  sum of layers = traced tts by construction; tracing overhead %.4f s (%.2f%% of untraced %.4f s)"
                  % (overhead, 100 * overhead / median(tts_plain), median(tts_plain)))
    return m, ledger


def pool_metrics(pool, per):
    busy = sum(p["busy_s"] for p in pool)
    wall = sum(p["wall_s"] * p["workers"] for p in pool)
    return {
        "base.pool_busy_frac": (busy / wall if wall > 0 else 0.0, "frac"),
        "base.pool_steals": (sum(p["steals"] for p in pool) / per, "count"),
        "base.pool_splits": (sum(p["splits"] for p in pool) / per, "count"),
        "base.pool_parks": (sum(p["parks"] for p in pool) / per, "count"),
        "base.pool_inline_runs": (sum(p["inline_runs"] for p in pool) / per, "count"),
    }


SERVICE_LAYER = {
    "service.queue_wait_p50_ms": "ms", "service.queue_wait_p99_ms": "ms",
    "service.refresh_p50_ms": "ms", "service.solve_p50_ms": "ms",
    "service.plan_hit_rate": "frac", "service.rejected": "count",
    "service.peak_depth": "count", "service.gen_lag_p99_ms": "ms",
    "service.backlog_growth": "count",
}


def zero_service_metrics():
    return {name: (0.0, unit) for name, unit in SERVICE_LAYER.items()}


# ---------------------------------------------------------------------------
# service

def service_args(spec, seed, seconds, quick):
    rates = [spec["rates_rps"][k] for k in LEVELS]
    # At least the configured count per rate (1000 puts ten samples beyond
    # the p99), more when --seconds leaves room for them.
    per_rate = max(spec["timed_requests_per_rate"], int(seconds / sum(1.0 / r for r in rates)))
    args = ["--mode", "service", "--seed", str(seed), "--seconds", str(seconds),
            "--tenants", ",".join("%s:%d" % (n, c) for n, c in spec["tenants"]),
            "--rates", ",".join(str(r) for r in rates),
            "--window-requests", str(100 if quick else per_rate),
            "--warmup-requests", str(10 if quick else spec["warmup_requests_per_rate"]),
            "--rounds", str(2 if quick else spec["rounds"])]
    return args


def service_requests(data):
    reqs = [dict(zip(REQUEST_COLUMNS, row)) for row in data["requests"]]
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def service_check(data, reqs, bound):
    """Like suite_check; also returns how many requests admission refused.
    A refusal is a failed operation but not a wrong answer."""
    attempted = failed = rejected = 0
    problems = []
    burst_ref = {}
    for r in reqs:
        attempted += 1
        why = None
        if not r["accepted"]:
            rejected += 1
            failed += 1
            continue
        if r["end"] <= 0:
            why = "completion was never stamped by the e2e-idr solver"
        elif not r["converged"]:
            why = "not converged"
        elif r["residual"] is None or not 0 <= r["residual"] <= bound:
            why = "true residual %r over %g" % (r["residual"], bound)
        elif r["level"] < 0:
            # Every burst round solves the same systems: bitwise repeatable.
            key = (r["iterations"], r["hash"])
            ref = burst_ref.setdefault(r["tenant"], key)
            if key != ref:
                why = "burst solution %s differs from round 0 %s" % (key, ref)
        if why:
            failed += 1
            if len(problems) < 10:
                problems.append("request %d (tenant %d): %s" % (r["id"], r["tenant"], why))
    return attempted, failed, rejected, problems


def depth_at(stream):
    """Outstanding requests (submitted, not completed) as a step function
    of time over the whole stream; returns a lookup for sorted times."""
    events = sorted([(r["submit"], 1) for r in stream] + [(r["end"], -1) for r in stream])

    def lookup(times):
        depth, k, out = 0, 0, []
        for t in times:
            while k < len(events) and events[k][0] <= t:
                depth += events[k][1]
                k += 1
            out.append(depth)
        return out
    return lookup


def service_levels(data, reqs):
    """Per rate: latency percentiles, sent/succeeded/failed, throughput and
    backlog growth over the timed rounds. Every round holds one segment per
    rate; growth is the outstanding count at a segment's last arrival minus
    at its first, averaged over the segments."""
    stream = [r for r in reqs if r["level"] >= 0 and not r["warm"] and r["accepted"]]
    lookup = depth_at(stream)
    out = []
    for lvl, rate in enumerate(data["rates"]):
        rs = [r for r in reqs if r["level"] == lvl and not r["warm"]]
        ok = [r for r in rs if r["accepted"]]
        lat = [(r["end"] - r["due"]) * 1e3 for r in ok]
        # A refused request misses every latency limit.
        lat_all = lat + [float("inf")] * (len(rs) - len(ok))
        busy = growth = 0.0
        rounds = sorted({r["round"] for r in ok})
        for rnd in rounds:
            seg = [r for r in ok if r["round"] == rnd]
            first, last = min(r["due"] for r in seg), max(r["due"] for r in seg)
            busy += max(r["end"] for r in seg) - first
            d0, d1 = lookup([first, last])
            growth += d1 - d0
        out.append({
            "level": LEVELS[lvl], "rate": rate, "sent": len(rs),
            "succeeded": len(ok), "failed": len(rs) - len(ok),
            "p50": statistics.quantiles(lat_all, n=100)[49],
            "p99": statistics.quantiles(lat_all, n=100)[98],
            "throughput": len(ok) / busy if busy > 0 else 0.0,
            "growth": growth / max(len(rounds), 1),
        })
    return out


def service_metrics(data, reqs, spans, spec, trace):
    wins = service_levels(data, reqs)
    limit = spec["p99_limit_ms"]
    rounds = len(data["burst_s"])
    per_round = [[r for r in reqs if r["level"] < 0 and r["round"] == k] for k in range(rounds)]
    nt = len(data["tenants"])
    plain = [k for k in range(1, rounds) if not data["burst_traced"][k]]
    traced = [k for k in range(1, rounds) if data["burst_traced"][k]]
    ledger = []
    for w in wins:
        ledger.append("service %-4s %6.1f rps: sent %d succeeded %d failed %d, p50 %.2f ms p99 %.2f ms, "
                      "throughput %.1f rps, backlog growth %.2f" % (
                          w["level"], w["rate"], w["sent"], w["succeeded"], w["failed"], w["p50"],
                          w["p99"], w["throughput"], w["growth"]))
    if not trace:
        growth_limit = 0.05 * data["segment_requests"]
        passing = [w for w in wins if w["p99"] <= limit and w["growth"] <= growth_limit]
        m = {
            "tts_suite_s": (median([data["burst_s"][k] for k in plain]), "s"),
            "setup_s": (median(data["onboard_s"][1:]), "s"),
            "solve_s": (median([sum(r["solve_s"] for r in per_round[k]) for k in plain]), "s"),
            "iters_total": (sum(r["iterations"] for r in per_round[0]), "count"),
            "peak_rss_mb": (data["peak_rss_mb"], "MB"),
            "max_rate_rps": (passing[-1]["throughput"] if passing else 0.0, "1/s"),
        }
        ledger.append("service: %d tenants, %d timed rounds (+1 warm-up) of onboarding, burst and one "
                      "%d-request segment per rate; %d untraced bursts; p99 limit %g ms" % (
                          nt, rounds - 1, data["segment_requests"], len(plain), limit))
        return m, ledger

    sp = Spans(spans)
    tenants = data["tenants"]
    timed = [r for r in reqs if r["level"] >= 0 and not r["warm"] and r["accepted"]]
    timed_ids = {r["id"] for r in timed}
    by_id = {r["id"]: r for r in reqs}
    s = {k: 0.0 for k in ("apply", "apply_calls", "apply_bytes", "solve_self", "refresh", "queue",
                          "lag", "request_self", "request", "numeric")}
    for sid, name, start, end, parent, req in sp.rows.values():
        if name == "make_preconditioner":
            s["numeric"] += end - start
            continue
        if name == "apply":
            owner = sp.owner(sid, "solve")
            req = owner[5] if owner is not None else -1
        if req not in timed_ids:
            continue
        if name == "apply":
            s["apply"] += sp.self_time(sid)
            s["apply_calls"] += 1
            s["apply_bytes"] += tenants[by_id[req]["tenant"]]["apply_bytes"]
        elif name == "solve":
            s["solve_self"] += sp.self_time(sid)
        elif name == "refresh":
            s["refresh"] += sp.self_time(sid)
        elif name == "queue_wait":
            s["queue"] += end - start
        elif name == "gen_lag":
            s["lag"] += end - start
        elif name == "request":
            s["request_self"] += sp.self_time(sid)
            s["request"] += end - start
    tot = lambda key: sum(r[key] for r in timed)
    spmv, blas1, orth = tot("spmv_s"), tot("blas1_s"), tot("orth_s")
    iters = tot("iterations")
    solver_unattr = s["solve_self"] - spmv - blas1 - orth
    st = data["setup"]
    sc = data["counters"]
    eng = data["engine"]
    refreshed = [r for r in timed if r["has_values"]]
    refresh_flops = sum(tenants[r["tenant"]]["getrf_flops"] for r in refreshed)
    m = {
        "sparse.spmv_s": (spmv, "s"),
        "sparse.spmv_calls": (sum(r["iterations"] + 1 for r in timed), "count"),
        "sparse.spmv_gbs": (sum((r["iterations"] + 1) * tenants[r["tenant"]]["spmv_bytes"] for r in timed)
                            / max(spmv, 1e-12) / 1e9, "GB/s"),
        "blas.blas1_s": (blas1, "s"),
        "blas.blas1_gbs": (sum(idr_blas1_bytes(tenants[r["tenant"]]["rows"], r["iterations"]) for r in timed)
                           / max(blas1, 1e-12) / 1e9, "GB/s"),
        "solvers.orth_s": (orth, "s"),
        "solvers.iters": (iters, "count"),
        "solvers.iter_us": (tot("solve_s") / max(iters, 1) * 1e6, "us"),
        "solvers.unattributed_s": (solver_unattr, "s"),
        "blocking.supervariable_s": (sc["blocking_s"], "s"),
        "blocking.plan_s": (sc["plan_s"], "s"),
        "blocking.blocks": (st["blocks"], "count"),
        "blocking.mean_block": (st["block_rows"] / max(st["blocks"], 1), "rows"),
        "precond.symbolic_s": (sc["blocking_s"] + sc["plan_s"], "s"),
        "precond.numeric_s": (s["numeric"] / max(len(data["onboard_s"]), 1), "s"),
        "precond.gather_s": (sc["gather_s"], "s"),
        "precond.factorize_s": (sc["factorize_s"], "s"),
        "precond.pack_s": (sc["pack_s"], "s"),
        "precond.recovery_s": (sc["recovery_s"], "s"),
        "precond.refresh_s": (tot("refresh_s"), "s"),
        "precond.apply_s": (s["apply"], "s"),
        "precond.apply_calls": (s["apply_calls"], "count"),
        "precond.apply_us": (s["apply"] / max(s["apply_calls"], 1) * 1e6, "us"),
        "precond.apply_gbs": (s["apply_bytes"] / max(s["apply"], 1e-12) / 1e9, "GB/s"),
        "precond.blocks_ok_frac": (st["blocks_ok"] / max(st["blocks"], 1), "frac"),
        "precond.factor_mb": (st["factor_bytes"] / 2**20, "MB"),
        "core.getrf_gflops": (refresh_flops / max(sc["factorize_s"], 1e-12) / 1e9, "GFLOP/s"),
    }
    m.update(pool_metrics([data["pool"]], per=1))
    for w in wins:
        m["p50_ms." + w["level"]] = (w["p50"], "ms")
        m["p99_ms." + w["level"]] = (w["p99"], "ms")
    qw = [r["queue_s"] * 1e3 for r in timed]
    m.update({
        "service.queue_wait_p50_ms": (statistics.quantiles(qw, n=100)[49], "ms"),
        "service.queue_wait_p99_ms": (statistics.quantiles(qw, n=100)[98], "ms"),
        "service.refresh_p50_ms": (median([r["refresh_s"] * 1e3 for r in refreshed]), "ms"),
        "service.solve_p50_ms": (median([r["solve_s"] * 1e3 for r in timed]), "ms"),
        "service.plan_hit_rate": (eng["plan_reuses"] / max(eng["plan_reuses"] + eng["plan_builds"], 1), "frac"),
        "service.rejected": (eng["rejected"], "count"),
        "service.peak_depth": (eng["peak_depth"], "count"),
        "service.gen_lag_p99_ms": (statistics.quantiles([(r["submit"] - r["due"]) * 1e3 for r in timed],
                                                        n=100)[98], "ms"),
        "service.backlog_growth": (max(w["growth"] for w in wins), "count"),
    })
    tts_traced = median([data["burst_s"][k] for k in traced])
    tts_plain = median([data["burst_s"][k] for k in plain])
    unattr = solver_unattr + s["request_self"]
    base = s["request"]
    m.update({
        "trace.tts_traced_s": (tts_traced, "s"),
        "trace.tts_untraced_s": (tts_plain, "s"),
        "trace.overhead_s": (tts_traced - tts_plain, "s"),
        "trace.unattributed_s": (unattr, "s"),
        "trace.unattributed_frac": (unattr / base if base > 0 else 0.0, "frac"),
    })
    ledger.append("service ledger over %d timed requests; shares of their summed latency = %.4f s:"
                  % (len(timed), base))
    layers = {
        "generator lag (harness)": s["lag"], "service queue wait": s["queue"],
        "precond refresh": s["refresh"], "precond apply": s["apply"], "sparse spmv": spmv,
        "blas blas1": blas1, "solvers orth": orth, "solvers unattributed": solver_unattr,
        "service dispatch (request span self)": s["request_self"],
    }
    for name, val in layers.items():
        ledger.append("  %-40s %9.4f s  %6.2f%%" % (name, val, 100 * val / base if base else 0.0))
    ledger.append("  burst tts traced %.4f s vs untraced %.4f s: tracing overhead %.4f s"
                  % (tts_traced, tts_plain, tts_traced - tts_plain))
    return m, ledger


# ---------------------------------------------------------------------------
# entry points

def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_workload(exe, name, seed, seconds, trace, quick=False):
    cfg = load_json(os.path.join(HERE, "workloads.json"))
    spec = cfg["workloads"].get(name)
    if spec is None:
        raise SystemExit("bench_e2e: unknown workload %r (known: %s)" % (
            name, ", ".join(sorted(cfg["workloads"]))))
    bound = cfg["protocol"]["residual_bound"]
    if spec["mode"] == "suite":
        args = suite_args(cfg, seed, seconds, quick)
        ref_args = args + ["--warmup", "0", "--min-passes", "1", "--max-passes", "1"]
        ref, _ = run_e2e_bench(exe, spec["reference_threads"], ref_args, trace=False)
        data, spans = run_e2e_bench(exe, spec["threads"], args, trace)
        attempted, failed, problems = suite_check(data, ref, bound)
        rejected = 0
        metrics, ledger = suite_metrics(cfg, data, spans, trace)
    else:
        args = service_args(spec, seed, seconds, quick)
        data, spans = run_e2e_bench(exe, spec["threads"], args, trace)
        reqs = service_requests(data)
        attempted, failed, rejected, problems = service_check(data, reqs, bound)
        metrics, ledger = service_metrics(data, reqs, spans, spec, trace)
    ledger.insert(0, "workload %s seed %d threads %d trace %d" % (name, seed, data["threads"], trace))
    ledger.append("correctness: %d operations, %d failed (failed_frac %.6g; %d refused at admission)"
                  % (attempted, failed, failed / attempted, rejected))
    ledger.extend("  FAILED " + p for p in problems)
    return {
        "correct": failed == rejected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, ledger


def self_check(exe):
    """Run every workload once, untraced and traced, with minimal passes,
    and check that each metric BENCHMARK.json names is emitted with its
    unit."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ok = True
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, ledger = run_workload(exe, w["name"], 1, 1, trace, quick=True)
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            units = sorted(n for n in want if n in got and got[n]["unit"] != want[n])
            status = result["correct"] and not missing and not extra and not units
            ok = ok and status
            print("%-14s trace=%d %s  attempted=%d failed=%d missing=%s extra=%s unit-mismatch=%s" % (
                w["name"], trace, "ok" if status else "FAIL", result["attempted"], result["failed"],
                missing, extra, units))
            if not status:
                print("\n".join(ledger))
    print("self-check %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload once in a short mode and check the metric names")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    exe = build()
    if args.self_check:
        return self_check(exe)
    result, ledger = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(ledger))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
