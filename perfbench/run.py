"""Benchmark of tdpair121: four closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload battery_qq --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` and the independent oracle from `tests/oracle.py`.  With
`--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics, with times scaled to a fixed machine speed (speed.py);
with `--trace 1` it holds the per-layer metrics from a traced run.  Spans, failures and the environment go to
`.perfbench_out/`.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import importlib
import io
import json
import math
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import probes
import speed
import workloads
from tracer import Tracer, merge, summarise

WORKLOADS = ("battery_qq", "battery_gf101", "verify_wide", "cli_mix")
SETUP_REPEATS = 7
WARMUP_OPS = {"battery_qq": 3, "battery_gf101": 3, "verify_wide": 8, "cli_mix": 0}
# A run must end within 180 s: the loop stops at LOOP_LIMIT_S even short of
# MIN_OPS, and probes still pending at PROBE_DEADLINE_S count as capped.
LOOP_LIMIT_S = 120.0
PROBE_DEADLINE_S = 165.0
FLOOR_REPEATS = 9
SPAN_DUMP_OPS = 3
PROFILED_OPS = 2
OPERAND_INPUTS = 8


def make_workload(name, oracle, root, workdir):
    if name == "battery_qq":
        return workloads.Battery(name, 0, oracle)
    if name == "battery_gf101":
        return workloads.Battery(name, 101, oracle)
    if name == "verify_wide":
        return workloads.VerifyWide(oracle)
    return workloads.CliMix(oracle, root, os.path.join(workdir, "inputs"))


def run_child(root, cmd, **kwargs):
    """subprocess.run in the checkout, with its src/ on the path."""
    return subprocess.run(cmd, cwd=root, env=workloads.child_env(root), **kwargs)


def environment(root):
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}


# -- set-up --------------------------------------------------------------------------

def setup_child(args, root):
    """Time one set-up in this fresh process: import plus building inputs."""
    oracle = workloads.load_oracle(root)
    wl = make_workload(args.workload, oracle, root, args.setup_child)
    raws = wl.raw_inputs(f"{args.seed}/timed", 0, wl.pool_size)
    t0 = perf_counter()
    import tdpair121 as api

    wl.build(api, raws)
    print(repr(perf_counter() - t0))
    return 0


def timed_setups(args, root, workdir):
    """Set-up seconds of each child, and speed samples taken around them."""
    script = os.path.abspath(__file__)
    speed.warm()
    out, kernels = [], [speed.sample()]
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, script, "--workload", args.workload, "--seed", str(args.seed),
               "--setup-child", os.path.join(workdir, f"setup{k}")]
        proc = run_child(root, cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
        kernels.append(speed.sample())
    return out, kernels


# -- the closed loop -----------------------------------------------------------------

class Run:
    def __init__(self, wl, api, seed, workdir, traced):
        self.wl, self.api, self.seed, self.workdir = wl, api, seed, workdir
        self.traced = traced
        self.inputs = []
        self.refs = {}
        self.failures = []
        self.tracer = Tracer() if traced else None
        self.span_totals = {}
        self.span_dump = []
        self.records = []  # (index, traced, seconds, ok)
        self.kernels = []  # speed samples; kernels[i] just before operation i
        self.rss_at_min_ops = None
        self.child_rss = []

    def item(self, i):
        wl = self.wl
        k = i % wl.pool_size if wl.reuses_inputs else i
        while k >= len(self.inputs):
            raws = wl.raw_inputs(f"{self.seed}/timed", len(self.inputs), wl.pool_size)
            self.inputs += list(zip(raws, wl.build(self.api, raws)))
        raw, inp = self.inputs[k]
        ref = self.refs.get(k)
        if ref is None:
            ref = wl.reference(raw)
            if wl.reuses_inputs:
                self.refs[k] = ref
        return inp, ref

    def one(self, inp, ref, traced, label):
        """Run and check one operation; returns (seconds, ok)."""
        wl = self.wl
        cli = isinstance(wl, workloads.CliMix)
        options = {}
        if traced and cli:
            options = {"summary": os.path.join(self.workdir, "cli_summary.json"),
                       "keep_spans": len(self.span_dump) < SPAN_DUMP_OPS}
        elif traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            result, error = wl.run(self.api, inp, **options), None
        except Exception as exc:  # a failing operation is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if traced and cli:
            self._add_child_spans(options["summary"], label)
        elif traced:
            self.tracer.uninstall()
            self._add_spans(self.tracer.take_spans(), label)
        if cli and result is not None:
            _, _, rss_kib, elapsed = result
            self.child_rss.append(rss_kib)
        if error is None:
            try:
                wl.check(result, ref)
            except workloads.Failure as exc:
                error = str(exc)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append({"op": label, "error": error})
            print(f"FAIL op {label}: {error}", file=sys.stderr)
        return elapsed, error is None

    def _add_spans(self, spans, label):
        merge(self.span_totals, summarise(spans))
        if len(self.span_dump) < SPAN_DUMP_OPS:
            self.span_dump.append({"op": label, "spans": spans})

    def _add_child_spans(self, path, label):
        if not os.path.exists(path):  # the child failed before writing it
            return
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(path)
        merge(self.span_totals, doc["summary"])
        if "spans" in doc:
            self.span_dump.append({"op": label, "spans": doc["spans"]})

    def warm(self, count):
        raws = self.wl.raw_inputs(f"{self.seed}/warmup", 0, count)
        for n, (raw, inp) in enumerate(zip(raws, self.wl.build(self.api, raws))):
            self.one(inp, self.wl.reference(raw), False, f"warmup-{n}")

    def loop(self, seconds):
        wl = self.wl
        min_ops = 2 * wl.cycle if self.traced else workloads.MIN_OPS
        speed.warm()
        self.kernels.append(speed.sample())
        start = perf_counter()
        i = 0
        while True:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and i >= min_ops) or elapsed >= LOOP_LIMIT_S:
                break
            inp, ref = self.item(i)
            traced = self.traced and (i // wl.cycle) % 2 == 1
            dt, ok = self.one(inp, ref, traced, i)
            self.records.append((i, traced, dt, ok))
            self.kernels.append(speed.sample())
            i += 1
            if i == workloads.MIN_OPS:
                self.rss_at_min_ops = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- metrics -------------------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(run, setups, setup_kernels):
    """The six end-to-end metrics on speed-scaled times, and the same
    timings as raw wall-clock figures."""
    good = [ok for *_, ok in run.records]
    wall = [dt for _, _, dt, _ in run.records]
    setup_wall = statistics.median(setups)
    if isinstance(run.wl, workloads.CliMix):
        rss_kib = max(run.child_rss)
    else:
        rss_kib = run.rss_at_min_ops or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def timings(lat, setup_s):
        return {
            "setup_s": (setup_s, "s"),
            "throughput_ops_s": (sum(good) / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        }

    metrics = timings(speed.scaled(wall, run.kernels),
                      setup_wall * speed.REFERENCE_S / statistics.median(setup_kernels))
    metrics["success_rate"] = (sum(good) / len(good), "ratio")
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    return metrics, {k: v for k, (v, _) in timings(wall, setup_wall).items()}


def span_metrics(totals, n_ops):
    def rec(name):
        return totals.get(name, (0, 0.0, 0.0))

    def per_op_calls(name):
        return rec(name)[0] / n_ops

    def per_op_ms(*names):
        return sum(rec(x)[1] for x in names) / n_ops * 1e3

    def per_call_us(name):
        calls, incl, _ = rec(name)
        return incl / calls * 1e6 if calls else 0.0

    def layer(prefix, field):
        return sum(r[field] for name, r in totals.items() if name.startswith(prefix + "."))

    out = {}
    for mod in ("linalg", "tdsystem", "params", "bases"):
        out[f"{mod}.self_ms"] = (layer(mod, 2) / n_ops * 1e3, "ms")
    out["linalg.calls"] = (layer("linalg", 0) / n_ops, "count")
    out["bases.calls"] = (layer("bases", 0) / n_ops, "count")
    for short, name in (("matmul", "Matrix.__mul__"), ("invert", "Matrix.invert"),
                        ("kernel", "Matrix.kernel"), ("det", "Matrix.det"),
                        ("idempotents", "primitive_idempotents"), ("charpoly", "charpoly"),
                        ("poly_roots", "poly_roots"), ("eigen_data", "eigen_data")):
        out[f"linalg.{short}.calls"] = (per_op_calls(f"linalg.{name}"), "count")
        out[f"linalg.{short}.us"] = (per_call_us(f"linalg.{name}"), "us")
    out["linalg.subspace_sum.calls"] = (per_op_calls("linalg.Subspace.__add__"), "count")
    out["linalg.subspace_meet.calls"] = (per_op_calls("linalg.Subspace.__and__"), "count")
    out["tdsystem.verify.ms"] = (per_op_ms("tdsystem.verify_td_system"), "ms")
    out["tdsystem.invariant_search.ms"] = (per_op_ms("tdsystem.common_invariant_subspace"), "ms")
    out["tdsystem.invariant_search.calls"] = (
        per_op_calls("tdsystem.common_invariant_subspace"), "count")
    out["tdsystem.find_orderings.ms"] = (per_op_ms("tdsystem.find_td_orderings"), "ms")
    out["tdsystem.hash.calls"] = (per_op_calls("tdsystem.TDSystem.__hash__"), "count")
    out["tdsystem.hash.us"] = (per_call_us("tdsystem.TDSystem.__hash__"), "us")
    out["params.construct.ms"] = (per_op_ms("params.construct"), "ms")
    out["params.admissible.us"] = (per_call_us("params.admissible"), "us")
    out["params.extract.ms"] = (per_op_ms("params.extract_parameter_array"), "ms")
    out["bases.eta.ms"] = (per_op_ms("bases.eta_vectors"), "ms")
    out["bases.numeric42.ms"] = (per_op_ms("bases.represent", "bases.transition_numeric"), "ms")
    out["bases.formula42.ms"] = (
        per_op_ms("bases.represent_formula", "bases.transition_formula"), "ms")
    return out


def overhead(run):
    """Traced over untraced wall time, minus 1, summed over cycle positions
    so that both sides weigh every input class alike."""
    cycle = run.wl.cycle
    sums = {}
    for i, traced, dt, _ in run.records:
        acc = sums.setdefault((i % cycle, traced), [0.0, 0])
        acc[0] += dt
        acc[1] += 1
    traced_t = untraced_t = 0.0
    for pos in range(cycle):
        t, u = sums.get((pos, True)), sums.get((pos, False))
        if t and u:
            traced_t += t[0] / t[1]
            untraced_t += u[0] / u[1]
    return traced_t / untraced_t - 1.0 if untraced_t else 0.0


def micro_ns(matrices):
    """ns per scalar mul, add and div on operand pairs drawn from the
    workload's own matrices (pairs share a matrix, hence a field)."""
    rng = random.Random(0)
    per_matrix = [[x for row in m.rows for x in row if not x.is_zero] for m in matrices]
    per_matrix = [entries for entries in per_matrix if entries]
    pairs = []
    for _ in range(256):
        entries = rng.choice(per_matrix)
        pairs.append((rng.choice(entries), rng.choice(entries)))
    reps = 20

    def batch(kind):
        t0 = perf_counter()
        for _ in range(reps):
            if kind == "mul":
                for a, b in pairs:
                    a * b
            elif kind == "add":
                for a, b in pairs:
                    a + b
            elif kind == "div":
                for a, b in pairs:
                    a / b
            else:
                for a, b in pairs:
                    pass
        return (perf_counter() - t0) / (reps * len(pairs)) * 1e9

    out = {}
    base = statistics.median(batch("none") for _ in range(5))
    for kind in ("mul", "add", "div"):
        out[f"fields.{kind}_ns"] = (statistics.median(batch(kind) for _ in range(5)) - base, "ns")
    return out


def fields_profile_share(run):
    """Share of self time spent in scalar arithmetic (fields.py and the
    fractions module) under cProfile, on fresh inputs."""
    wl, api = run.wl, run.api
    prof = cProfile.Profile()
    if isinstance(wl, workloads.CliMix):
        argv = next(inp[1] for _, inp in run.inputs if inp[1][0] == "report")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            prof.runcall(importlib.import_module("tdpair121.cli").main, argv)
    else:
        raws = wl.raw_inputs(f"{run.seed}/profile", 0, PROFILED_OPS)
        for inp in wl.build(api, raws):
            prof.runcall(wl.run, api, inp)
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    arith = sum(v[2] for (path, _, _), v in stats.items()
                if path.endswith(os.path.join("tdpair121", "fields.py"))
                or path.endswith("fractions.py"))
    return arith / total if total else 0.0


def cli_floors(root):
    """Bare interpreter start, and `import tdpair121.cli` above it.  The two
    kinds of child alternate, so both see the same machine."""
    times = {"pass": [], "import tdpair121.cli": []}
    for _ in range(FLOOR_REPEATS):
        for code, samples in times.items():
            t0 = perf_counter()
            run_child(root, [sys.executable, "-c", code], check=True, timeout=60)
            samples.append(perf_counter() - t0)
    interp = statistics.median(times["pass"])
    imported = statistics.median(times["import tdpair121.cli"])
    return {"cli.interp_ms": (interp * 1e3, "ms"),
            "cli.import_ms": ((imported - interp) * 1e3, "ms")}


def cli_subcommands(run):
    out = {f"cli.{sub}.ms": [] for sub in ("report_full", "verify", "verify_search",
                                           "construct", "enumerate")}
    if isinstance(run.wl, workloads.CliMix):
        for i, traced, dt, _ in run.records:
            if not traced:
                out[f"cli.{workloads.CLI_MIX[i % run.wl.cycle][1]}.ms"].append(dt * 1e3)
    return {k: (statistics.median(v) if v else 0.0, "ms") for k, v in out.items()}


def run_probes(root, started):
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probes.py")
    out, capped = {}, []
    for name, kind, arg in probes.PROBES:
        t0 = perf_counter()
        budget = min(probes.CAP_S, started + PROBE_DEADLINE_S - t0)
        try:
            if budget <= 0:
                raise subprocess.TimeoutExpired(kind, 0)
            proc = run_child(root, [sys.executable, script, kind, str(arg)],
                             capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            out[f"probe.{name}.s"] = (perf_counter() - t0, "s")
            capped.append(name)
            continue
        if proc.returncode != 0:
            raise RuntimeError(f"probe {name} failed: {proc.stderr.strip()}")
        out[f"probe.{name}.s"] = (float(proc.stdout.strip()), "s")
    return out, capped


# -- main ----------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = os.getcwd()
    for need in (os.path.join("src", "tdpair121", "__init__.py"),
                 os.path.join("tests", "oracle.py")):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: run from a tdpair121 source checkout; {need} is missing",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.setup_child:
        return setup_child(args, root)

    # One CPU for this process and every child it starts, so that the speed
    # samples and the operations they scale run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = environment(root)
    workdir = os.path.join(root, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # one untimed child first, so bytecode caches exist as for installed users
    run_child(root, [sys.executable, "-c", "import tdpair121.cli"], check=True, timeout=120)
    setups, setup_kernels = ([], []) if args.trace else timed_setups(args, root, workdir)

    oracle = workloads.load_oracle(root)
    wl = make_workload(args.workload, oracle, root, workdir)
    import tdpair121 as api

    run = Run(wl, api, args.seed, workdir, traced=bool(args.trace))
    run.item(0)  # build the input pool before any timing
    run.warm(WARMUP_OPS[args.workload])
    warm_failures = len(run.failures)
    run.loop(args.seconds)

    attempted = len(run.records)
    failed = sum(1 for *_, good in run.records if not good)
    if args.trace:
        traced_ops = sum(1 for _, traced, _, _ in run.records if traced)
        metrics = span_metrics(run.span_totals, max(traced_ops, 1))
        traced_lat = [dt for _, traced, dt, _ in run.records if traced]
        metrics["trace.op_ms"] = (statistics.mean(traced_lat) * 1e3 if traced_lat else 0.0, "ms")
        metrics["trace.overhead_frac"] = (overhead(run), "ratio")
        metrics["machine.kernel_us"] = (statistics.median(run.kernels) * 1e6, "us")
        metrics.update(micro_ns(wl.operands(api, run.inputs[:OPERAND_INPUTS])))
        metrics["fields.profile_share"] = (fields_profile_share(run), "ratio")
        metrics.update(cli_floors(root))
        metrics.update(cli_subcommands(run))
        probe_metrics, capped = run_probes(root, started)
        metrics.update(probe_metrics)
        env["probes_capped"] = capped
    else:
        metrics, env["wall_clock"] = end_to_end(run, setups, setup_kernels)
    env["loadavg_end"] = os.getloadavg()

    result = {
        "correct": failed == 0 and warm_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "setup_samples_s": setups,
                   "speed_samples_s": run.kernels,
                   "failures": run.failures, "records": run.records, "result": result,
                   "span_totals": run.span_totals, "spans": run.span_dump}, fh)
    print(json.dumps({"environment": env, "samples": attempted,
                      "detail": os.path.relpath(workdir, root)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
