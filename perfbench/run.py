#!/usr/bin/env python3
"""bogoflow benchmark: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Each workload is a single-process closed loop: the caller waits for each
result before it sends the next input.

  certify  ``cli.main(["--mode", "sweep", ...])`` over a seeded grid of 3
           even N in [1e4, 4e4] x 2 epsilon in [0.005, 0.05], with
           --workers = usable CPUs.  The batch interface; the exact
           oracle takes most of each point.
  root     ``solve_fixed_point`` without the oracle, then
           ``expand_ground_state``, on 2 seeded points with even N in
           [2e5, 4e5] and epsilon in [0.005, 0.05].  The flow does the
           work; the oracle never runs.

Sizes are drawn log-uniformly, one per stratum of the range (see
stratified_log_uniform).
  verify   ``cli.main(["--mode", "verify"])`` with the default battery.
           The seed has no effect.  Thousands of small calls, and the only
           workload that reaches ``sequences``.
  all      the three in turn in one process, for reading rather than for
           comparing runs (peak_rss_mb is then the process peak so far).

The workload repeats its inputs while the longest pass so far still fits in
--seconds (at least one pass).  With --trace 0 it prints the end-to-end metrics:

  setup_s          median wall time of fresh processes that import bogoflow
                   and run ``_kernels.warmup()``
  wall_per_unit_s  median over passes of the wall seconds per unit of work:
                   certify, one sweep point at N = 2e4 (sweep wall x 2e4 /
                   sum of N over the grid, the inverse of points per second);
                   root, one solve + expand at N = 3e5 (point wall x 3e5 / N);
                   verify, one battery.  Every stage of a point is O(N), so
                   scaling by N keeps the seeded sizes from moving the metric.
  peak_rss_mb      peak resident set size of the process after the loop

With --trace 1 the workload runs half the time untraced and half traced by
an outside-in tracer (``tracer.py``) and prints the per-layer metrics of the
traced half, per unit of work (sweep point, point or battery).

Every output is checked outside the timed region against scipy's LAPACK
tridiagonal eigensolver, which shares no code with bogoflow's oracle.  A miss
or a raised error counts as failed, is never retried, and makes the command
exit 1.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a record with run metadata, the generated
inputs and the raw samples goes to .perfbench_out/.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
import scipy
from scipy.linalg import eigh_tridiagonal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import Tracer, count_under, function_stats, self_times  # noqa: E402

WORKLOADS = ("certify", "root", "verify")

# Tolerances of acceptance criteria 1 (|z* - lambda0|) and 3 (overlap).
Z_TOL = 1e-10
OVERLAP_TOL = 1e-9

SETUP_RUNS = 3

SIZES = {
    "certify": {"n": (1e4, 4e4), "n_count": 3, "eps": (0.005, 0.05), "eps_count": 2, "n_ref": 2e4},
    "root": {"n": (2e5, 4e5), "count": 2, "eps": (0.005, 0.05), "n_ref": 3e5},
    "verify": {"argv": []},
}

# Check functions of each suite of verify.run_all, in the order it runs them.
VERIFY_SUITES = {
    "cf": ("check_cf_equivalence",),
    "flow": (
        "check_flow_monotonicity",
        "check_w_bound",
        "check_g_lower_bound_link",
        "check_fixed_point_uniqueness",
    ),
    "sequences": (
        "check_x_bounds",
        "check_xtilde_bounds",
        "check_y_closed_residual",
        "check_accessori",
        "check_coefficient_identities",
    ),
    "spectrum": (
        "check_flow_oracle",
        "check_zstar_upper_bound",
        "check_gap_bound",
        "check_ebog_convergence",
    ),
    "groundstate": ("check_overlap", "check_truncation_decay"),
}

# Layers whose share of traced time is reported.  Time in _kernels counts
# toward the layer that called the kernel.  cli is left out: in a threaded
# sweep its spans on the main thread only wait for the workers.
LAYERS = ("model", "flow", "spectrum", "oracle", "groundstate", "sequences", "verify")

END_TO_END_UNITS = {"setup_s": "s", "wall_per_unit_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------- inputs

def stratified_log_uniform(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """count draws, the i-th log-uniform in the i-th of count equal log-width
    strata of [lo, hi].  Every seed then spans the whole range, and the total
    work of a grid varies far less between seeds than with plain draws."""
    width = (math.log(hi) - math.log(lo)) / count
    return [math.exp(math.log(lo) + width * (i + rng.random())) for i in range(count)]


def even(x: float) -> int:
    # ModelParams rejects odd N, so every draw is rounded to even.  N reaches
    # the CLI as an explicit comma list: the start:stop:factor grid syntax
    # cannot express a seeded draw.  That syntax can also produce odd N, a
    # defect that stays open in the CLI and that this choice does not hide.
    return 2 * round(x / 2)


# ---------------------------------------------------------- correctness gate

def reference_pair(oracle, params):
    """Lowest eigenpair of the sector matrix from LAPACK stebz + stein."""
    tri = oracle.build_sector_hamiltonian(params)
    # tol is passed because stebz's default stops near eps*|T|, about 1e-11
    # at N = 1e6, which would use up most of Z_TOL.
    w, v = eigh_tridiagonal(tri.diag, tri.offdiag, select="i", select_range=(0, 0), tol=1e-15)
    return float(w[0]), v[:, 0]


def gate(z_star: float, overlap: float, lambda0: float) -> str:
    """Empty string if the point passes, else the reason it does not."""
    if not abs(z_star - lambda0) <= Z_TOL:
        return f"|z* - lambda0| = {abs(z_star - lambda0):.3e} > {Z_TOL:g}"
    if not overlap >= 1.0 - OVERLAP_TOL:
        return f"1 - overlap = {1.0 - overlap:.3e} > {OVERLAP_TOL:g}"
    return ""


# ------------------------------------------------------------- workloads

@dataclass
class Pass:
    wall_s: float  # wall time of the program calls alone
    unit_s: float  # wall_s scaled to one unit of work at the nominal size
    output: Any = None  # what the gate checks
    error: str = ""  # exception the program raised, if any


def quiet_call(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Certify:
    unit = "sweep point"

    def __init__(self, prog, seed: int, sizes: dict):
        rng = random.Random(seed)
        self.prog = prog
        self.n_values = [even(x) for x in stratified_log_uniform(rng, *sizes["n"], sizes["n_count"])]
        self.eps_values = stratified_log_uniform(rng, *sizes["eps"], sizes["eps_count"])
        self.grid = [(n, eps) for n in self.n_values for eps in self.eps_values]
        self.workers = len(os.sched_getaffinity(0))
        self.scale = sizes["n_ref"] / sum(n for n, _ in self.grid)
        self.out = OUT / "certify"
        self.argv = [
            "--mode", "sweep",
            "--n", ",".join(str(n) for n in self.n_values),
            "--epsilon", ",".join(repr(e) for e in self.eps_values),
            "--workers", str(self.workers),
            "--out", str(self.out),
        ]

    def inputs(self) -> dict:
        return {"n": self.n_values, "epsilon": self.eps_values, "workers": self.workers, "argv": self.argv}

    def units(self, passes) -> int:
        return len(self.grid) * len(passes)

    def one_pass(self, index: int) -> Pass:
        csv_path = self.out / "results.csv"
        csv_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            quiet_call(self.prog.cli.main, self.argv)
        except Exception as exc:  # counted as failed by check()
            return Pass(time.perf_counter() - t0, math.nan, error=repr(exc))
        wall = time.perf_counter() - t0
        rows = {}
        if csv_path.exists():
            with open(csv_path, newline="") as fh:
                rows = {(int(r["n"]), float(r["epsilon"])): r for r in csv.DictReader(fh)}
        return Pass(wall, wall * self.scale, rows)

    def check(self, passes):
        refs = {
            (n, eps): reference_pair(self.prog.oracle, self.prog.model.ModelParams(n_particles=n, epsilon=eps))[0]
            for n, eps in self.grid
        }
        misses = []
        for p in passes:
            for point in self.grid:
                row = (p.output or {}).get(point)
                if p.error or row is None or row["status"] != "ok":
                    why = p.error or (row["status"] if row else "no row")
                else:
                    why = gate(float(row["z_star"]), float(row["overlap"]), refs[point])
                if why:
                    misses.append(f"{point}: {why}")
        return len(self.grid) * len(passes), misses


class Root:
    unit = "point"

    def __init__(self, prog, seed: int, sizes: dict):
        rng = random.Random(seed)
        self.prog = prog
        n_values = [even(x) for x in stratified_log_uniform(rng, *sizes["n"], sizes["count"])]
        eps_values = stratified_log_uniform(rng, *sizes["eps"], sizes["count"])
        rng.shuffle(eps_values)
        self.points = list(zip(n_values, eps_values))
        self.n_ref = sizes["n_ref"]

    def inputs(self) -> dict:
        return {"points": [{"n": n, "epsilon": eps} for n, eps in self.points]}

    def units(self, passes) -> int:
        return len(passes)

    def one_pass(self, index: int) -> Pass:
        n, eps = self.points[index % len(self.points)]
        params = self.prog.model.ModelParams(n_particles=n, epsilon=eps)
        t0 = time.perf_counter()
        try:
            result = self.prog.spectrum.solve_fixed_point(params)
            vec = self.prog.groundstate.expand_ground_state(params, result.z_star)
        except Exception as exc:  # counted as failed by check()
            return Pass(time.perf_counter() - t0, math.nan, (n, eps), error=repr(exc))
        wall = time.perf_counter() - t0
        return Pass(wall, wall * self.n_ref / n, ((n, eps), result.z_star, vec.normalized()))

    def check(self, passes):
        refs = {}
        misses = []
        for p in passes:
            if p.error:
                misses.append(f"{p.output}: {p.error}")
                continue
            (n, eps), z_star, psi = p.output
            if (n, eps) not in refs:
                refs[(n, eps)] = reference_pair(self.prog.oracle, self.prog.model.ModelParams(n_particles=n, epsilon=eps))
            lambda0, v0 = refs[(n, eps)]
            why = gate(z_star, float(abs(psi @ v0[: psi.size])), lambda0)
            if why:
                misses.append(f"{(n, eps)}: {why}")
        return len(passes), misses


class Verify:
    unit = "battery"

    def __init__(self, prog, seed: int, sizes: dict):
        self.prog = prog
        self.out = OUT / "verify"
        self.argv = ["--mode", "verify", "--out", str(self.out), *sizes["argv"]]

    def inputs(self) -> dict:
        return {"argv": self.argv}

    def units(self, passes) -> int:
        return len(passes)

    def one_pass(self, index: int) -> Pass:
        json_path = self.out / "verify.json"
        json_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = quiet_call(self.prog.cli.main, self.argv)
        except Exception as exc:  # counted as failed by check()
            return Pass(time.perf_counter() - t0, math.nan, error=repr(exc))
        wall = time.perf_counter() - t0
        rows = json.loads(json_path.read_text()) if json_path.exists() else []
        return Pass(wall, wall, (code, rows))

    def check(self, passes):
        attempted = 0
        misses = []
        for p in passes:
            if p.error or not p.output[1]:
                attempted += 1
                misses.append(p.error or "no verify rows")
                continue
            code, rows = p.output
            bad = [f"{r['name']}: FAIL margin {r['margin']!r}" for r in rows if not r["passed"]]
            attempted += len(rows)
            if code != 0 and not bad:
                attempted += 1
                bad.append(f"exit code {code}")
            misses += bad
        return attempted, misses


WORKLOAD_CLASSES = {"certify": Certify, "root": Root, "verify": Verify}


def closed_loop(workload, seconds: float, first_index: int = 0) -> list:
    """Run passes back to back, at least one, while the longest pass so far
    would still end within seconds."""
    passes = []
    t_start = time.perf_counter()
    while True:
        p = workload.one_pass(first_index + len(passes))
        passes.append(p)
        longest = max(q.wall_s for q in passes)
        if p.error or time.perf_counter() - t_start + longest > seconds:
            return passes


# --------------------------------------------------------------- metrics

def measure_setup(runs: int) -> list:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); from bogoflow import _kernels; _kernels.warmup()"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def median_unit_s(passes) -> float:
    return statistics.median([p.unit_s for p in passes if not p.error] or [math.nan])


def layer_shares(spans) -> dict:
    """Share of the traced self time of LAYERS per layer, kernel time going
    to the nearest calling span outside _kernels."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals = {}
    for s in spans:
        owner = s
        while owner.name.startswith("kernels.") and owner.parent in by_id:
            owner = by_id[owner.parent]
        layer = owner.name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[s.id]
    grand = sum(totals.get(layer, 0.0) for layer in LAYERS) or 1.0
    return {layer: t / grand for layer, t in totals.items()}


def per_layer_metrics(spans, units: int, workers: int, overhead: float) -> dict:
    stats = function_stats(spans)

    def calls(name):
        return stats[name].calls / units if name in stats else 0.0

    def self_s(name):
        return stats[name].self_s / units if name in stats else 0.0

    def inclusive_s(name):
        return stats[name].inclusive_s if name in stats else 0.0

    solves = stats.get("spectrum.solve_fixed_point")
    steps = [s.value for s in spans if s.name == "spectrum.solve_fixed_point"]
    sweep_s = inclusive_s("cli.run_sweep")
    layer_time = layer_shares(spans)

    m = {
        "flow.g_check.calls": ("count", calls("flow.g_check")),
        "flow.g_check.self_s": ("s", self_s("flow.g_check")),
        "flow.w_products.self_s": ("s", self_s("flow._w_product_arrays")),
        "kernels.flow_recursion.self_s": ("s", self_s("kernels.flow_recursion")),
        "flow.evals_per_solve": (
            "count",
            count_under(spans, "flow.g_check", "spectrum.solve_fixed_point") / solves.calls if solves else 0.0,
        ),
        "spectrum.solve_fixed_point.self_s": ("s", self_s("spectrum.solve_fixed_point")),
        "spectrum.bisection_steps": ("count", statistics.fmean(steps) if steps else 0.0),
        "oracle.lowest_eigenpair.calls": ("count", calls("oracle.lowest_eigenpair")),
        "oracle.lowest_eigenpair.self_s": ("s", self_s("oracle.lowest_eigenpair")),
        "oracle.low_spectrum.calls": ("count", calls("oracle.low_spectrum")),
        "oracle.low_spectrum.self_s": ("s", self_s("oracle.low_spectrum")),
        "oracle.build_sector_hamiltonian.calls": ("count", calls("oracle.build_sector_hamiltonian")),
        "kernels.sturm_count.calls": ("count", calls("kernels.sturm_count")),
        "kernels.bisect_eigenvalue.self_s": ("s", self_s("kernels.bisect_eigenvalue")),
        "groundstate.expand_ground_state.self_s": ("s", self_s("groundstate.expand_ground_state")),
        "sequences.x_sequence.self_s": ("s", self_s("sequences.x_sequence")),
        "sequences.xtilde_sequence.self_s": ("s", self_s("sequences.xtilde_sequence")),
        "kernels.rational_chain.self_s": ("s", self_s("kernels.rational_chain")),
    }
    for suite, checks in VERIFY_SUITES.items():
        m[f"verify.{suite}.s"] = ("s", sum(inclusive_s(f"verify.{c}") for c in checks) / units)
    m["cli.solve_point.self_s"] = ("s", self_s("cli._solve_point"))
    m["cli.sweep.busy_frac"] = (
        "ratio",
        inclusive_s("cli._solve_point") / (sweep_s * workers) if sweep_s else 0.0,
    )
    m["trace.overhead"] = ("ratio", overhead)
    for layer in LAYERS:
        m[f"{layer}.share"] = ("ratio", layer_time.get(layer, 0.0))
    return {name: {"value": float(v), "unit": unit} for name, (unit, v) in m.items()}


# ------------------------------------------------------------------ runs

def load_program():
    """Import bogoflow from this checkout's src/ and nowhere else."""
    if not (SRC / "bogoflow" / "__init__.py").is_file():
        raise RuntimeError(f"no bogoflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bogoflow
    from bogoflow import _kernels, cli, flow, groundstate, model, oracle, sequences, spectrum, verify

    if Path(bogoflow.__file__).resolve().parent != SRC / "bogoflow":
        raise RuntimeError(f"imported bogoflow from {bogoflow.__file__}, not {SRC}")
    layers = [model, flow, spectrum, oracle, groundstate, sequences, verify, cli, _kernels]
    return types.SimpleNamespace(
        package=bogoflow, layers=layers, kernels=_kernels, cli=cli, model=model,
        oracle=oracle, spectrum=spectrum, groundstate=groundstate,
    )


def git_state():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if sha.returncode != 0:
            return "unknown", None
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(prog, seed: int) -> dict:
    sha, dirty = git_state()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "have_numba": bool(prog.kernels.HAVE_NUMBA),
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def run_workload(prog, name: str, seed: int, seconds: float, trace: bool, sizes=SIZES, setup_runs=SETUP_RUNS):
    """One benchmark run; returns (result line object, record, spans)."""
    workload = WORKLOAD_CLASSES[name](prog, seed, sizes[name])
    record = {"workload": name, "trace": trace, "inputs": workload.inputs(), "unit": workload.unit}
    spans = []
    if not trace:
        setup = measure_setup(setup_runs)
        passes = closed_loop(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup),
            "wall_per_unit_s": median_unit_s(passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        record["setup_samples_s"] = setup
    else:
        plain = closed_loop(workload, seconds / 2)
        tracer = Tracer(prog.package, prog.layers, probes={"spectrum.solve_fixed_point": lambda r: r.iterations})
        with tracer:
            traced = closed_loop(workload, seconds / 2, first_index=len(plain))
        spans = tracer.spans
        passes = plain + traced
        overhead = median_unit_s(traced) / median_unit_s(plain)
        workers = getattr(workload, "workers", 1)
        metrics = per_layer_metrics(spans, workload.units(traced), workers, overhead)
        record["plain_unit_s"] = [p.unit_s for p in plain]
        record["traced_unit_s"] = [p.unit_s for p in traced]
    attempted, misses = workload.check(passes)
    record.update(
        passes=len(passes),
        units=workload.units(passes),
        pass_wall_s=[p.wall_s for p in passes],
        pass_unit_s=[p.unit_s for p in passes],
        misses=misses,
    )
    result = {"correct": not misses, "attempted": attempted, "failed": len(misses), "metrics": metrics}
    return result, record, spans


def report_lines(name: str, result: dict, record: dict) -> list:
    units, unit = record["units"], record["unit"]
    lines = [f"# {name}: inputs {json.dumps(record['inputs'])}"]
    for metric, m in result["metrics"].items():
        lines.append(f"{name}.{metric} {m['value']!r} {m['unit']}")
    wall = sum(record["pass_wall_s"])
    if not record["trace"] and wall > 0:
        lines.append(
            f"{name}.units_per_s {units / wall!r} 1/s ({units} x {unit} in {record['passes']} passes, "
            f"{len(record['setup_samples_s'])} setup runs)"
        )
    lines.append(
        f"{name}.failed_frac {result['failed'] / max(result['attempted'], 1)!r} ratio "
        f"({result['failed']}/{result['attempted']})"
    )
    lines += [f"# miss: {m}" for m in record["misses"]]
    return lines


def write_record(name: str, seed: int, trace: bool, record: dict, spans) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.thread, s.value]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prog = load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("BOGOFLOW_OUT", None)  # would redirect the CLI's output away from OUT
    meta = run_metadata(prog, args.seed)
    print(f"# meta {json.dumps(meta)}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record, spans = run_workload(prog, name, args.seed, args.seconds, bool(args.trace))
        record["meta"] = meta
        write_record(name, args.seed, bool(args.trace), record, spans)
        print("\n".join(report_lines(name, result, record)), flush=True)
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
