"""Batch front-end: solve / sweep / verify / sequences.

Configuration is a flat key=value text file plus command-line overrides;
grids are comma lists or geometric start:stop:factor ranges.  All
numeric CSV output uses shortest round-trip formatting and fixed grid
ordering, so repeated runs produce byte-identical bodies at any worker
count; timing lives in the manifest only.

Exit codes: 0 success, 2 solved-but-outside-regime (1/N <= eps^nu or the
window condition failed), 1 hard error.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import __version__, groundstate, sequences, spectrum, verify
from .model import FlowConfig, ModelParams, bogoliubov_energy
from .oracle import build_sector_hamiltonian, low_spectrum, lowest_eigenpair
from .sequences import y_star_sequence

MODES = ("solve", "sweep", "verify", "sequences")
# grid of solve, sweep and sequences when --n / --epsilon are not given
DEFAULT_N = [1024]
DEFAULT_EPS = [0.01]


def _parse_grid(text: str, kind=float) -> list:
    """Comma list (1,2,3) or geometric range start:stop:factor.

    Integer ranges are particle numbers: each value is rounded to the
    nearest even integer, since the pair sector needs even N, and
    repeats are dropped.
    """
    text = text.strip()
    if ":" in text:
        start_s, stop_s, factor_s = text.split(":")
        start, stop, factor = float(start_s), float(stop_s), float(factor_s)
        if factor <= 1.0 or start <= 0 or stop < start:
            raise ValueError(f"bad geometric range {text!r}")
        values = []
        v = start
        while v <= stop * (1.0 + 1e-12):
            values.append(kind(2 * round(v / 2) if kind is int else v))
            v *= factor
        return list(dict.fromkeys(values))
    return [kind(part) for part in text.split(",") if part.strip()]


@dataclass
class RunConfig:
    mode: str = "solve"
    # None means unset: solve, sweep and sequences then use DEFAULT_N and
    # DEFAULT_EPS, verify its own default grids
    n_values: Optional[List[int]] = None
    eps_values: Optional[List[float]] = None
    phi: float = 1.0
    delta0: float = 1.0
    nu: float = 1.5
    mu: float = 2.0 / 3.0
    gamma: float = 1.0 / 3.0
    beta: float = 2.0 / 3.0
    delta: Optional[float] = None
    tol: float = 1e-12
    out: Path = field(default_factory=lambda: Path("bogoflow-out"))
    formats: List[str] = field(default_factory=lambda: ["csv", "json"])
    # None means unset: sweep then runs serially, verify on every usable CPU
    workers: Optional[int] = None
    only: Optional[str] = None
    perturb_tk: float = 0.0

    def grid(self) -> Tuple[List[int], List[float]]:
        """Particle numbers and epsilons, defaulted for solve and sweep."""
        return self.n_values or DEFAULT_N, self.eps_values or DEFAULT_EPS

    def flow_config(self) -> FlowConfig:
        return FlowConfig(
            nu=self.nu,
            mu=self.mu,
            gamma=self.gamma,
            beta=self.beta,
            delta=self.delta,
            tol_root=self.tol,
        )

    def as_dict(self) -> dict:
        d = dict(self.__dict__)
        d["out"] = str(self.out)
        return d


# configuration keys and their parsers; each is also the flag --key
# (underscores as dashes)
_CONFIG_KEYS = {
    "mode": str,
    "n": "ngrid",
    "epsilon": "egrid",
    "phi": float,
    "delta0": float,
    "nu": float,
    "mu": float,
    "gamma": float,
    "beta": float,
    "delta": float,
    "tol": float,
    "out": Path,
    "format": str,
    "workers": int,
    "only": str,
    "perturb_tk": float,
}
_FLAG_HELP = {
    "n": "particle numbers: comma list or start:stop:factor",
    "epsilon": "epsilon grid: comma list or start:stop:factor",
}


def _apply_key(config: RunConfig, key: str, value: str) -> None:
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown configuration key {key!r}")
    kind = _CONFIG_KEYS[key]
    if kind == "ngrid":
        config.n_values = _parse_grid(value, int)
    elif kind == "egrid":
        config.eps_values = _parse_grid(value, float)
    elif key == "mode":
        if value not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        config.mode = value
    elif key == "format":
        config.formats = [f.strip() for f in value.split(",") if f.strip()]
    else:
        setattr(config, key, kind(value))


def parse_args(argv=None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="bogoflow",
        description="Ground-state solver and verification battery for the "
        "three-modes pair-interaction Hamiltonian.",
    )
    parser.add_argument("--config", type=Path, help="key=value configuration file")
    for key, kind in _CONFIG_KEYS.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=kind if callable(kind) else None,
            choices=MODES if key == "mode" else None,
            help=_FLAG_HELP.get(key),
        )
    args = parser.parse_args(argv)

    config = RunConfig()
    if args.config is not None:
        for line_no, raw in enumerate(args.config.read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            _apply_key(config, key, value)
    for key in _CONFIG_KEYS:  # command-line overrides
        value = getattr(args, key)
        if value is not None:
            _apply_key(config, key, str(value))

    env_out = os.environ.get("BOGOFLOW_OUT")
    if env_out:
        config.out = Path(env_out)
    if config.n_values == [] or config.eps_values == []:
        raise ValueError("empty parameter grid")
    if config.workers is not None and config.workers < 1:
        raise ValueError("workers must be >= 1")
    return config


def _float_repr(x) -> str:
    return repr(float(x))


def _solve_point(config: RunConfig, n: int, eps: float) -> dict:
    t0 = time.perf_counter()
    params = ModelParams(
        n_particles=n, epsilon=eps, phi=config.phi, delta0=config.delta0
    )
    cfg = config.flow_config()
    result = spectrum.solve_fixed_point(params, cfg, compare_oracle=True)
    report = result.assumptions
    e_bog = bogoliubov_energy(params)
    tri = build_sector_hamiltonian(params)
    lam = low_spectrum(tri, min(2, tri.size))
    gap = float(lam[1] - lam[0]) if lam.size > 1 else float("nan")
    vec = groundstate.expand_ground_state(params, result.z_star, cfg=cfg)
    pair = lowest_eigenpair(tri)
    psi = vec.coeffs / np.linalg.norm(vec.coeffs)
    overlap = float(abs(psi @ pair.vector[: psi.size]))
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "n": n,
        "epsilon": eps,
        "z_star": result.z_star,
        "e_bog": e_bog,
        "abs_err": abs(result.z_star - e_bog),
        "sector_gap": gap,
        "overlap": overlap,
        "oracle_delta": result.oracle_delta,
        "assumptions_ok": report.solver_regime_ok,
        "checks": {
            "nu_ok": report.nu_ok,
            "mu_ok": report.mu_ok,
            "gamma_ok": report.gamma_ok,
            "upper_bound_ok": result.upper_bound_check,
            "extended_bracket": result.extended_bracket,
            "f_residual": result.f_at_z_star,
        },
        "wall_ms": wall_ms,
        "status": "ok",
    }


def _write_manifest(config: RunConfig, files: dict, points: list) -> None:
    manifest = {
        "tool": "bogoflow",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config": config.as_dict(),
        "points": points,
        "files": [
            {"name": name, "sha256": digest} for name, digest in sorted(files.items())
        ],
    }
    path = config.out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_solve(config: RunConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    n_values, eps_values = config.grid()
    n, eps = n_values[0], eps_values[0]
    record = _solve_point(config, n, eps)
    files = {}
    if "json" in config.formats:
        path = config.out / "point-0.json"
        payload = dict(record)
        payload["config"] = config.as_dict()
        path.write_text(json.dumps(payload, indent=2) + "\n")
        files["point-0.json"] = _sha256(path)
    wall = record.pop("wall_ms")
    _write_manifest(config, files, [{"n": n, "epsilon": eps, "status": "ok", "wall_ms": wall}])
    print(
        f"n={n} eps={eps} z_star={record['z_star']!r} e_bog={record['e_bog']!r} "
        f"abs_err={record['abs_err']:.6e} gap={record['sector_gap']:.6e} "
        f"overlap={record['overlap']:.12f}"
    )
    return 0 if record["assumptions_ok"] else 2


SWEEP_COLUMNS = (
    "n",
    "epsilon",
    "z_star",
    "e_bog",
    "abs_err",
    "sector_gap",
    "overlap",
    "assumptions_ok",
    "status",
)


def run_sweep(config: RunConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    n_values, eps_values = config.grid()
    grid = [(n, eps) for n in n_values for eps in eps_values]

    def work(point):
        n, eps = point
        try:
            return _solve_point(config, n, eps)
        except Exception as exc:  # per-row failure, recorded not raised
            return {
                "n": n,
                "epsilon": eps,
                "status": f"error:{type(exc).__name__}",
                "reason": str(exc),
                "wall_ms": 0.0,
            }

    workers = config.workers or 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(work, grid))
    else:
        rows = [work(point) for point in grid]

    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        if row["status"] == "ok":
            floats = [_float_repr(row[key]) for key in SWEEP_COLUMNS[1:7]]  # epsilon .. overlap
            cells = [str(row["n"]), *floats, "1" if row["assumptions_ok"] else "0", "ok"]
        else:
            cells = [str(row["n"]), _float_repr(row["epsilon"])] + [""] * 6 + [row["status"]]
        lines.append(",".join(cells))
    csv_path = config.out / "results.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    files = {"results.csv": _sha256(csv_path)}
    keys = ("n", "epsilon", "status", "reason", "wall_ms")
    points = [{key: row[key] for key in keys if key in row} for row in rows]
    _write_manifest(config, files, points)
    solved = [row for row in rows if row["status"] == "ok"]
    print(f"sweep: {len(solved)}/{len(rows)} points ok -> {csv_path}")
    if not solved:
        return 1
    return 0 if any(row["assumptions_ok"] for row in solved) else 2


def run_verify(config: RunConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    vconf = verify.VerifyConfig(
        n_values=tuple(config.n_values or verify.DEFAULT_GRID_N),
        eps_values=tuple(config.eps_values or verify.DEFAULT_GRID_EPS),
        phi=config.phi,
        only=config.only,
        perturb_tk=config.perturb_tk,
        workers=config.workers,
    )
    results = verify.run_all(vconf)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.details}")
    path = config.out / "verify.json"
    path.write_text(
        json.dumps([r.as_dict() for r in results], indent=2) + "\n"
    )
    points = [{"name": r.name, "worker": r.worker, "wall_ms": r.wall_ms} for r in results]
    config = replace(config, workers=vconf.resolved_workers())
    _write_manifest(config, {"verify.json": _sha256(path)}, points)
    return 0 if results and all(r.passed for r in results) else 1


def run_sequences(config: RunConfig) -> int:
    config.out.mkdir(parents=True, exist_ok=True)
    cfg = config.flow_config()
    files = {}
    n_values, eps_values = config.grid()
    for n in n_values:
        for eps in eps_values:
            params = ModelParams(
                n_particles=n, epsilon=eps, phi=config.phi, delta0=config.delta0
            )
            tag = f"n{n}-eps{eps}"
            x = sequences.x_sequence(params, cfg)
            x_path = config.out / f"x-{tag}.csv"
            x.to_csv(x_path)
            files[x_path.name] = _sha256(x_path)
            try:
                xt = sequences.xtilde_sequence(params, cfg)
                xt_path = config.out / f"xtilde-{tag}.csv"
                xt.to_csv(xt_path)
                files[xt_path.name] = _sha256(xt_path)
            except ValueError:
                pass  # N^(1-gamma) < 4: no minorant chain at this size
            ys = y_star_sequence(params, cfg.beta) if n ** (1 - cfg.beta) >= 4 else None
            if ys is not None:
                path = config.out / f"ystar-{tag}.csv"
                lines = ["index,value,bound,margin"]
                for two_l, val in zip(ys.two_l, ys.values):
                    closed = sequences.y_closed_form(two_l / 2.0, eps)
                    lines.append(
                        f"{int(two_l)},{float(val)!r},{float(closed)!r},{float(val - closed)!r}"
                    )
                path.write_text("\n".join(lines) + "\n")
                files[path.name] = _sha256(path)
    _write_manifest(config, files, [])
    print(f"sequences: wrote {len(files)} files to {config.out}")
    return 0


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if config.mode == "solve":
            return run_solve(config)
        if config.mode == "sweep":
            return run_sweep(config)
        if config.mode == "verify":
            return run_verify(config)
        return run_sequences(config)
    except (ValueError, spectrum.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
