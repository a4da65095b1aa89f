"""Batch front-end: solve / sweep / verify / sequences.

Configuration is a flat key=value text file plus command-line overrides;
grids are comma lists or geometric start:stop:factor ranges.  All
numeric CSV output uses shortest round-trip formatting and fixed grid
ordering, so repeated runs produce byte-identical bodies at any worker
count; timing lives in the manifest only.

Exit codes: 0 success, 2 solved-but-outside-regime (1/N <= eps^NU or the
window condition failed), 1 hard error, a rejected argument, a failed
solve point and a sequences chain built at no grid point included.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import List, Optional, Tuple

from . import __version__, sequences, spectrum, verify
from .model import BETA, ModelParams, bogoliubov_energy

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
        parts = [float(part) for part in text.split(":")]
        if len(parts) != 3 or not (parts[2] > 1.0 and 0 < parts[0] <= parts[1]):
            raise ValueError(f"bad geometric range {text!r}")
        start, stop, factor = parts
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
    out: Path = field(default_factory=lambda: Path("bogoflow-out"))
    # verify's process count; None means one per usable CPU.  Other modes
    # run serially
    workers: Optional[int] = None
    only: Optional[str] = None
    perturb_tk: float = 0.0

    def grid(self) -> Tuple[List[int], List[float]]:
        """Particle numbers and epsilons, defaulted for solve and sweep."""
        return self.n_values or DEFAULT_N, self.eps_values or DEFAULT_EPS

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
    "out": Path,
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
    else:
        setattr(config, key, kind(value))


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a rejected argument is a hard error (exit 1); argparse's own exit
        # code 2 means "outside the regime" here
        raise ValueError(message)


def parse_args(argv=None) -> RunConfig:
    parser = _ArgumentParser(
        prog="bogoflow",
        description="Ground-state solver and verification battery for the "
        "three-modes pair-interaction Hamiltonian.",
        allow_abbrev=False,  # else an unknown --delta would set --delta0
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
    n_values, eps_values = config.grid()
    if config.mode == "solve" and len(n_values) * len(eps_values) > 1:
        grid = f"{len(n_values)} x {len(eps_values)}"
        raise ValueError(f"--mode solve takes one point, not a grid of {grid}: use --mode sweep for a grid")
    return config


def _float_repr(x) -> str:
    return repr(float(x))


def _solve_point(config: RunConfig, n: int, eps: float) -> dict:
    t0 = time.perf_counter()
    params = ModelParams(n_particles=n, epsilon=eps, phi=config.phi, delta0=config.delta0)
    point = verify.compare_point(params)
    result, report = point.result, point.result.assumptions
    e_bog = bogoliubov_energy(params)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "n": n,
        "epsilon": eps,
        "z_star": result.z_star,
        "e_bog": e_bog,
        "abs_err": abs(result.z_star - e_bog),
        "sector_gap": point.gap,
        "overlap": point.overlap,
        "oracle_delta": point.oracle_delta,
        "oracle_block_size": point.block_size,
        "oracle_enclosure": point.enclosure,
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


# a point's manifest record: the oracle's block and enclosure stay out of
# results.csv
_MANIFEST_KEYS = ("n", "epsilon", "status", "reason", "oracle_block_size", "oracle_enclosure", "wall_ms")


def _failed_point(n: int, eps: float, exc: BaseException) -> dict:
    status = f"error:{type(exc).__name__}"
    return {"n": n, "epsilon": eps, "status": status, "reason": str(exc), "wall_ms": 0.0}


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
    (n,), (eps,) = config.grid()  # parse_args allows solve one point only
    try:
        record = _solve_point(config, n, eps)
    except Exception as exc:  # recorded as a sweep row is, then exit 1
        _write_manifest(config, {}, [_failed_point(n, eps, exc)])
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = config.out / "point-0.json"
    payload = dict(record)
    payload["config"] = config.as_dict()
    path.write_text(json.dumps(payload, indent=2) + "\n")
    points = [{key: record[key] for key in _MANIFEST_KEYS if key in record}]
    _write_manifest(config, {path.name: _sha256(path)}, points)
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

    rows = []
    for n, eps in grid:
        try:
            rows.append(_solve_point(config, n, eps))
        except Exception as exc:  # per-row failure, recorded not raised
            rows.append(_failed_point(n, eps, exc))

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
    points = [{key: row[key] for key in _MANIFEST_KEYS if key in row} for row in rows]
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
    files, points, built = {}, [], set()
    n_values, eps_values = config.grid()
    for n in n_values:
        for eps in eps_values:
            point = partial(ModelParams, n, eps, phi=config.phi, delta0=config.delta0)
            chains = {
                "x": lambda: sequences.x_sequence(point()),
                "xtilde": lambda: sequences.xtilde_sequence(point()),
                "ystar": lambda: sequences.y_star_sequence(point(), BETA),
            }
            # a builder's ValueError (the point's own, such as an odd N; x needs
            # eps < 1, the others a span of at least 4) skips its chain here;
            # the point's record names it
            skipped = {}
            for chain, build in chains.items():
                try:
                    seq = build()
                except ValueError as exc:
                    skipped[chain] = str(exc)
                    continue
                path = config.out / f"{chain}-n{n}-eps{eps}.csv"
                seq.to_csv(path)
                files[path.name] = _sha256(path)
                built.add(chain)
            points.append({"n": n, "epsilon": eps, "skipped": skipped})
    _write_manifest(config, files, points)
    print(f"sequences: wrote {len(files)} files to {config.out}")
    unbuilt = [chain for chain in chains if chain not in built]
    for chain in unbuilt:  # skipped at every point, the last one included
        print(f"error: no {chain} chain at any grid point: {skipped[chain]}", file=sys.stderr)
    return 1 if unbuilt else 0


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
