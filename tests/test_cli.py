import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import bogoflow
from bogoflow import ModelParams, build_sector_hamiltonian, cli


def run_cli(args):
    return cli.main(args)


def test_solve_writes_record_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", "1024", "--epsilon", "0.01", "--out", str(out)])
    assert code == 0
    record = json.loads((out / "point-0.json").read_text())
    assert record["n"] == 1024
    assert record["abs_err"] < 0.01
    assert "z_star" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == {"point-0.json"}


def test_solve_rejects_odd_n(tmp_path, capsys):
    code = run_cli(["--mode", "solve", "--n", "1023", "--epsilon", "0.01", "--out", str(tmp_path)])
    assert code == 1
    assert "must be even" in capsys.readouterr().err


def test_solve_flags_regime_violation(tmp_path):
    code = run_cli(["--mode", "solve", "--n", "100", "--epsilon", "0.001", "--out", str(tmp_path)])
    assert code == 2


def test_solve_where_the_offdiagonal_is_the_largest_entry(tmp_path):
    # d_1 = 2e-300 against t_0 = 0.707: scaled by max |d| alone, t_0
    # overflowed and stebz failed; solved, but outside the proven regime
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", "2", "--epsilon", "1e-300", "--out", str(out)])
    assert code == 2
    record = json.loads((out / "point-0.json").read_text())
    assert record["oracle_delta"] <= 1e-14


def test_solve_at_a_tiny_phi(tmp_path):
    # phi = 2^-500: the oracle's tolerances scale with phi, as its matrix does
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", "1024", "--epsilon", "0.01", "--phi", repr(2.0**-500), "--out", str(out)])
    assert code == 0
    record = json.loads((out / "point-0.json").read_text())
    assert record["oracle_delta"] <= 1e-10 * 2.0**-500


@pytest.mark.parametrize("eps", (1.0, 2.0))
def test_solve_at_epsilon_one_and_above(tmp_path, eps):
    # the expansion stops at the coefficient floor and bounds its tail with
    # the majorant series, which needs eps < 1; at eps >= 1 the bound is inf
    # and the point still solves.  Only the gamma condition fails there,
    # so the exit code is 0.
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", "200000", "--epsilon", str(eps), "--out", str(out)])
    assert code == 0
    record = json.loads((out / "point-0.json").read_text())
    tri = build_sector_hamiltonian(ModelParams(n_particles=200000, epsilon=eps))
    lam0 = eigh_tridiagonal(
        tri.diag, tri.offdiag, eigvals_only=True, select="i", select_range=(0, 0), tol=1e-15
    )[0]
    assert abs(record["z_star"] - lam0) <= 1e-10
    assert record["overlap"] >= 1.0 - 1e-9


def test_sequences_mode_rejects_epsilon_one(tmp_path, capsys):
    code = run_cli(["--mode", "sequences", "--n", "1024", "--epsilon", "1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "epsilon < 1" in err and "Traceback" not in err


def _python_m_bogoflow(*args):
    # a fresh interpreter, so stderr holds everything the run writes there
    src = str(Path(bogoflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "bogoflow", *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_m_bogoflow(tmp_path):
    proc = _python_m_bogoflow("--mode", "solve", "--n", "64", "--epsilon", "0.1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "z_star=" in proc.stdout


@pytest.mark.parametrize(
    "args, message",
    [
        (["--phi", "abc"], "error: argument --phi: invalid float value: 'abc'"),
        (["--format", "csv"], "error: unrecognized arguments: --format csv"),
    ],
)
def test_python_m_bogoflow_rejects_an_argument_with_exit_1(tmp_path, args, message):
    # exit 2 means "solved but outside the regime"; a rejected argument is a
    # hard error like any other bad input, reported on one line
    proc = _python_m_bogoflow("--mode", "solve", *args, "--out", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [message]
    assert proc.stdout == ""


def test_python_m_bogoflow_solves_where_the_couplings_overflow(tmp_path):
    # at eps = 1e300 the resolvent products overflow to W = 0, silently,
    # and the oracle solves its block scaled to order 1: nothing on stderr
    proc = _python_m_bogoflow("--mode", "solve", "--n", "4", "--epsilon", "1e300", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_sweep_grid_rows_and_manifest(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(
        [
            "--mode", "sweep",
            "--n", "16,32,64,128",
            "--epsilon", "0.5,0.1,0.05,0.01",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert len(lines) == 17  # header + 4x4 grid
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["points"]) == 16
    assert all("wall_ms" in point for point in manifest["points"])


def test_sweep_error_decreases_with_n(tmp_path):
    out = tmp_path / "sweep"
    run_cli(["--mode", "sweep", "--n", "1000:100000:10", "--epsilon", "0.01", "--out", str(out)])
    lines = (out / "results.csv").read_text().splitlines()[1:]
    errs = [float(line.split(",")[4]) for line in lines]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_sweep_geometric_grid_rounds_to_even_n(tmp_path):
    # 1000 * 1.5^3 = 3375 is odd; the grid must carry an even N instead
    out = tmp_path / "sweep"
    run_cli(["--mode", "sweep", "--n", "1000:10000:1.5", "--epsilon", "0.01", "--out", str(out)])
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert len(rows) == 6
    assert all(row[-1] == "ok" for row in rows)
    assert all(int(row[0]) % 2 == 0 for row in rows)


def test_sweep_exits_2_when_every_point_is_outside_regime(tmp_path):
    # 1/N = 0.0625 > 0.1^1.5: solved, but outside the proven regime
    out = tmp_path / "sweep"
    code = run_cli(["--mode", "sweep", "--n", "16", "--epsilon", "0.1", "--out", str(out)])
    row = (out / "results.csv").read_text().splitlines()[1].split(",")
    assert row[-2:] == ["0", "ok"]
    assert code == 2


def test_sweep_failed_rows_carry_their_reason_in_the_manifest(tmp_path):
    out = tmp_path / "sweep"
    run_cli(["--mode", "sweep", "--n", "64,65", "--epsilon", "0,0.01", "--out", str(out)])
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["error:ValueError", "ok"] + ["error:ValueError"] * 2
    points = json.loads((out / "manifest.json").read_text())["points"]
    reasons = [point.get("reason") for point in points]
    assert reasons == [
        "epsilon must be positive and finite",
        None,
        "n must be even",
        "n must be even",
    ]


def test_sweep_deterministic_across_workers(tmp_path):
    args = ["--mode", "sweep", "--n", "16,64,256", "--epsilon", "0.1,0.01"]
    out1, out2 = tmp_path / "w1", tmp_path / "w8"
    assert run_cli(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert run_cli(args + ["--workers", "8", "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_empty_grid_rejected(tmp_path, capsys):
    code = run_cli(["--mode", "sweep", "--n", "", "--epsilon", "0.01", "--out", str(tmp_path)])
    assert code == 1


def test_env_var_overrides_out(tmp_path, monkeypatch):
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("BOGOFLOW_OUT", str(env_out))
    code = run_cli(["--mode", "solve", "--n", "64", "--epsilon", "0.1", "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_out / "point-0.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=solve\nn=256\nepsilon=0.1\n# comment\nout=" + str(tmp_path / "a") + "\n")
    code = run_cli(["--config", str(cfg), "--epsilon", "0.05"])
    assert code == 0
    record = json.loads((tmp_path / "a" / "point-0.json").read_text())
    assert record["epsilon"] == 0.05


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    assert run_cli(["--config", str(cfg)]) == 1
    assert "unknown configuration key" in capsys.readouterr().err


def test_verify_only_sequences(tmp_path, capsys):
    out = tmp_path / "verify"
    code = run_cli(
        ["--mode", "verify", "--only", "sequences", "--n", "64,128", "--epsilon", "0.1,0.04", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "verify.json").read_text())
    names = {entry["name"] for entry in report}
    assert "y_closed_residual" in names
    assert "cf_equivalence" not in names


def test_the_workers_flag_is_checked_and_changes_nothing(tmp_path, capsys):
    args = ["--mode", "verify", "--only", "sequences"]
    out1, out2 = tmp_path / "plain", tmp_path / "w2"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--workers", "2", "--out", str(out2)]) == 0
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    rows = json.loads((out2 / "verify.json").read_text())
    assert [p["name"] for p in manifest["points"]] == [r["name"] for r in rows]
    assert all(p.keys() == {"name", "wall_ms"} and p["wall_ms"] > 0.0 for p in manifest["points"])
    capsys.readouterr()
    assert run_cli(args + ["--workers", "0", "--out", str(tmp_path / "w0")]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err


def test_verify_negative_control(tmp_path, capsys):
    # perturbing one coupling must break the matrix-vs-flow equivalence
    out = tmp_path / "verify"
    code = run_cli(
        [
            "--mode", "verify",
            "--only", "cf",
            "--n", "128",
            "--epsilon", "0.01",
            "--perturb-tk", "1e-6",
            "--out", str(out),
        ]
    )
    assert code == 1
    report = json.loads((out / "verify.json").read_text())
    assert report[0]["name"] == "cf_equivalence"
    assert not report[0]["passed"]
    assert report[0]["margin"] < 0.0


def test_sequences_mode_writes_csvs(tmp_path):
    out = tmp_path / "seq"
    code = run_cli(
        ["--mode", "sequences", "--n", "4096", "--epsilon", "0.04", "--out", str(out)]
    )
    assert code == 0
    names = {p.name for p in out.glob("*.csv")}
    assert any(name.startswith("x-") for name in names)
    assert any(name.startswith("ystar-") for name in names)


def test_sequences_mode_skips_a_chain_it_cannot_build(tmp_path):
    # the majorant chain needs eps < 1: at eps = 2 it is skipped, the grid
    # runs on, and the point's manifest record names the chain and the reason
    out = tmp_path / "seq"
    assert run_cli(["--mode", "sequences", "--n", "64,128", "--epsilon", "0.5,2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.glob("x-*.csv")} == {"x-n64-eps0.5.csv", "x-n128-eps0.5.csv"}
    assert {f["name"] for f in manifest["files"]} == {p.name for p in out.glob("*.csv")}
    skipped = {(p["n"], p["epsilon"]): p["skipped"] for p in manifest["points"]}
    assert list(skipped) == [(64, 0.5), (64, 2.0), (128, 0.5), (128, 2.0)]
    for n in (64, 128):
        assert "x" not in skipped[(n, 0.5)]
        assert skipped[(n, 2.0)]["x"] == "the majorant coefficients need epsilon < 1, got 2.0"


def test_sequences_mode_skips_an_odd_n_and_runs_on(tmp_path):
    # the point's own ValueError is each chain's: the odd N is listed, the
    # grid runs on, and the manifest is written
    out = tmp_path / "seq"
    assert run_cli(["--mode", "sequences", "--n", "64,63", "--epsilon", "0.5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {p.name for p in out.glob("*.csv")} == {f"{c}-n64-eps0.5.csv" for c in ("x", "xtilde", "ystar")}
    assert [p["skipped"] for p in manifest["points"]] == [
        {},
        {chain: "n must be even" for chain in ("x", "xtilde", "ystar")},
    ]


def test_sequences_mode_fails_on_an_odd_n_alone(tmp_path, capsys):
    assert run_cli(["--mode", "sequences", "--n", "63", "--epsilon", "0.5", "--out", str(tmp_path / "seq")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: no {chain} chain at any grid point: n must be even" for chain in ("x", "xtilde", "ystar")]
    assert (tmp_path / "seq" / "manifest.json").exists()


def test_verify_json_is_strict_json(tmp_path):
    # no point passes the regime gate of the two bounds, whose margin stays
    # inf: the file writes it as null, which a strict parser accepts
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    out = tmp_path / "v"
    run_cli(["--mode", "verify", "--n", "2,6", "--epsilon", "0.3", "--only", "spectrum", "--out", str(out)])
    rows = json.loads((out / "verify.json").read_text(), parse_constant=reject)
    margins = {row["name"]: row["margin"] for row in rows}
    assert margins["zstar_upper_bound"] is None and margins["sector_gap_bound"] is None


def test_geometric_grid_parsing():
    assert cli._parse_grid("1000:100000:10", int) == [1000, 10000, 100000]
    assert cli._parse_grid("1000:1006:1.001", int) == [1000, 1002, 1004, 1006]
    assert cli._parse_grid("0.5,0.1", float) == [0.5, 0.1]
    with pytest.raises(ValueError):
        cli._parse_grid("10:1:2", int)


@pytest.mark.parametrize("text", ["1:2", "1:2:3:4"])
def test_geometric_range_needs_three_parts(text, capsys):
    with pytest.raises(ValueError, match="bad geometric range"):
        cli._parse_grid(text, int)
    assert run_cli(["--n", text]) == 1
    assert capsys.readouterr().err == f"error: bad geometric range {text!r}\n"


@pytest.mark.parametrize("only", ["bogus", "s"])
def test_verify_only_rejects_anything_but_a_suite_name(tmp_path, capsys, only):
    assert run_cli(["--mode", "verify", "--only", only, "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cf, flow, sequences, spectrum, groundstate" in err[0]
    assert not (tmp_path / "v" / "verify.json").exists()


def test_verify_uses_grid_equal_to_solve_defaults(tmp_path, monkeypatch):
    # --n 1024 and --epsilon 0.01 are also the solve defaults; verify must
    # still run exactly that grid instead of its own default battery
    seen = []

    def fake_run_all(vconf):
        seen.append(vconf)
        return []

    monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
    out = str(tmp_path / "verify")
    run_cli(["--mode", "verify", "--only", "cf", "--n", "1024", "--epsilon", "0.01", "--out", out])
    run_cli(["--mode", "verify", "--only", "cf", "--out", out])
    assert (seen[0].n_values, seen[0].eps_values) == ((1024,), (0.01,))
    assert seen[1].n_values == cli.verify.DEFAULT_GRID_N
    assert seen[1].eps_values == cli.verify.DEFAULT_GRID_EPS


def test_every_flag_parses_to_the_same_configs(tmp_path, monkeypatch, capsys):
    # the flags are built from the key table; each one still sets what it
    # set when every flag was written out (values frozen from that parser)
    seen = []
    monkeypatch.setattr(cli.verify, "run_all", lambda vconf: seen.append(vconf) or [])
    out = tmp_path / "verify"
    argv = [
        "--mode", "verify", "--n", "16:64:2", "--epsilon", "0.1,0.02", "--phi", "1.5",
        "--delta0", "2", "--out", str(out), "--workers", "3", "--only", "cf", "--perturb-tk", "0.25",
    ]
    config = cli.parse_args(argv)
    assert config.as_dict() == {
        "mode": "verify", "n_values": [16, 32, 64], "eps_values": [0.1, 0.02], "phi": 1.5,
        "delta0": 2.0, "out": str(out), "workers": 3, "only": "cf", "perturb_tk": 0.25,
    }
    run_cli(argv)
    assert seen == [
        cli.verify.VerifyConfig(
            n_values=(16, 32, 64), eps_values=(0.1, 0.02), phi=1.5, only="cf", perturb_tk=0.25
        )
    ]
    with pytest.raises(ValueError, match="invalid choice: 'fit'"):
        cli.parse_args(["--mode", "fit"])  # choices still enforced
    with pytest.raises(SystemExit) as help_exit:
        cli.parse_args(["--help"])
    assert help_exit.value.code == 0
    usage = capsys.readouterr().out
    assert "--mode {solve,sweep,verify,sequences}" in usage
    assert "--n N" in usage and "particle numbers: comma list or start:stop:factor" in usage
    assert "epsilon grid: comma list or start:stop:factor" in usage
    assert "--perturb-tk PERTURB_TK" in usage


@pytest.mark.parametrize("key", ["nu", "mu", "gamma", "beta", "delta", "tol"])
def test_the_regime_exponents_window_delta_and_root_tolerance_are_not_settable(tmp_path, capsys, key):
    # model.NU, MU, GAMMA, BETA, the window delta and spectrum.TOL_ROOT are
    # constants: the flag and the configuration key are unknown arguments
    out = str(tmp_path / "run")
    assert run_cli(["--mode", "solve", f"--{key}", "0.5", "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: unrecognized arguments: --{key} 0.5"]
    path = tmp_path / "run.cfg"
    path.write_text(f"mode=solve\n{key}=0.5\nout={out}\n")
    assert run_cli(["--config", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: unknown configuration key {key!r}"]
    assert not (tmp_path / "run").exists()


def test_solve_at_an_n_it_cannot_allocate_fails_with_a_reason(tmp_path, capsys):
    # N = 2**52 needs petabyte arrays, so the allocation fails at once;
    # the point is recorded as a failed row instead of a traceback
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", str(2**52), "--epsilon", "0.01", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    (point,) = json.loads((out / "manifest.json").read_text())["points"]
    assert point["status"] == "error:MemoryError" and point["reason"] == err[0][len("error: ") :]
    assert not (out / "point-0.json").exists()


@pytest.mark.parametrize("n, eps, status", [("1025", "0.01", "error:ValueError")])
def test_a_failed_solve_point_is_recorded_as_a_sweep_row_is(tmp_path, capsys, n, eps, status):
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", n, "--epsilon", eps, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    (point,) = json.loads((out / "manifest.json").read_text())["points"]
    assert len(err) == 1 and point["status"] == status and err[0] == f"error: {point['reason']}"
    assert not (out / "point-0.json").exists()


@pytest.mark.parametrize("n, eps", [("4", "1e300"), ("4", "1e150")])  # eps**NU overflows at 1e300
def test_a_solve_point_at_a_huge_epsilon_is_ok(tmp_path, capsys, n, eps):
    out = tmp_path / "run"
    code = run_cli(["--mode", "solve", "--n", n, "--epsilon", eps, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    (point,) = json.loads((out / "manifest.json").read_text())["points"]
    assert point["status"] == "ok"
    assert (out / "point-0.json").exists()


def test_sweep_row_with_a_nan_oracle_vector_fails_with_its_reason(tmp_path, monkeypatch):
    # the scaled solve no longer yields a NaN vector at any eps reached so
    # far, so stein's vector is made NaN here: the residual check must
    # still fail each row with its reason
    stebz = bogoflow.oracle._stebz

    def nan_vectors(diag, offdiag, m, vectors):
        out = stebz(diag, offdiag, m, vectors)
        return (out[0], np.full_like(out[1], np.nan)) if vectors else out

    monkeypatch.setattr(bogoflow.oracle, "_stebz", nan_vectors)
    out = tmp_path / "sweep"
    code = run_cli(["--mode", "sweep", "--n", "4,16", "--epsilon", "1e150", "--out", str(out)])
    assert code == 1
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["error:ConvergenceError"] * 2
    points = json.loads((out / "manifest.json").read_text())["points"]
    assert all(point["reason"].startswith("eigenpair residual nan") for point in points)


def test_sweep_at_an_epsilon_whose_power_overflows_reaches_the_oracle(tmp_path, capsys):
    # the regime check reads eps**NU as inf above eps ~ 1e205, so no row
    # fails there; the oracle solves each block scaled to order 1, where
    # unscaled stein returned NaN vectors from eps = 1e150 on
    out = tmp_path / "sweep"
    code = run_cli(["--mode", "sweep", "--n", "4,16,1024", "--epsilon", "1e150,1e300", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok"] * 6


def test_sweep_row_beyond_exact_level_arithmetic_carries_its_reason(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["--mode", "sweep", "--n", f"1024,{2**52 + 2}", "--epsilon", "0.01", "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "error:ValueError"]
    reason = json.loads((out / "manifest.json").read_text())["points"][1]["reason"]
    assert reason == (
        "n_particles must be at most 2**52: level arithmetic i - 2, m + 2 is exact only below 2**53"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "1024", "--epsilon", "1e300", "--phi", "1e6"],
        ["--n", "1024", "--phi", "1e160"],
        ["--n", "1024", "--phi", "1e-160"],
        ["--n", "1024", "--phi", "1e-200"],
    ],
)
def test_solve_outside_binary64_fails_with_one_reason(tmp_path, capsys, args):
    out = tmp_path / "run"
    assert run_cli(["--mode", "solve", *args, "--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "must be" in line
    assert not (out / "point-0.json").exists()


@pytest.mark.parametrize(
    "args, grid",
    [
        (["--n", "100,200", "--epsilon", "0.1,0.2"], "2 x 2"),
        (["--n", "1e4:4e4:2"], "3 x 1"),
        (["--epsilon", "0.1,0.2"], "1 x 2"),
    ],
)
def test_solve_takes_exactly_one_point(tmp_path, capsys, args, grid):
    # solve used to take the grid's first point and exit 0
    out = tmp_path / "run"
    assert run_cli(["--mode", "solve", *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --mode solve takes one point, not a grid of {grid}: use --mode sweep for a grid"
    ]
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_verify_rejects_a_non_finite_perturb_tk(tmp_path, capsys, value, via):
    # it used to reach scipy and fail there, "array must not contain infs or NaNs"
    out = tmp_path / "v"
    args = ["--mode", "verify", "--n", "16", "--epsilon", "0.1", "--only", "cf", "--out", str(out)]
    if via == "flag":
        args.append(f"--perturb-tk={value}")
    else:
        (tmp_path / "run.cfg").write_text(f"perturb_tk = {value}\n")
        args += ["--config", str(tmp_path / "run.cfg")]
    assert run_cli(args) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "perturb_tk" in line
    assert not (out / "verify.json").exists()


def test_particle_numbers_take_integral_float_literals():
    assert cli._parse_grid("1e4, 16,2.0", int) == [10000, 16, 2]
    assert cli._parse_grid("1e4:4e4:2", int) == [10000, 20000, 40000]
    assert cli._parse_grid("64,63", int) == [64, 63]  # a comma list keeps an odd N
    for text in ("2.5", "inf", "-inf", "nan", "1e4,0.5"):
        with pytest.raises(ValueError, match="bad particle number"):
            cli._parse_grid(text, int)
    with pytest.raises(ValueError, match="'x'"):
        cli._parse_grid("16,x", int)


def test_solve_at_n_1e4_equals_n_10000(tmp_path, capsys):
    records = []
    for n in ("1e4", "10000"):
        out = tmp_path / n
        assert run_cli(["--mode", "solve", "--n", n, "--epsilon", "0.01", "--out", str(out)]) == 0
        record = json.loads((out / "point-0.json").read_text())
        del record["wall_ms"], record["config"]
        records.append(record)
    assert records[0] == records[1] and records[0]["n"] == 10000
    assert run_cli(["--mode", "solve", "--n", "2.5", "--out", str(tmp_path / "bad")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: bad particle number '2.5'"]
