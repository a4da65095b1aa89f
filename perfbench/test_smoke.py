"""Smoke test of the benchmark harness at tiny sizes (N <= 1024).

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {
    "certify": {"n": (256, 1024), "n_count": 3, "eps": (0.005, 0.05), "eps_count": 2, "n_ref": 512},
    "root": {"n": (512, 1024), "count": 2, "eps": (0.005, 0.05), "n_ref": 768},
    "verify": {"argv": ["--n", "16,64", "--epsilon", "0.1", "--only", "cf"]},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def prog():
    return run.load_program()


def test_spec_names_the_workloads_the_harness_runs():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(prog, name, trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result, record, _ = run.run_workload(prog, name, 7, 1.0, trace, sizes=TINY, setup_runs=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    lines = run.report_lines(name, result, record)
    for metric, unit in wanted.items():
        assert any(line.startswith(f"{name}.{metric} ") and line.endswith(f" {unit}") for line in lines)
    if trace and name == "certify":
        assert result["metrics"]["oracle.lowest_eigenpair.calls"]["value"] == 3.0
        assert result["metrics"]["oracle.low_spectrum.calls"]["value"] == 1.0
    if trace and name == "root":
        assert result["metrics"]["oracle.lowest_eigenpair.calls"]["value"] == 0.0
        assert result["metrics"]["flow.evals_per_solve"]["value"] > 0.0
    # the tracer put every original function back
    assert not hasattr(prog.spectrum.g_check, "__wrapped__")
    assert prog.spectrum.g_check is prog.package.flow.g_check


def test_inputs_depend_only_on_the_seed(prog):
    for cls in (run.Certify, run.Root):
        a, b, c = (cls(prog, s, run.SIZES[cls.__name__.lower()]).inputs() for s in (5, 5, 6))
        assert a == b != c
    n_values = run.Certify(prog, 5, run.SIZES["certify"]).n_values
    assert all(n % 2 == 0 and 1e4 <= n <= 4e4 for n in n_values)


def test_gate_trips_on_a_shifted_z_star(prog):
    # negative control: only the checker's input moves, never the program
    params = prog.model.ModelParams(n_particles=1024, epsilon=0.01)
    lambda0, v0 = run.reference_pair(prog.oracle, params)
    z_star = prog.spectrum.solve_fixed_point(params).z_star
    psi = prog.groundstate.expand_ground_state(params, z_star).normalized()
    overlap = float(abs(psi @ v0[: psi.size]))
    assert run.gate(z_star, overlap, lambda0) == ""
    assert run.gate(z_star + 1e-8, overlap, lambda0) != ""
    assert run.gate(z_star, overlap - 1e-8, lambda0) != ""


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "root", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
