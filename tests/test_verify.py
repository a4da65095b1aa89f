import os
from collections import Counter

import numpy as np
import pytest

from bogoflow import ModelParams, cli, groundstate, oracle, spectrum, verify

# The default battery's rows as the streamed-pass code wrote them (the
# flow pass streamed in blocks of 65536), the two x_lower_bound rows as
# the majorant step check writes them: name, passed, repr of the margin,
# details.  A change of rounding anywhere in the battery shows here.  Each
# truncation_decay fit takes, per span, the smallest even N that
# g_truncated restarts from that span.
FROZEN_BATTERY = [
    ("cf_equivalence", True, "9.835793725740424e-13",
     "worst rel diff 1.642e-14 at n=16 eps=0.01 z=-0.786554; tol 1e-12"),
    ("flow_monotonicity", True, "1e-12",
     "min level increment 0.000e+00, max f slope -1.064575"),
    ("w_bound", True, "0.0004023454462566506",
     "min slack 4.023e-04 over deltas (1.0, 1.05, 1.1)"),
    ("g_lower_bound_link", True, "0.028122675864704273",
     "min G - 1/xtilde = 2.812e-02 on 23207 levels"),
    ("fixed_point_uniqueness", True, "0.0",
     "0 sign mismatches out of 100 probes"),
    ("x_lower_bound", True, "0.004037758784888614",
     "min step slack 4.048e-03 at m = 65536, tail bound 4.038e-03 beyond m = 65536: X >= L at every even N"),
    ("x_lower_bound", True, "0.0007024644495146243",
     "min step slack 7.114e-04 at m = 65536, tail bound 7.025e-04 beyond m = 65536: X >= L at every even N"),
    ("xtilde_upper_bound", True, "0.002468383574919124",
     "min tail margin 2.468e-03 on 11603 entries"),
    ("xtilde_upper_bound", True, "0.0007746713621636519",
     "min tail margin 7.747e-04 on 11603 entries"),
    ("y_closed_residual", True, "9.99557767342712e-13",
     "max recursion residual 4.422e-16; tol 1e-12"),
    ("accessori_identity", True, "9.944947398868849e-14",
     "max relative residual 5.505e-16; tol 1e-13"),
    ("coefficient_identities", True, "7.779553995158608e-16",
     "max identity residual 2.220e-16"),
    ("flow_oracle_equivalence", True, "9.971700415102305e-11",
     "worst |z* - lambda0| = 2.830e-13 at n=4 eps=0.01; tol 1e-10"),
    ("zstar_upper_bound", True, "0.011211057181029549",
     "7 regime points, 0 violations; min cap margin 1.121e-02"),
    ("sector_gap_bound", True, "0.28823523161934156",
     "7 regime points, 0 violations; min gap margin 2.882e-01"),
    ("ebog_convergence", True, "0.5033618313526803",
     "errors ['2.621e-03', '2.659e-04', '2.662e-05'], log-log slope -0.997"),
    ("ground_state_overlap", True, "9.99999860695766e-10",
     "min overlap 1.000000000000, max residual/norm_inf 1.626e-13"),
    ("truncation_decay", True, "0.03834933529341322",
     "eps=0.04 beta=0.3: slope=-0.2447 R2=0.9975; eps=0.04 beta=0.5: slope=-0.2385 R2=0.9972; "
     "eps=0.04 beta=0.7: slope=-0.2186 R2=0.9980; eps=0.01 beta=0.3: slope=-0.0971 R2=0.9921; "
     "eps=0.01 beta=0.5: slope=-0.0944 R2=0.9883; eps=0.01 beta=0.7: slope=-0.0871 R2=0.9992"),
]


def test_equivalence_tolerances_are_the_roadmap_values():
    # each gate's tolerance is one module constant; these three never move
    assert verify.ENERGY_TOL == 1e-10  # |z* - lambda0|
    assert 1.0 - verify.OVERLAP_TOL == 1.0 - 1e-9  # overlap with the oracle vector
    assert verify.CF_TOL == 1e-12  # the continued-fraction identity


def test_default_battery_is_frozen_to_the_bit():
    results = verify.run_all()
    rows = [(r.name, bool(r.passed), repr(float(r.margin)), r.details) for r in results]
    assert rows == FROZEN_BATTERY


@pytest.mark.parametrize("only", ["bogus", "s", ""])
def test_only_names_exactly_one_suite(only):
    # no prefix match: "s" would have run sequences and spectrum
    with pytest.raises(ValueError, match="cf, flow, sequences, spectrum, groundstate"):
        verify.run_all(verify.VerifyConfig(only=only))
    rows = verify.run_all(verify.VerifyConfig(n_values=(16,), eps_values=(0.1,), only="cf"))
    assert [r.name for r in rows] == ["cf_equivalence"]


def test_a_raising_check_propagates_out_of_run_all_unchanged(monkeypatch):
    error = ValueError("boom")

    def check(*args):
        raise error

    monkeypatch.setattr(verify, "check_w_bound", check)
    with pytest.raises(ValueError) as raised:
        verify.run_all(verify.VerifyConfig(only="flow"))
    assert raised.value is error


def _counted(monkeypatch):
    """Counters, by params, of the solves and the sector builds from here on."""
    counters = []
    for module, name in ((spectrum, "solve_fixed_point"), (oracle, "build_sector_hamiltonian")):
        counter, function = Counter(), getattr(module, name)

        def spy(params, counter=counter, function=function):
            counter[params] += 1
            return function(params)

        monkeypatch.setattr(module, name, spy)
        counters.append(counter)
    return counters


@pytest.mark.parametrize("only", ["cf", "spectrum", "groundstate"])
def test_oracle_rows_solve_and_build_once_per_grid_point(monkeypatch, only):
    # the cf row and the four oracle rows reduce one compare_point record per
    # grid point; ebog_convergence solves its own N = 1e3..1e5 points besides
    solves, builds = _counted(monkeypatch)
    verify.run_all(verify.VerifyConfig(only=only))
    grid = [ModelParams(n_particles=n, epsilon=eps) for n in verify.DEFAULT_GRID_N for eps in verify.DEFAULT_GRID_EPS]
    assert {params: solves[params] for params in grid} == dict.fromkeys(grid, 1)
    assert builds == Counter(grid)


def test_cli_point_solves_and_builds_once(monkeypatch):
    solves, builds = _counted(monkeypatch)
    cli._solve_point(cli.parse_args(["--mode", "solve"]), 1024, 0.01)
    assert solves == builds == Counter([ModelParams(n_particles=1024, epsilon=0.01)])


def test_the_battery_builds_each_grid_record_once_in_the_caller(monkeypatch):
    calls = []  # (name, pid, n, eps) of each call
    for module, name in (
        (oracle, "build_sector_hamiltonian"),
        (spectrum, "solve_fixed_point"),
        (groundstate, "expand_ground_state"),
    ):

        def spy(params, *args, name=name, function=getattr(module, name)):
            calls.append((name, os.getpid(), params.n_particles, params.epsilon))
            return function(params, *args)

        monkeypatch.setattr(module, name, spy)
    verify.run_all()
    grid = {(n, eps) for n in verify.DEFAULT_GRID_N for eps in verify.DEFAULT_GRID_EPS}
    on_grid = [(name, pid) for name, pid, n, eps in calls if (n, eps) in grid]
    counts = Counter(name for name, _ in on_grid)
    names = ("build_sector_hamiltonian", "solve_fixed_point", "expand_ground_state")
    assert len(grid) == 15 and counts == dict.fromkeys(names, len(grid))
    assert {pid for _, pid in on_grid} == {os.getpid()}


def test_cf_negative_control_leaves_the_records_untouched():
    records = [verify.compare_point(ModelParams(n_particles=n, epsilon=eps)) for n in (2, 128) for eps in (0.1, 0.01)]
    before = [(rec.tri.diag.copy(), rec.tri.offdiag.copy(), rec.lambda0) for rec in records]
    assert not verify.check_cf_equivalence(records, perturb_tk=1e-6).passed
    for rec, (diag, offdiag, lam0) in zip(records, before):
        assert np.array_equal(rec.tri.diag, diag) and np.array_equal(rec.tri.offdiag, offdiag)
        assert rec.lambda0 == lam0
    assert verify.check_cf_equivalence(records).passed
