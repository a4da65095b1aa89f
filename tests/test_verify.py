import os

import pytest

from bogoflow import verify

# The default battery's rows as the streamed-pass code wrote them (the
# flow pass and the majorant chain streamed in blocks of 65536): name,
# passed, repr of the margin, details.  A change of rounding anywhere
# in the battery shows here.
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
    ("x_lower_bound", True, "0.009585420998120152",
     "min margin 9.585e-03 over 5000000 entries"),
    ("x_lower_bound", True, "0.0029358499122107895",
     "min margin 2.936e-03 over 5000000 entries"),
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
    ("truncation_decay", True, "0.03463145334887918",
     "eps=0.04 beta=0.3: slope=-0.2435 R2=0.9944; eps=0.04 beta=0.5: slope=-0.2385 R2=0.9972; "
     "eps=0.04 beta=0.7: slope=-0.2220 R2=0.9975; eps=0.01 beta=0.3: slope=-0.0966 R2=0.9846; "
     "eps=0.01 beta=0.5: slope=-0.0944 R2=0.9883; eps=0.01 beta=0.7: slope=-0.0892 R2=0.9974"),
]


@pytest.mark.parametrize("workers", [1, None, 3])
def test_default_battery_is_frozen_to_the_bit(workers):
    results = verify.run_all(verify.VerifyConfig(workers=workers))
    rows = [(r.name, bool(r.passed), repr(float(r.margin)), r.details) for r in results]
    assert rows == FROZEN_BATTERY


def _boom(*args):
    raise ValueError("boom")


def _in_child(action):
    """A stand-in check that does action(), and refuses to run in the caller."""
    caller = os.getpid()

    def check(*args):
        assert os.getpid() != caller, "the stand-in check ran in the caller"
        action()

    return check


def _raise_unpicklable():
    class Local(Exception):
        pass

    raise Local("cannot be pickled")


@pytest.mark.parametrize(
    "name, check, error, message",
    [
        ("check_w_bound", _in_child(_boom), ValueError, "boom"),
        ("check_w_bound", _in_child(lambda: os._exit(3)), RuntimeError, "exit code 3"),
        ("check_w_bound", _in_child(_raise_unpicklable), RuntimeError, "Local"),
        ("check_flow_monotonicity", _boom, ValueError, "boom"),  # the caller's own share
    ],
    ids=["child-raises", "child-exits", "child-unpicklable", "caller-raises"],
)
def test_a_failing_check_raises_in_the_caller_and_leaves_no_process(
    monkeypatch, name, check, error, message
):
    # with 2 workers the caller runs the flow suite's checks 0 and 2
    # (check_flow_monotonicity, check_g_lower_bound_link), the child 1 and 3
    monkeypatch.setattr(verify, name, check)
    with pytest.raises(error, match=message):
        verify.run_all(verify.VerifyConfig(only="flow", workers=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
