import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bogoflow import (
    ModelParams,
    build_sector_hamiltonian,
    cli,
    low_spectrum,
    lowest_eigenpair,
    oracle,
    schur_complement,
)
from bogoflow.oracle import ORACLE_TOL, ConvergenceError, TridiagonalHamiltonian


def dense_crosscheck(params: ModelParams) -> float:
    """Max deviation between the tridiagonal elements and a brute-force build.

    Enumerates the full occupation basis (n0, n+, n-) with n0+n+ +n- = N,
    applies the Hamiltonian through explicit ladder-operator action, and
    projects onto the symmetric sector.  Only feasible for small N.
    """
    n = params.n_particles
    if n > 12:
        raise ValueError("dense crosscheck only supported for N <= 12")
    phi, k2 = params.phi, params.kinetic

    states = []
    index = {}
    for n0 in range(n + 1):
        for npl in range(n - n0 + 1):
            nmi = n - n0 - npl
            index[(n0, npl, nmi)] = len(states)
            states.append((n0, npl, nmi))
    dim = len(states)
    h = np.zeros((dim, dim))

    for idx, (n0, npl, nmi) in enumerate(states):
        h[idx, idx] += (k2 + phi * n0 / n) * (npl + nmi)
        # pair annihilation: (n0, n+, n-) -> (n0+2, n+-1, n--1)
        if npl >= 1 and nmi >= 1:
            amp = phi / n * math.sqrt((n0 + 1) * (n0 + 2)) * math.sqrt(npl * nmi)
            h[index[(n0 + 2, npl - 1, nmi - 1)], idx] += amp
        # pair creation: (n0, n+, n-) -> (n0-2, n++1, n-+1)
        if n0 >= 2:
            amp = phi / n * math.sqrt(n0 * (n0 - 1)) * math.sqrt((npl + 1) * (nmi + 1))
            h[index[(n0 - 2, npl + 1, nmi + 1)], idx] += amp

    sector = [index[(n - 2 * k, k, k)] for k in range(n // 2 + 1)]
    projected = h[np.ix_(sector, sector)]

    tri = build_sector_hamiltonian(params)
    dense_tri = np.diag(tri.diag)
    if tri.offdiag.size:
        dense_tri += np.diag(tri.offdiag, 1) + np.diag(tri.offdiag, -1)
    deviation = float(np.max(np.abs(projected - dense_tri)))

    # the sector must be exactly invariant: no coupling out of it
    mask = np.ones(dim, dtype=bool)
    mask[sector] = False
    leakage = float(np.max(np.abs(h[np.ix_(mask, sector)]))) if mask.any() else 0.0
    return max(deviation, leakage)


def test_matrix_elements_n2():
    tri = build_sector_hamiltonian(ModelParams(n_particles=2, epsilon=0.3))
    np.testing.assert_allclose(tri.diag, [0.0, 0.6], rtol=1e-15)
    np.testing.assert_allclose(tri.offdiag, [math.sqrt(2.0) / 2.0], rtol=1e-15)


def test_matrix_elements_n4():
    tri = build_sector_hamiltonian(ModelParams(n_particles=4, epsilon=0.25))
    np.testing.assert_allclose(tri.diag, [0.0, 2 * 0.25 + 1.0, 4 * 0.25], rtol=1e-15)
    np.testing.assert_allclose(
        tri.offdiag, [math.sqrt(3.0) / 2.0, math.sqrt(2.0) / 2.0], rtol=1e-15
    )


def test_matrix_elements_no_interaction():
    tri = build_sector_hamiltonian(ModelParams(n_particles=6, epsilon=0.5, phi=0.0))
    assert np.all(tri.offdiag == 0.0)
    assert np.all(tri.diag == 0.0)  # diagonal carries eps*phi = 0 too


def test_dense_crosscheck_small_n_grid():
    for n in (2, 4, 6, 8, 10, 12):
        for eps in (0.001, 0.1, 1.0):
            for phi in (0.5, 1.0, 2.0):
                p = ModelParams(n_particles=n, epsilon=eps, phi=phi)
                assert dense_crosscheck(p) <= 1e-14 * max(1.0, n * eps * phi)


def test_dense_crosscheck_no_interaction_exact():
    assert dense_crosscheck(ModelParams(n_particles=6, epsilon=0.5, phi=0.0)) == 0.0


def test_dense_crosscheck_rejects_large_n():
    with pytest.raises(ValueError):
        dense_crosscheck(ModelParams(n_particles=14, epsilon=0.1))


def test_lowest_eigenpair_diagonal_matrix():
    tri = TridiagonalHamiltonian(
        diag=np.array([3.0, -1.0, 2.0]), offdiag=np.zeros(2)
    )
    pair = lowest_eigenpair(tri)
    assert pair.value == -1.0
    np.testing.assert_array_equal(pair.vector, [0.0, 1.0, 0.0])
    assert pair.residual == 0.0


def test_lowest_eigenpair_n2_analytic():
    # 2x2 sector: eigenvalues eps -/+ sqrt(eps^2 + 1/2)
    tri = build_sector_hamiltonian(ModelParams(n_particles=2, epsilon=0.01))
    pair = lowest_eigenpair(tri)
    assert pair.value == pytest.approx(-0.6971774883294858, abs=1e-14)
    assert pair.residual <= 1e-12


def test_lowest_eigenpair_matches_lapack():
    # second, independent eigensolver: LAPACK divide and conquer (syevd)
    # on the dense 501 x 501 sector matrix
    p = ModelParams(n_particles=1000, epsilon=0.01)
    tri = build_sector_hamiltonian(p)
    ours = lowest_eigenpair(tri)
    dense = np.diag(tri.diag) + np.diag(tri.offdiag, 1) + np.diag(tri.offdiag, -1)
    ref = np.linalg.eigvalsh(dense)[0]
    assert ours.value == pytest.approx(ref, rel=1e-12)


def test_eigenvector_sign_and_residual():
    tri = build_sector_hamiltonian(ModelParams(n_particles=512, epsilon=0.05))
    pair = lowest_eigenpair(tri)
    nz = np.nonzero(pair.vector)[0]
    assert pair.vector[nz[0]] > 0.0
    assert np.linalg.norm(pair.vector) == pytest.approx(1.0, abs=1e-12)
    assert pair.residual <= 1e-10 * tri.norm_inf()


@pytest.mark.parametrize("n", (4, 16))
def test_a_nan_eigenvector_is_refused(monkeypatch, n):
    # a vector with a NaN entry, as unscaled stein returned at eps = 1e150,
    # has a NaN residual, which no "residual > tol" test rejects
    stebz = oracle._stebz

    def nan_vector(diag, offdiag, m, vectors):
        theta, v = stebz(diag, offdiag, m, vectors)
        v[-1, 0] = math.nan
        return theta, v

    monkeypatch.setattr(oracle, "_stebz", nan_vector)
    tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=0.1))
    with pytest.raises(ConvergenceError, match="residual nan"):
        lowest_eigenpair(tri)


@pytest.mark.parametrize("eps", (1e150, 1e300))
@pytest.mark.parametrize("n", (4, 16, 2048, 65536))
def test_the_scaled_block_solves_at_a_huge_epsilon(n, eps):
    # d_k near eps * 2k against t_k near 1: solved unscaled, stein's vector
    # was NaN; on the block scaled by a power of two it is finite and
    # lambda_0 = -t_0^2 / d_1 + ... lies within ORACLE_TOL of 0
    pair = lowest_eigenpair(build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps)))
    assert np.isfinite(pair.vector).all()
    assert abs(pair.value) <= ORACLE_TOL


def test_the_scaled_block_changes_no_eigenvalue_bit():
    # scaling by 2^-e is exact, and so is scaling the eigenvalues back:
    # they equal unscaled stebz's bit for bit on ordinary and large eps
    for n, eps in ((1024, 0.01), (4096, 0.5), (4, 1e50), (16, 1e100), (2048, 1e100)):
        tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps))
        m = min(3, tri.size)
        np.testing.assert_array_equal(
            oracle._stebz(tri.diag, tri.offdiag, m, False), _full_stebz(tri, m, vectors=False)
        )


def test_low_spectrum_consistency():
    tri = build_sector_hamiltonian(ModelParams(n_particles=64, epsilon=0.1))
    lam = low_spectrum(tri, 5)
    assert np.all(np.diff(lam) > 0.0)
    assert lam[0] == pytest.approx(lowest_eigenpair(tri).value, abs=1e-11)
    # reference from LAPACK's dense symmetric solver on the 33 x 33 matrix,
    # not from stebz, which the oracle itself calls
    dense = np.diag(tri.diag) + np.diag(tri.offdiag, 1) + np.diag(tri.offdiag, -1)
    ref = np.linalg.eigvalsh(dense)[:5]
    np.testing.assert_allclose(lam, ref, atol=1e-10 * tri.norm_inf())


def test_low_spectrum_single_value_consistent():
    tri = build_sector_hamiltonian(ModelParams(n_particles=48, epsilon=0.07))
    lam = low_spectrum(tri, 1)
    assert lam.shape == (1,)
    assert lam[0] == pytest.approx(lowest_eigenpair(tri).value, abs=1e-11)


def test_low_spectrum_rejects_bad_m():
    tri = build_sector_hamiltonian(ModelParams(n_particles=8, epsilon=0.1))
    with pytest.raises(ValueError):
        low_spectrum(tri, 0)
    with pytest.raises(ValueError):
        low_spectrum(tri, tri.size + 1)


def test_low_spectrum_n2_second_value():
    tri = build_sector_hamiltonian(ModelParams(n_particles=2, epsilon=0.01))
    lam = low_spectrum(tri, 2)
    assert lam[1] == pytest.approx(0.7171774883294858, abs=1e-11)


def test_variational_bound_eta():
    # the all-condensate state has energy d_0 = 0, so lambda0 <= 0
    for eps in (0.001, 0.1, 1.0):
        tri = build_sector_hamiltonian(ModelParams(n_particles=32, epsilon=eps))
        assert lowest_eigenpair(tri).value <= 0.0


def test_interlacing_of_principal_submatrix():
    p = ModelParams(n_particles=24, epsilon=0.3)
    tri = build_sector_hamiltonian(p)
    full = eigh_tridiagonal(tri.diag, tri.offdiag, eigvals_only=True)
    sub = eigh_tridiagonal(tri.diag[:-1], tri.offdiag[:-1], eigvals_only=True)
    for j in range(len(sub)):
        assert full[j] - 1e-12 <= sub[j] <= full[j + 1] + 1e-12


def test_schur_complement_root_is_lambda0():
    p = ModelParams(n_particles=128, epsilon=0.05)
    tri = build_sector_hamiltonian(p)
    lam0 = lowest_eigenpair(tri).value
    assert abs(schur_complement(tri, lam0)) <= 1e-10


def test_schur_complement_of_one_row():
    # dpttrf takes no empty off-diagonal; one row folds to d0 - z
    tri = TridiagonalHamiltonian(diag=np.array([2.5]), offdiag=np.array([]))
    assert schur_complement(tri, 1.0) == 1.5


def test_schur_complement_is_the_nested_fraction():
    # d0 - z - t0^2/(d1 - z - t1^2/(d2 - z)), each pivot as LAPACK forms it
    d, t = np.array([0.5, 2.0, 3.0]), np.array([0.7, 0.3])
    tri = TridiagonalHamiltonian(diag=d, offdiag=t)
    z = -0.25
    x = (d[1] - z) - t[1] / (d[2] - z) * t[1]
    assert schur_complement(tri, z) == (d[0] - z) - t[0] / x * t[0]
    # a last pivot <= 0 is f(z) < 0, right of the root, and no failure
    assert schur_complement(tri, 1.0) < 0.0


@pytest.mark.parametrize("n, eps", [(2, 0.01), (1024, 0.01), (16384, 0.5)])
@pytest.mark.parametrize("k", [1, 10, 20, 26, 100, 500])
def test_lambda0_is_exactly_homogeneous_in_phi(n, eps, k):
    # every tolerance scales with the power of two at or above |t_0| below
    # phi = 1, so the scaled solve is the same bits; an absolute tolerance
    # moved lambda_0 by 1e-9 relative at 2^-20 and failed from 2^-26 down
    scale = 2.0**-k
    lam_one = lowest_eigenpair(build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps))).value
    tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps, phi=scale))
    assert lowest_eigenpair(tri).value == scale * lam_one


def _full_stebz(tri, m, vectors=True):
    return eigh_tridiagonal(
        tri.diag, tri.offdiag, eigvals_only=not vectors, select="i", select_range=(0, m - 1), tol=ORACLE_TOL,
        lapack_driver="stebz",
    )


@pytest.mark.parametrize("n", [2048, 16384, 200_000, 1_000_000])
def test_leading_block_matches_the_full_matrix(n, monkeypatch):
    # the reference is LAPACK on the whole sector, not lowest_eigenpair;
    # the tolerances sit about 2x above the worst value measured on this grid
    for eps in (1e-6, 1e-4, 1e-3, 0.01, 0.5, 50.0):
        tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps))
        w, v = _full_stebz(tri, 3)
        pair = lowest_eigenpair(tri)
        lam = low_spectrum(tri, 2)
        assert abs(pair.value - w[0]) <= 1e-14
        assert abs(lam[1] - w[1]) <= 3e-14
        # m = 2 and 3 decide their lowered blocks by Sturm counts: within
        # 1e-14, or 4 ulp of the value where that is wider (at eps = 50,
        # lambda_2 is near 200, where one ulp is 2.8e-14)
        for m in (2, 3):
            calls = _spy_stebz(monkeypatch)
            diff = np.abs(low_spectrum(tri, m) - w[:m])
            assert np.all(diff <= np.maximum(1e-14, 4 * np.spacing(np.abs(w[:m])))), (m, eps)
            if eps >= 0.01:
                assert calls[-1][0] <= 512
            monkeypatch.undo()
        assert abs(pair.vector @ v[:, 0]) >= 1.0 - 1e-12
        assert pair.value - pair.enclosure - 2 * ORACLE_TOL <= w[0] <= pair.value + 2 * ORACLE_TOL
        k = pair.block_size
        if k < tri.size:
            assert abs(tri.offdiag[k - 1] * pair.vector[k - 1]) <= ORACLE_TOL * (1.0 + abs(pair.value))
            assert not pair.vector[k:].any()
        else:
            assert pair.enclosure == 0.0
        # at N = 2048 only K = 256 fits (4K <= 1025), which needs eps >= 0.01
        if eps >= 0.01 or (eps >= 1e-3 and n >= 16384):
            assert k < tri.size


@pytest.mark.parametrize("phi, n, eps, k", [(100.0, 20_000, 0.005, 512), (1e4, 200_000, 0.05, 256)])
def test_block_width_scales_with_phi(phi, n, eps, k):
    # an absolute width of ORACLE_TOL rounds away in the shifted diagonal at
    # large phi; these two points then fell back to the full matrix
    tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=eps, phi=phi))
    pair = lowest_eigenpair(tri)
    assert pair.block_size == k
    assert pair.enclosure == ORACLE_TOL * tri.offdiag[0]
    assert abs(pair.value - _full_stebz(tri, 1, vectors=False)[0]) <= pair.enclosure


def test_deep_well_in_the_tail_takes_the_full_matrix():
    # negative control: one diagonal entry far below every other near the
    # bottom puts the ground state in the tail, where no leading block sees it
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.01))
    diag = tri.diag.copy()
    diag[tri.size - 10] = -1e3
    tri = TridiagonalHamiltonian(diag=diag, offdiag=tri.offdiag)
    assert tri.size == 4096
    w, v = _full_stebz(tri, 2)
    pair = lowest_eigenpair(tri)
    assert pair.block_size == tri.size
    assert abs(pair.value - w[0]) <= 1e-12 and pair.value < -999.0
    assert abs(pair.vector @ v[:, 0]) >= 1.0 - 1e-12
    np.testing.assert_allclose(low_spectrum(tri, 2), w, rtol=0.0, atol=1e-12)


def test_block_whose_lowered_matrix_dips_below_theta_is_rejected(monkeypatch):
    # negative control for the inertia test: a strong coupling across the
    # K = 256 boundary leaves the block's Ritz pair, its padding residual and
    # the tail's diagonal dominance as they are, but folds the tail onto row
    # K - 1 as a deep lowered entry; the ground state sits on that boundary
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.5))
    offdiag = tri.offdiag.copy()
    offdiag[255] = 650.0
    tri = TridiagonalHamiltonian(diag=tri.diag, offdiag=offdiag)
    d, t, k = tri.diag, tri.offdiag, 256
    theta, v = _full_stebz(TridiagonalHamiltonian(diag=d[:k], offdiag=t[: k - 1]), 1)
    assert abs(t[k - 1] * v[-1, 0]) <= ORACLE_TOL * (1.0 + abs(theta[0]))
    q = d[k] - theta[0] - t[k]
    slack = d[k + 1 :] - t[k:]  # rows K+1.. of T - theta_0, strictly dominant
    slack[:-1] -= t[k + 1 :]
    assert q > 0.0 and slack.min() > theta[0]
    lowered = d[:k].copy()
    lowered[-1] -= t[k - 1] ** 2 / q
    mu = _full_stebz(TridiagonalHamiltonian(diag=lowered, offdiag=t[: k - 1]), 1, vectors=False)
    assert mu[0] < theta[0] - ORACLE_TOL
    w, v = _full_stebz(tri, 2)
    assert w[0] < theta[0] - 1.0  # accepting K = 256 would be wrong by more than 1
    pair = lowest_eigenpair(tri)
    assert 256 < pair.block_size < tri.size
    assert abs(pair.value - w[0]) <= 1e-14
    assert abs(pair.vector @ v[:, 0]) >= 1.0 - 1e-12
    # m = 2 folds the tail at theta_1, and its tail test passes too, so the
    # inertia test alone refuses K = 256
    theta = _full_stebz(TridiagonalHamiltonian(diag=d[:k], offdiag=t[: k - 1]), 2, vectors=False)
    assert d[k] - theta[1] - t[k] > 0.0 and slack.min() > theta[1]
    calls = _spy_stebz(monkeypatch)
    np.testing.assert_allclose(low_spectrum(tri, 2), w, rtol=0.0, atol=1e-14)
    assert calls[0][0] == 256 < calls[-1][0] < tri.size


def test_block_whose_lowered_matrix_gains_a_second_low_eigenvalue_is_rejected(monkeypatch):
    # negative control for the j >= 1 Sturm count: a coupling across the
    # K = 256 boundary that folds one eigenvalue of the lowered block between
    # theta_0 and theta_1 but leaves mu_0 where it was, so m = 1 keeps K = 256
    # and m = 2 may not; the folded eigenvalue moves by about 2 per unit of
    # this coupling, so it sits in that window only near 563.3
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.5))
    offdiag = tri.offdiag.copy()
    offdiag[255] = 563.3
    tri = TridiagonalHamiltonian(diag=tri.diag, offdiag=offdiag)
    d, t, k = tri.diag, tri.offdiag, 256
    theta = _full_stebz(TridiagonalHamiltonian(diag=d[:k], offdiag=t[: k - 1]), 2, vectors=False)
    q = d[k] - theta[1] - t[k]
    slack = d[k + 1 :] - t[k:]
    slack[:-1] -= t[k + 1 :]
    assert q > 0.0 and slack.min() > theta[1]
    lowered = d[:k].copy()
    lowered[-1] -= t[k - 1] ** 2 / q
    mu = _full_stebz(TridiagonalHamiltonian(diag=lowered, offdiag=t[: k - 1]), 2, vectors=False)
    assert mu[0] > theta[0] - ORACLE_TOL and theta[0] + 0.5 < mu[1] < theta[1] - 0.5
    assert lowest_eigenpair(tri).block_size == 256
    calls = _spy_stebz(monkeypatch)
    np.testing.assert_allclose(low_spectrum(tri, 2), _full_stebz(tri, 2, vectors=False), rtol=0.0, atol=1e-14)
    assert calls[0][0] == 256 < calls[-1][0] < tri.size


def _spy_stebz(monkeypatch):
    """(rows, m, vectors) of every oracle stebz call from here on."""
    calls = []
    stebz = oracle._stebz

    def spy(diag, offdiag, m, vectors):
        calls.append((diag.size, m, vectors))
        return stebz(diag, offdiag, m, vectors)

    monkeypatch.setattr(oracle, "_stebz", spy)
    return calls


def test_cli_point_makes_two_stebz_calls_on_small_blocks(monkeypatch):
    # one block solve for the lowest pair, which the solve's reference, the
    # gap and the overlap all read, and one values-only block for the gap's
    # second value; inertia tests stand in for bisecting the lowered blocks
    calls = _spy_stebz(monkeypatch)
    config = cli.parse_args(["--mode", "solve", "--n", "80000", "--epsilon", "0.01"])
    cli._solve_point(config, 80_000, 0.01)
    assert [(m, vectors) for _, m, vectors in calls] == [(1, True), (2, False)]
    assert max(rows for rows, _, _ in calls) <= 1024


def test_cli_point_reuses_one_oracle_solve_on_a_small_block(monkeypatch):
    calls = _spy_stebz(monkeypatch)
    config = cli.parse_args(["--mode", "solve", "--n", "80000", "--epsilon", "0.01"])
    row = cli._solve_point(config, 80_000, 0.01)
    assert row["overlap"] >= 1.0 - 1e-9 and row["oracle_delta"] <= 1e-10
    assert len(calls) == 2 and max(rows for rows, _, _ in calls) <= 1024
    assert row["oracle_block_size"] == calls[0][0] and row["oracle_enclosure"] == ORACLE_TOL


def test_second_lowest_eigenpair_call_returns_the_kept_pair(monkeypatch):
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.01))
    pair = lowest_eigenpair(tri)
    calls = _spy_stebz(monkeypatch)
    assert lowest_eigenpair(tri) is pair and calls == []
    # low_spectrum reads lambda_0 from the kept pair: one values-only block
    assert low_spectrum(tri, 2)[0] == pair.value and [m for _, m, _ in calls] == [2]


def test_a_perturbed_copy_is_solved_again(monkeypatch):
    # the pair is kept on the object, not keyed on the parameters: a copy
    # with one coupling moved, as verify's perturb_tk control builds, is a
    # new matrix, and so is a copy with the same elements
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.01))
    pair = lowest_eigenpair(tri)
    calls = _spy_stebz(monkeypatch)
    offdiag = tri.offdiag.copy()
    offdiag[1] *= 1.0 + 1e-3
    moved = lowest_eigenpair(TridiagonalHamiltonian(diag=tri.diag, offdiag=offdiag))
    assert len(calls) == 1 and moved.value != pair.value
    same = lowest_eigenpair(TridiagonalHamiltonian(diag=tri.diag, offdiag=tri.offdiag))
    assert len(calls) == 2 and same is not pair and same.value == pair.value


def test_shared_arrays_reject_writes():
    tri = build_sector_hamiltonian(ModelParams(n_particles=8190, epsilon=0.01))
    for array in (tri.diag, tri.offdiag, lowest_eigenpair(tri).vector):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("n", [2, 64, 1000, 2044])
def test_small_sizes_solve_the_full_matrix_bit_for_bit(n):
    tri = build_sector_hamiltonian(ModelParams(n_particles=n, epsilon=0.01))
    assert tri.size < 1024
    w, v = _full_stebz(tri, 1)
    v = v[:, 0]
    if v[np.nonzero(v)[0][0]] < 0.0:
        v = -v
    pair = lowest_eigenpair(tri)
    assert pair.value == w[0] and np.array_equal(pair.vector, v)
    assert pair.block_size == tri.size and pair.enclosure == 0.0
    m = min(3, tri.size)
    assert np.array_equal(low_spectrum(tri, m)[1:], _full_stebz(tri, m, vectors=False)[1:])
