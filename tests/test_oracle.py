import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bogoflow import (
    ModelParams,
    build_sector_hamiltonian,
    dense_crosscheck,
    low_spectrum,
    lowest_eigenpair,
    schur_complement,
)
from bogoflow.oracle import TridiagonalHamiltonian


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


def test_low_spectrum_consistency():
    tri = build_sector_hamiltonian(ModelParams(n_particles=64, epsilon=0.1))
    lam = low_spectrum(tri, 5)
    assert np.all(np.diff(lam) > 0.0)
    assert lam[0] == pytest.approx(lowest_eigenpair(tri).value, abs=1e-11)
    ref = eigh_tridiagonal(
        tri.diag, tri.offdiag, select="i", select_range=(0, 4), eigvals_only=True
    )
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


def test_csv_export(tmp_path):
    tri = build_sector_hamiltonian(ModelParams(n_particles=4, epsilon=0.1))
    path = tmp_path / "tri.csv"
    tri.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,d_k,t_k"
    assert len(lines) == 4
    assert lines[-1].endswith(",")  # no coupling on the last row
