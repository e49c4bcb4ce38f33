"""Tests for the distance fields d(z), s(z), the gap, and the Weyl check."""

import numpy as np
import pytest

from specnorm import kernels, spectral
from specnorm.certifier import criterion_holds
from specnorm.errors import NonFiniteError
from specnorm.generators import generate_matrix
from specnorm.kernels import frob
from specnorm.spectral import (
    cluster_spectrum,
    dist_to_spectrum,
    gap,
    shifted_smallest_singular,
    spectrum_of,
    weyl_bounds_check,
)

J2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PHI_MINUS = (np.sqrt(5.0) - 1.0) / 2.0


class TestClusterSpectrum:
    def test_simple_multiplicity(self):
        s = cluster_spectrum([1.0, 1.0, 2.0], scale=2.0, cluster_tol=1e-8)
        assert sorted(((l.real, l.imag), m) for l, m in s.clusters) == [
            ((1.0, 0.0), 2), ((2.0, 0.0), 1)
        ]

    def test_jordan_spectrum_single_cluster(self):
        s = cluster_spectrum([0.0, 0.0], scale=1.0, cluster_tol=1e-10)
        assert s.clusters == [(0j, 2)]

    def test_sub_tolerance_pair_merges(self):
        s = cluster_spectrum([1.0, 1.0 + 1e-12, 5.0], scale=5.0, cluster_tol=1e-8)
        assert len(s.clusters) == 2
        (l1, m1), (l2, m2) = s.clusters
        assert m1 == 2 and abs(l1 - (1.0 + 5e-13)) < 1e-12
        assert m2 == 1 and l2 == 5.0

    def test_chained_merge(self):
        # representatives within tolerance of each other get re-merged
        s = cluster_spectrum([0.0, 0.9e-8, 1.8e-8], scale=1.0, cluster_tol=1e-8)
        assert len(s.clusters) == 1
        assert s.clusters[0][1] == 3

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        s = cluster_spectrum(raw, scale=3.0)
        assert sum(s.multiplicities) == 8

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_malformed_cluster_tol(self, tol):
        # a NaN tolerance merged nothing, so diag(1, 1, 2) gave clusters 1, 1, 2
        match = r"cluster_tol must be finite and >= 0, got "
        with pytest.raises(ValueError, match=match):
            cluster_spectrum([1.0, 1.0, 2.0], scale=2.0, cluster_tol=tol)
        with pytest.raises(ValueError, match=match):
            spectrum_of(np.diag([1.0, 1.0, 2.0]), tol)


class TestDistToSpectrum:
    def test_simple(self):
        s = cluster_spectrum([1.0, 2.0], scale=2.0, cluster_tol=1e-8)
        d, idx = dist_to_spectrum(0.0, s)
        assert d == pytest.approx(1.0)
        assert s.representatives[idx] == 1.0

    def test_three_four_five(self):
        s = cluster_spectrum([0.0], scale=1.0, cluster_tol=1e-8)
        d, idx = dist_to_spectrum(3 + 4j, s)
        assert d == pytest.approx(5.0)
        assert idx == 0

    def test_exact_eigenvalue(self):
        s = cluster_spectrum([1.0, 2.0, 3.0], scale=3.0, cluster_tol=1e-8)
        d, idx = dist_to_spectrum(complex(s.representatives[1]), s)
        assert d == 0.0
        assert idx == 1

    def test_tie_breaks_to_lowest_index(self):
        s = cluster_spectrum([-1.0, 1.0], scale=1.0, cluster_tol=1e-8)
        _, idx = dist_to_spectrum(0.0, s)
        assert idx == 0


class TestShiftedSmallestSingular:
    def test_diagonal_shift(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        assert shifted_smallest_singular(a, 0.0) == pytest.approx(1.0)

    def test_jordan_analytic(self):
        assert shifted_smallest_singular(J2, 1.0) == pytest.approx(PHI_MINUS, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_normal_matrix_equality(self, seed):
        a = generate_matrix("normal", 5, seed)
        s = spectrum_of(a)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(10):
            z = complex(*rng.standard_normal(2)) * 2.0
            d, _ = dist_to_spectrum(z, s)
            sz = shifted_smallest_singular(a, z)
            assert abs(d - sz) <= 1e-9 * max(1.0, frob(a))

    def test_array_of_shifts_in_chunks(self, monkeypatch):
        # a 1-D array of z gives each z's scalar value and vector, bit for
        # bit, also when the stack is split into chunks of 3 shifts
        a = generate_matrix("ginibre", 5, 4)
        zs = np.linspace(-2, 2, 7) + 0.3j
        alone = [spectral.shifted_smallest_pair(a, z) for z in zs]
        whole = spectral.shifted_smallest_pair(a, zs)
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 3 * 2 * 5 * 5)
        chunked = spectral.shifted_smallest_pair(a, zs)
        for s, x in (whole, chunked):
            assert s.shape == (7,) and x.shape == (7, 5)
            assert np.array_equal(s, [s_k for s_k, _ in alone])
            assert np.array_equal(x, [x_k for _, x_k in alone])
            assert np.array_equal(s, shifted_smallest_singular(a, zs))
        for z, (s_k, x_k) in zip(zs, alone):
            assert np.linalg.norm((z * np.eye(5) - a) @ x_k) == pytest.approx(s_k, abs=1e-13)

    def test_schur_basis_shifts_in_chunks(self, monkeypatch):
        # an Analysis gets the columns zQ - AQ and x = Qv: still each z's
        # scalar value and vector, bit for bit, alone, whole and in chunks
        an = spectral.analyze(generate_matrix("ginibre", 5, 4))
        a = an.a
        assert an.basis[0] is an.schur.q
        zs = np.linspace(-2, 2, 7) + 0.3j
        alone = [spectral.shifted_smallest_pair(an, z) for z in zs]
        whole = spectral.shifted_smallest_pair(an, zs)
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 3 * 2 * 5 * 5)
        chunked = spectral.shifted_smallest_pair(an, zs)
        for s, x in (whole, chunked):
            assert s.shape == (7,) and x.shape == (7, 5)
            assert np.array_equal(s, [s_k for s_k, _ in alone])
            assert np.array_equal(x, [x_k for _, x_k in alone])
            assert np.array_equal(s, shifted_smallest_singular(an, zs))
        # Q only rotates, so s is that of the plain columns up to round-off
        plain = shifted_smallest_singular(a, zs)
        assert np.abs(whole[0] - plain).max() <= 1e-14 * max(1.0, frob(a))
        for z, (s_k, x_k) in zip(zs, alone):
            assert np.linalg.norm((z * np.eye(5) - a) @ x_k) == pytest.approx(s_k, abs=1e-13)

    def test_raw_matrix_runs_no_schur_form(self, monkeypatch):
        a = generate_matrix("ginibre", 5, 4)
        spect = spectrum_of(a)
        zs = np.linspace(-2, 2, 7) + 0.3j

        def refuse(_):
            raise AssertionError("a Schur form ran on a raw matrix")

        monkeypatch.setattr(kernels, "schur", refuse)
        gap(a, 0.3, spect)
        shifted_smallest_singular(a, zs)
        criterion_holds(a, (0.3, spect.representatives[0]), 1e-8)
        spectral.shifted_sigma_min_batch(a, zs)

    @pytest.mark.parametrize("factor", [1e-160, 1e-165, 1e-200])
    def test_underflowing_shift_raises_nonfinite(self, factor):
        # these read 0.0 (1e-165, 1e-200) or were off by 6e-6 (1e-160)
        with pytest.raises(NonFiniteError, match="underflow"):
            shifted_smallest_singular(factor * np.eye(3), 0.0)

    def test_graded_underflowing_shift_raises_nonfinite(self):
        # only the second column of zI - A underflows when squared, which
        # the Jacobi core would read as s(z) = 0
        a = np.diag([2.0, 1e-170])
        with pytest.raises(NonFiniteError, match="underflow"):
            shifted_smallest_singular(a, 1e-171)
        s, converged = spectral.shifted_sigma_min_batch(a, np.array([1e-171, 1.0]))
        assert converged.tolist() == [False, True] and np.isnan(s[0])


class TestGap:
    def test_normal_zero_gap(self):
        a = generate_matrix("normal", 4, 11)
        s = spectrum_of(a)
        assert abs(gap(a, 0.7 + 0.3j, s)) <= 1e-9 * max(1.0, frob(a))

    def test_jordan_hand_value(self):
        s = spectrum_of(J2)
        assert gap(J2, 1.0, s) == pytest.approx(1.0 - PHI_MINUS, abs=1e-10)

    def test_at_eigenvalue(self):
        a = np.diag([1.0, 3.0]).astype(complex)
        s = spectrum_of(a)
        g = gap(a, 1.0, s)
        assert abs(g) <= 1e-12


class TestWeylBounds:
    def test_nilpotent(self):
        r = weyl_bounds_check(J2)
        assert r.sigma_1 == pytest.approx(1.0)
        assert r.abs_lambda_max <= 1e-12
        assert r.abs_lambda_min <= 1e-12
        assert r.sigma_n <= 1e-12
        assert r.upper_ok and r.lower_ok

    def test_hermitian_equality(self):
        h = generate_matrix("hermitian", 5, 3)
        r = weyl_bounds_check(h)
        tol = 1e-9 * max(1.0, frob(h))
        assert abs(r.sigma_1 - r.abs_lambda_max) <= tol
        assert abs(r.sigma_n - r.abs_lambda_min) <= tol

    def test_normal_diagonal(self):
        r = weyl_bounds_check(np.diag([3.0, 2.0j]))
        assert r.sigma_1 == pytest.approx(3.0)
        assert r.abs_lambda_max == pytest.approx(3.0)
        assert r.sigma_n == pytest.approx(2.0)
        assert r.abs_lambda_min == pytest.approx(2.0)
        assert r.upper_ok and r.lower_ok


@pytest.mark.parametrize("seed", range(20))
def test_one_sided_inequality_sample(seed):
    """d(z) - s(z) never goes below -kappa_gap on random matrices."""
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 9))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = spectrum_of(a)
    bound = -1e-9 * max(1.0, frob(a))
    for _ in range(10):
        z = complex(*rng.standard_normal(2)) * frob(a)
        assert gap(a, z, s) >= bound


@pytest.mark.parametrize("seed", range(8))
def test_shift_covariance(seed):
    """s and d are invariant under A -> A + wI, z -> z + w."""
    rng = np.random.default_rng(700 + seed)
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = complex(*rng.standard_normal(2))
    z = complex(*rng.standard_normal(2))
    shifted = a + w * np.eye(n)
    tol = 1e-9 * max(1.0, frob(a))
    assert abs(
        shifted_smallest_singular(a, z) - shifted_smallest_singular(shifted, z + w)
    ) <= tol
    d0, _ = dist_to_spectrum(z, spectrum_of(a))
    d1, _ = dist_to_spectrum(z + w, spectrum_of(shifted))
    assert abs(d0 - d1) <= tol


@pytest.mark.parametrize("seed", range(8))
def test_unitary_similarity_invariance(seed):
    rng = np.random.default_rng(800 + seed)
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = generate_matrix("unitary", n, seed)
    b = q @ a @ q.conj().T
    z = complex(*rng.standard_normal(2))
    tol = 1e-9 * max(1.0, frob(a))
    assert abs(
        shifted_smallest_singular(a, z) - shifted_smallest_singular(b, z)
    ) <= tol
    d0, _ = dist_to_spectrum(z, spectrum_of(a))
    d1, _ = dist_to_spectrum(z, spectrum_of(b))
    assert abs(d0 - d1) <= tol


def test_cluster_tol_default_scales():
    assert spectral.default_cluster_tol(0.0) == pytest.approx(1e-7)
    assert spectral.default_cluster_tol(100.0) == pytest.approx(1e-5)
