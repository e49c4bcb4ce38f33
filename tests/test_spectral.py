"""Tests for the distance fields d(z), s(z), the gap, and the Weyl check."""

import numpy as np
import pytest

from specnorm import kernels, spectral
from specnorm.certifier import criterion_holds
from specnorm.errors import ConvergenceError, DimensionError, NonFiniteError
from specnorm.generators import generate_matrix
from specnorm.kernels import frob
from specnorm.scan import FLAG_FAILED, scan_grid
from specnorm.spectral import (
    cluster_spectrum,
    dist_to_spectrum,
    gap,
    shifted_smallest_singular,
    spectrum_of,
    weyl_bounds_check,
)

from test_kernels import raised

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

    def test_close_means_of_two_components_merge(self):
        # the third value is 1.05e-8 from both others, so the components are
        # {0, 0.9e-8} and {0.45e-8 + 0.95e-8j}; their means are 9.5e-9 apart,
        # within the threshold, so the representatives merge, weighted 2:1
        s = cluster_spectrum([0.0, 0.9e-8, 0.45e-8 + 0.95e-8j], scale=1.0, cluster_tol=1e-8)
        assert s.clusters == [(complex(4.5e-9, 3.1666666666666667e-9), 3)]

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

    def test_one_element_cluster_keeps_its_raw_value(self):
        v = 1.0 / 3.0 - 2.5e-300j
        s = cluster_spectrum([v, 5.0, 5.0 + 1e-12], scale=5.0, cluster_tol=1e-8)
        lam = s.clusters[0][0]
        assert (lam.real, lam.imag) == (v.real, v.imag)

    @pytest.mark.parametrize("v", [complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)])
    def test_one_element_cluster_reads_as_its_mean(self, v):
        # a -0.0 part comes out 0.0, as np.mean of the one value gives it
        lam = cluster_spectrum([v, 7.0], scale=7.0, cluster_tol=1e-8).clusters[0][0]
        mean = complex(np.mean(np.array([v])))
        assert np.signbit([lam.real, lam.imag]).tolist() == [False, False]
        assert np.signbit([mean.real, mean.imag]).tolist() == [False, False]
        assert lam == mean

    def test_overflowing_modulus_neither_clusters_nor_raises(self):
        # |lam_i - lam_j| overflows: inf, as numpy gives it, not OverflowError
        s = cluster_spectrum([1.5e308 + 1.5e308j, 0.0], scale=1.0, cluster_tol=1.0)
        assert [m for _, m in s.clusters] == [1, 1]


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

    @staticmethod
    def assert_chunks_agree(a, zs, monkeypatch):
        """Check s, w and x bit for bit alone, whole and in chunks; return whole.

        The chunks hold 3 shifts; s and w also agree without vectors, and s
        is shifted_smallest_singular's.
        """
        alone = [spectral.shifted_smallest(a, np.array([z]), vectors=True) for z in zs]
        whole = spectral.shifted_smallest(a, zs, vectors=True)
        values = spectral.shifted_smallest(a, zs)
        assert values.x is None
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 3 * 2 * 5 * 5)
        chunked = spectral.shifted_smallest(a, zs, vectors=True)
        for res in (whole, chunked):
            assert res.s.shape == (7,) and res.w.shape == res.x.shape == (7, 5)
            for field in ("s", "w", "x"):
                each = np.concatenate([getattr(one, field) for one in alone])
                assert np.array_equal(getattr(res, field), each), field
            assert np.array_equal(res.s, values.s) and np.array_equal(res.w, values.w)
            assert np.array_equal(res.s, shifted_smallest_singular(a, zs))
        plain = a.a if isinstance(a, spectral.Analysis) else a
        for z, s_k, w_k, x_k in zip(zs, whole.s, whole.w, whole.x):
            residual = (z * np.eye(5) - plain) @ x_k
            assert np.linalg.norm(residual) == pytest.approx(s_k, abs=1e-13)
            assert np.linalg.norm(w_k) == pytest.approx(s_k, abs=1e-13)
        return whole

    def test_array_of_shifts_in_chunks(self, monkeypatch):
        # a 1-D array of z gives each z's value, least column and vector,
        # bit for bit, also when the stack is split into chunks of 3 shifts
        a = generate_matrix("ginibre", 5, 4)
        zs = np.linspace(-2, 2, 7) + 0.3j
        whole = self.assert_chunks_agree(a, zs, monkeypatch)
        # with B = I the least column is (zI - A)x up to a unit phase, which
        # the pinning of V's phases sets
        for z, w_k, x_k in zip(zs, whole.w, whole.x):
            image = (z * np.eye(5) - a) @ x_k
            phase = np.vdot(image, w_k) / np.vdot(image, image)
            assert abs(abs(phase) - 1.0) <= 1e-13
            assert np.abs(w_k - phase * image).max() <= 1e-13

    def test_bound_of_another_shape_raises(self):
        a = generate_matrix("ginibre", 4, 1)
        zs = np.linspace(-1, 1, 3) + 0.5j
        with pytest.raises(DimensionError, match="bound"):
            spectral.shifted_smallest(a, zs, bound=np.zeros(2))
        with pytest.raises(DimensionError, match="bound"):
            spectral.shifted_smallest(a, zs[:1], bound=0.0)
        one = spectral.shifted_smallest(a, zs[:1], bound=np.zeros(1))
        assert one.status[0] == kernels.OK and one.sweeps[0] > 1

    @pytest.mark.parametrize("zs", [0.5j, np.complex128(0.5j), np.zeros((2, 2))],
                             ids=["scalar", "0-D", "2-D"])
    def test_shifts_other_than_1d_raise(self, zs):
        with pytest.raises(DimensionError, match="1-D"):
            spectral.shifted_smallest(generate_matrix("ginibre", 4, 1), zs)

    def test_schur_basis_shifts_in_chunks(self, monkeypatch):
        # an Analysis gets the columns zQ - AQ and x = Qv: still each z's
        # value, least column and vector, bit for bit, alone, whole and in
        # chunks
        an = spectral.analyze(generate_matrix("ginibre", 5, 4))
        assert an.basis[0] is an.schur.q
        zs = np.linspace(-2, 2, 7) + 0.3j
        whole = self.assert_chunks_agree(an, zs, monkeypatch)
        # Q only rotates, so s is that of the plain columns up to round-off
        plain = shifted_smallest_singular(an.a, zs)
        assert np.abs(whole.s - plain).max() <= 1e-14 * max(1.0, frob(an.a))

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
        res = spectral.shifted_smallest(a, np.array([1e-171, 1.0]))
        assert res.status.tolist() == [kernels.UNDERFLOW, kernels.OK] and np.isnan(res.s[0])

    def test_a_status_per_shift_across_stacks(self, monkeypatch):
        # zI - A for the shifts -3..3 in four stacks of at most two: at z = 0
        # column 2 is (0, -1e-170, 0), nonzero with a squared norm that
        # underflows, so z = 0 is refused (stack 2); at z = 2 columns 2 and
        # 3 are parallel and need a second sweep, which a budget of one
        # sweep denies (stack 3); elsewhere the coupling 1e-20 is below the
        # rotation threshold and one sweep converges
        a = np.diag([-2.0, 1e-170, 2.0]).astype(complex)
        a[1, 2] = 1e-20
        zs = np.linspace(-3.0, 3.0, 7).astype(complex)
        monkeypatch.setattr(spectral, "STACK_ENTRIES", 2 * 3 * 3)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        res = spectral.shifted_smallest(a, zs)
        ok, underflow, unconverged = kernels.OK, kernels.UNDERFLOW, kernels.UNCONVERGED
        assert res.status.tolist() == [ok, ok, ok, underflow, ok, unconverged, ok]
        for k, z in enumerate(zs):
            alone = kernels.svd((z * np.eye(3) - a)[None], vectors=False)
            assert np.array_equal(res.s[k], alone.sigma[0, -1], equal_nan=True)
            for name in ("status", "residual", "sweeps"):
                assert getattr(res, name)[k] == getattr(alone, name)[0], (name, k)

        # the first failing z, in order, raises what kernels.svd of it raises
        for order, first in ((zs, 0.0), (zs[::-1], 2.0)):
            expected = raised(lambda: kernels.svd(first * np.eye(3) - a))
            assert raised(lambda: shifted_smallest_singular(a, order)) == expected
        assert raised(lambda: shifted_smallest_singular(a, zs))[0] is NonFiniteError
        assert raised(lambda: shifted_smallest_singular(a, zs[::-1]))[0] is ConvergenceError
        # the scan's one grid row holds the same shifts: exactly those two fail
        an = spectral.analyze(a)
        assert np.array_equal(spectral.shifted_smallest(an, zs).status, res.status)
        scan = scan_grid(an, (-3.0, 3.0, 0.0, 0.0), 7, 1)
        assert [smp.z for smp in scan.samples] == zs.tolist()
        assert [smp.flag == FLAG_FAILED for smp in scan.samples] == (res.status != ok).tolist()
        assert scan.failures == 2


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

    @pytest.mark.parametrize("kappa", [np.nan, np.inf, -1.0])
    def test_rejects_malformed_kappa_weyl(self, kappa):
        # nan and -1.0 made both checks fail, and inf made both pass
        with pytest.raises(ValueError, match=r"kappa_weyl must be finite and >= 0, got "):
            weyl_bounds_check(J2, kappa_weyl=kappa)

    @pytest.mark.parametrize("kappa", [None, 0.0])
    def test_accepts_default_and_zero_kappa_weyl(self, kappa):
        r = weyl_bounds_check(np.diag([3.0, 2.0j]), kappa_weyl=kappa)
        assert r.upper_ok and r.lower_ok

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


def test_spectrum_of_clusters_at_analysis_scale():
    # ||A||_F < 1: the scale is floored at 1, so 5e-8 apart is one cluster
    small = spectrum_of(np.diag([0.3, 0.4, 0.4 + 5e-8]))
    assert small.scale == 1.0
    assert small.cluster_tol == spectral.CLUSTER_TOL
    assert small.multiplicities == [1, 2]
    assert len(spectrum_of(np.diag([0.3, 0.4, 0.4 + 2e-7])).clusters) == 3
    # ||A||_F > 100: the tolerance grows with it, so 5e-6 apart is one cluster
    a = np.diag([60.0, 80.0, 80.0 + 5e-6])
    large = spectrum_of(a)
    assert large.scale == frob(a)
    assert large.cluster_tol == spectral.CLUSTER_TOL * large.scale
    assert large.multiplicities == [1, 2]
    assert len(spectrum_of(np.diag([60.0, 80.0, 80.0 + 2e-5])).clusters) == 3
