"""Kernel factorization tests: frozen examples, residual properties, oracles."""

import warnings

import numpy as np
import pytest

from specnorm import kernels
from specnorm.errors import (
    ConvergenceError,
    DependenceError,
    DimensionError,
    NonFiniteError,
)
from specnorm.generators import generate_matrix

import oracles

J2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
GOLDEN_2X2 = np.array([[1.0, -1.0], [0.0, 1.0]], dtype=complex)
PHI_PLUS = (np.sqrt(5.0) + 1.0) / 2.0
PHI_MINUS = (np.sqrt(5.0) - 1.0) / 2.0


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def sv_residuals(a, res):
    """Gram defect ||(AV)*(AV) - diag(sigma^2)||_F and the largest gap
    between a column norm of AV and its sigma."""
    av = a @ res.v
    gram = np.linalg.norm(av.conj().T @ av - np.diag(res.sigma ** 2))
    colnorm = np.abs(np.linalg.norm(av, axis=0) - res.sigma).max()
    return gram, colnorm


def unitarity_defect(x):
    n = x.shape[1]
    return np.linalg.norm(x.conj().T @ x - np.eye(n))


class TestHouseholderQR:
    def test_identity(self):
        q, r = kernels.householder_qr(np.eye(3))
        assert np.allclose(q, np.eye(3))
        assert np.allclose(r, np.eye(3))

    def test_permutation_is_unitary(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        q, r = kernels.householder_qr(a)
        assert abs(r[1, 0]) == 0.0
        assert abs(r[0, 0] * r[1, 1]) == pytest.approx(1.0, abs=1e-14)

    def test_hand_column_norm(self):
        a = np.array([[3.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
        _, r = kernels.householder_qr(a)
        assert abs(r[0, 0]) == pytest.approx(5.0, abs=1e-13)

    def test_rejects_wide(self):
        with pytest.raises(DimensionError):
            kernels.householder_qr(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            kernels.householder_qr([[np.nan, 0.0], [0.0, 1.0]])


class TestSchur:
    def test_diagonal(self):
        res = kernels.schur(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert oracles.match_multisets(res.eigenvalues, [1, 2, 3]) < 1e-12

    def test_nilpotent_jordan(self):
        res = kernels.schur(J2)
        assert oracles.match_multisets(res.eigenvalues, [0, 0]) < 1e-12

    def test_triangular_diagonal(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        res = kernels.schur(a)
        assert oracles.match_multisets(res.eigenvalues, [1, 2]) < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            kernels.schur(np.ones((2, 3)))

    def test_one_by_one_exact(self):
        a = np.array([[2.5 - 1.25j]])
        res = kernels.schur(a)
        assert np.array_equal(res.q, [[1.0]])
        assert np.array_equal(res.t, a)
        assert np.array_equal(res.eigenvalues, [a[0, 0]])

    def test_circulant_shift(self):
        n = 6
        c = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            c[i, i + 1] = 1.0
        c[n - 1, 0] = 1.0
        res = kernels.schur(c)
        expected = np.exp(2j * np.pi * np.arange(n) / n)
        assert oracles.match_multisets(res.eigenvalues, expected) < 1e-10

    def test_nonconvergence_reports_iterations(self, monkeypatch):
        # a budget of one QR iteration per row: this 8x8 matrix needs more
        monkeypatch.setattr(kernels, "MAX_QR_ITERS_PER_N", 1)
        rng = np.random.default_rng(0)
        a = random_complex(rng, 8, 8)
        with pytest.raises(ConvergenceError) as exc:
            kernels.schur(a)
        assert exc.value.iterations == 8


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_meets_every_pair_once_per_sweep(n):
    steps = kernels._round_robin(n)
    assert len(steps) == (n if n % 2 and n > 1 else n - 1)
    met = []
    for p, q in steps:
        # the pairs of one step are disjoint, so they rotate independently
        assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
        met += zip(p.tolist(), q.tolist())
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    # cached per n, so no caller may write into the shared index arrays
    assert kernels._round_robin(n) is steps
    assert not any(a.flags.writeable for step in steps for a in step)


class TestSvd:
    def test_diagonal(self):
        a = np.diag([2.0, 1.0]).astype(complex)
        res = kernels.svd(a)
        assert np.allclose(res.sigma, [2.0, 1.0])
        assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-13)
        assert np.allclose(np.abs(a @ res.v), np.diag([2.0, 1.0]), atol=1e-13)

    def test_analytic_golden_ratio(self):
        res = kernels.svd(GOLDEN_2X2)
        assert res.sigma[0] == pytest.approx(PHI_PLUS, abs=1e-12)
        assert res.sigma[1] == pytest.approx(PHI_MINUS, abs=1e-12)

    def test_zero_matrix(self):
        res = kernels.svd(np.zeros((2, 2)))
        assert np.all(res.sigma == 0.0)
        assert unitarity_defect(res.v) < 1e-14

    def test_svd_relations_both_sides(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 6, 6)
        res = kernels.svd(a)
        anorm = np.linalg.norm(a)
        # left side: the columns A v_i are orthogonal with norms sigma_i
        gram, colnorm = sv_residuals(a, res)
        assert gram <= 1e-10 * anorm ** 2
        assert colnorm <= 1e-10 * anorm
        # right side: A* A v_i = sigma_i^2 v_i
        for i in range(6):
            assert np.linalg.norm(a.conj().T @ (a @ res.v[:, i])
                                  - res.sigma[i] ** 2 * res.v[:, i]) <= 1e-10 * anorm ** 2

    def test_converges_when_only_lower_triangle_exceeds_tolerance(self):
        # The Gram matrix w*w is not exactly Hermitian in floating point: here
        # its (5, 0) entry sits just above the rotation threshold while (0, 5)
        # is under it, so a convergence test that read both triangles saw
        # every sweep as unconverged although none rotated anything.
        a = generate_matrix("ginibre", 6, 14011)
        z = complex(np.linspace(-2, 2, 21)[2], np.linspace(-2, 2, 21)[12])
        m = z * np.eye(6) - a
        sigma = kernels.svd(m).sigma
        reference = np.linalg.svd(m, compute_uv=False)
        assert np.abs(sigma - reference).max() <= 1e-14 * np.linalg.norm(m)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8), (16, 16)])
    def test_agrees_with_reference(self, shape):
        # numpy.linalg is a test-only reference here
        rng = np.random.default_rng(sum(shape))
        a = random_complex(rng, *shape)
        anorm = np.linalg.norm(a)
        res = kernels.svd(a)
        reference = np.linalg.svd(a, compute_uv=False)
        assert np.abs(res.sigma - reference).max() <= 1e-14 * anorm
        assert res.v.shape == shape
        gram, colnorm = sv_residuals(a, res)
        assert gram <= 1e-10 * anorm ** 2
        assert colnorm <= 1e-10 * anorm
        assert unitarity_defect(res.v) <= 1e-10 * shape[0]

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (7, 2), (2, 7)])
    def test_rejects_non_square(self, shape):
        a = random_complex(np.random.default_rng(sum(shape)), *shape)
        with pytest.raises(DimensionError, match="square"):
            kernels.svd(a)

    def test_sweep_budget_raises_convergence_error(self, monkeypatch):
        m = 0.5 * np.eye(6) - generate_matrix("ginibre", 6, 2)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as exc:
            kernels.svd(m)
        assert exc.value.iterations == 1
        assert exc.value.residual > 8 * kernels.EPS * 6

    @pytest.mark.parametrize("factor", [1e78, 1e150, 1e-100, 1e-130])
    def test_scaled_entries_neither_overflow_nor_underflow(self, factor):
        # app*aqq overflows above about 1e77 and underflows below about 1e-81;
        # sqrt(app)*sqrt(aqq) does neither in this range
        a = generate_matrix("ginibre", 4, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = kernels.svd(a).sigma[-1]
            from_svd = kernels.svd(a * factor).sigma[-1] / factor
            from_batch = sigma_min_strict((a * factor)[None])[0][0] / factor
        assert from_svd == pytest.approx(expected, rel=1e-14)
        assert from_batch == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("factor", [1e-150, 1e155])
    def test_out_of_range_entries_raise_nonfinite(self, factor):
        # the couplings go subnormal below about 1e-145 and the squared column
        # norms overflow above about 1e154; neither may pass as a result
        a = generate_matrix("ginibre", 4, 1) * factor
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            kernels.svd(a)


class TestUnderflowRefusal:
    # below sqrt(TINY), about 1.5e-154, every squared column norm underflows:
    # at 1e-160 sigma is off by about 6e-6 relative, below about 1e-161 it
    # reads 0, and either came back converged
    @pytest.mark.parametrize("factor", [1e-160, 1e-165, 1e-200])
    @pytest.mark.parametrize("kind", ["identity", "ginibre"])
    def test_svd_raises_and_batch_flags_nan(self, kind, factor):
        a = np.eye(3) if kind == "identity" else generate_matrix("ginibre", 4, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="underflow"):
                kernels.svd(a * factor)
            with pytest.raises(NonFiniteError, match="underflow"):
                kernels.rank_with_tol(a * factor, 0.0)
            sigma, converged = sigma_min_strict(np.stack([a, a * factor]))
        assert converged.tolist() == [True, False]
        assert sigma[0] == sigma_min_strict(a[None])[0][0]
        assert np.isnan(sigma[1])

    # sigma_min <= ||A e_j||, so one nonzero column whose squared norm
    # underflows is enough: the core would read sigma_min 0 or 9.99994e-161
    @pytest.mark.parametrize("graded", [
        np.diag([1.0, 1e-170]),
        np.diag([1.0, 1e-160]),
        np.diag([1.0, 1.0, 1e-200j]),
        np.array([[1.0, 1e-170], [0.0, 1e-170]]),
    ])
    def test_graded_matrix_raises_and_batch_flags_nan(self, graded):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="underflow"):
                kernels.svd(graded)
            with pytest.raises(NonFiniteError, match="underflow"):
                kernels.rank_with_tol(graded, 0.0)
            sigma, converged = sigma_min_strict(graded[None])
        assert converged.tolist() == [False] and np.isnan(sigma[0])

    def test_zero_matrix_still_has_sigma_zero(self):
        zero = np.zeros((3, 3), dtype=complex)
        assert kernels.svd(zero).sigma.tolist() == [0.0, 0.0, 0.0]
        sigma, converged = sigma_min_strict(zero[None])
        assert converged.tolist() == [True] and sigma.tolist() == [0.0]
        # a zero column is exact, not an underflow
        assert kernels.svd(np.diag([1.0, 0.0])).sigma.tolist() == [1.0, 0.0]

    def test_stack_raises_for_the_first_failing_item(self, monkeypatch):
        a = 0.5 * np.eye(6) - generate_matrix("ginibre", 6, 2)
        with pytest.raises(NonFiniteError, match="underflow"):
            kernels.svd(np.stack([a, a * 1e-170]))
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            kernels.svd(np.stack([a, a * 1e-170]))
        with pytest.raises(NonFiniteError, match="underflow"):
            kernels.svd(np.stack([a * 1e-170, a]))


class TestSmallestSingularValue:
    def test_identity(self):
        assert kernels.svd(np.eye(4)).sigma[-1] == pytest.approx(1.0)

    def test_analytic(self):
        assert kernels.svd(GOLDEN_2X2).sigma[-1] == \
            pytest.approx(PHI_MINUS, abs=1e-12)

    def test_singular_row_of_zeros(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert kernels.svd(a).sigma[-1] <= 2 * kernels.EPS * 3.0


def shifted_stack(a, xs):
    """zI - A for z on the square grid xs x xs, row-major."""
    zs = (xs[None, :] + 1j * xs[:, None]).ravel()
    return zs[:, None, None] * np.eye(a.shape[0]) - a


def sigma_min_strict(stack):
    """sigma_min and an OK flag per item from a values-only jacobi_svd, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = kernels.jacobi_svd(stack, vectors=False)
    return res.sigma[:, -1], res.status == kernels.OK


# what svd of one item raises for each failing status of jacobi_svd
RAISES = {
    kernels.NONFINITE_ENTRY: (NonFiniteError, "NaN or Inf"),
    kernels.UNDERFLOW: (NonFiniteError, "underflow"),
    kernels.UNCONVERGED: (ConvergenceError, "did not converge"),
    kernels.NONFINITE_SIGMA: (NonFiniteError, "non-finite singular value"),
}


class TestSigmaMinBatch:
    # the values-only path of kernels.jacobi_svd, which scan and
    # check-corollary take for the smallest singular value of a batch
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_agrees_with_svd(self, kind, n):
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, n, 3, param)
        # the grid passes through 0, the eigenvalue of the Jordan block
        stack = shifted_stack(a, np.linspace(-2, 2, 5))
        sigma, converged = sigma_min_strict(stack)
        assert converged.all()
        reference = np.array([kernels.svd(m).sigma[-1] for m in stack])
        scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        assert (np.abs(sigma - reference) / scale).max() <= 1e-14

    def test_agrees_with_reference(self):
        a = generate_matrix("ginibre", 16, 4)
        stack = shifted_stack(a, np.linspace(-2, 2, 4))
        sigma, converged = sigma_min_strict(stack)
        assert converged.all()
        reference = np.linalg.svd(stack, compute_uv=False)[:, -1]
        scale = np.linalg.norm(stack, axis=(1, 2))
        assert (np.abs(sigma - reference) / scale).max() <= 1e-14

    def test_zero_stack(self):
        sigma, converged = sigma_min_strict(np.zeros((3, 4, 4)))
        assert np.array_equal(sigma, np.zeros(3))
        assert converged.all()

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionError):
            kernels.jacobi_svd(np.zeros((2, 3, 4)), vectors=False)

    def test_rejects_empty_stack(self):
        with pytest.raises(DimensionError):
            kernels.jacobi_svd(np.zeros((0, 5, 5)), vectors=False)

    def test_converges_when_only_lower_triangle_exceeds_tolerance(self):
        # the shifted matrix of TestSvd's case of the same name
        a = generate_matrix("ginibre", 6, 14011)
        xs = np.linspace(-2, 2, 21)
        z = xs[2] + 1j * xs[12]
        sigma, converged = sigma_min_strict((z * np.eye(6) - a)[None])
        assert converged[0]
        assert sigma[0] == pytest.approx(0.58017909, abs=1e-8)

    def test_sweep_budget_reports_unconverged_items(self, monkeypatch):
        # a diagonal item has orthogonal columns, so its first sweep rotates
        # nothing; a shifted ginibre matrix needs more than one sweep
        a = generate_matrix("ginibre", 6, 2)
        stack = np.concatenate([
            shifted_stack(a, np.linspace(-1, 1, 3)),
            np.diag(np.arange(1.0, 7.0))[None],
        ])
        assert sigma_min_strict(stack)[1].all()
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        sigma, converged = sigma_min_strict(stack)
        assert converged.tolist() == [False] * 9 + [True]
        assert sigma[-1] == 1.0

    @pytest.mark.parametrize("factor", [1e-150, 1e155])
    def test_out_of_range_entries_are_unconverged(self, factor):
        a = generate_matrix("ginibre", 4, 1) * factor
        with np.errstate(all="ignore"):
            sigma, converged = sigma_min_strict(a[None])
        assert converged.tolist() == [False]
        assert np.isnan(sigma[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_items_are_bit_identical_alone_and_in_svd(self, kind, n):
        # every item of a stack takes the same arithmetic as when it runs
        # alone, and as the A-part of svd's [A; I] columns
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, n, 5, param)
        stack = shifted_stack(a, np.linspace(-2, 2, 6))
        sigma, converged = sigma_min_strict(stack)
        assert converged.all()
        for i, m in enumerate(stack):
            assert sigma[i] == sigma_min_strict(m[None])[0][0]
            assert sigma[i] == kernels.svd(m).sigma[-1]

    def test_mixed_stack_items_are_bit_identical_alone(self, monkeypatch):
        # one item per failing status, a diagonal item that converges in
        # sweep 1 and shifted ginibre items that take several sweeps, at the
        # full sweep budget and at 1 sweep, where the ginibre items run out
        a = generate_matrix("ginibre", 5, 6)
        nan_item = np.eye(5, dtype=complex)
        nan_item[2, 3] = np.nan
        shifted = shifted_stack(a, np.linspace(-1.5, 1.5, 3))
        stack = np.concatenate([
            shifted[:4],
            nan_item[None],
            np.diag(np.arange(1.0, 6.0))[None],
            (a * 1e-170)[None],
            np.diag([1.0, 2.0, 3.0, 4.0, 1e-170])[None],
            (a * 1e155)[None],
            shifted[4:],
        ])
        for sweeps, shifted_status in ((kernels.MAX_JACOBI_SWEEPS, kernels.OK),
                                       (1, kernels.UNCONVERGED)):
            monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", sweeps)
            with np.errstate(all="ignore"):
                res = kernels.jacobi_svd(stack, vectors=False)
                full = kernels.jacobi_svd(stack, vectors=True)
            assert res.status.tolist() == [shifted_status] * 4 + [
                kernels.NONFINITE_ENTRY, kernels.OK, kernels.UNDERFLOW,
                kernels.UNDERFLOW, kernels.NONFINITE_SIGMA,
            ] + [shifted_status] * 5
            assert res.v is None and full.v.shape == stack.shape
            assert np.array_equal(full.sigma, res.sigma, equal_nan=True)
            assert np.array_equal(full.status, res.status)
            assert np.array_equal(full.residual, res.residual)
            # refused and non-finite items read NaN, unconverged ones their
            # column norms at exit
            assert np.isnan(res.sigma[4:9:2]).all() and np.isnan(res.sigma[7]).all()
            assert np.isfinite(res.sigma[:4]).all() and res.sigma[5, -1] == 1.0
            assert (res.residual[:4] > 0.0).all() == (sweeps == 1)
            for i, m in enumerate(stack):
                with np.errstate(all="ignore"):
                    alone = kernels.jacobi_svd(m[None], vectors=False)
                assert alone.status[0] == res.status[i]
                assert alone.residual[0] == res.residual[i]
                assert np.array_equal(alone.sigma[0], res.sigma[i], equal_nan=True)
                if res.status[i] == kernels.OK:
                    assert np.array_equal(kernels.svd(m).sigma, res.sigma[i])
                    continue
                error, match = RAISES[res.status[i]]
                with np.errstate(all="ignore"), pytest.raises(error, match=match) as exc:
                    kernels.svd(m)
                if error is ConvergenceError:
                    assert exc.value.residual == res.residual[i]

    def test_exit_residual_is_the_largest_coupling_left(self, monkeypatch):
        a = generate_matrix("ginibre", 6, 2)
        stack = np.concatenate([
            shifted_stack(a, np.linspace(-1, 1, 3)),
            np.diag(np.arange(1.0, 7.0))[None],
        ])
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        res = kernels.jacobi_svd(stack, vectors=True)
        assert res.status.tolist() == [kernels.UNCONVERGED] * 9 + [kernels.OK]
        assert res.residual[-1] == 0.0
        # the rotated columns are those of A V (sorted, with pinned phases,
        # neither of which moves a coupling)
        for m, v, residual in zip(stack[:-1], res.v[:-1], res.residual[:-1]):
            cols = (m @ v).T
            norms = [np.linalg.norm(c) for c in cols]
            expected = max(
                abs(np.vdot(cols[p], cols[q])) / (norms[p] * norms[q])
                for p in range(6) for q in range(p + 1, 6)
            )
            assert residual == pytest.approx(expected, rel=1e-12)
            assert residual > 8 * kernels.EPS * 6

    def test_item_with_one_overflowing_column_is_flagged(self, monkeypatch):
        # column 0 squares to inf and never rotates against the others, so
        # their smallest norm, 1.034, is not sigma_min (0.1159): the item is
        # NaN, and unconverged rather than non-finite while the others still
        # rotate, which is also the order in which svd raises
        m = generate_matrix("ginibre", 4, 1)
        m[:, 0] *= 1e155
        for sweeps, status, error in ((kernels.MAX_JACOBI_SWEEPS, kernels.NONFINITE_SIGMA,
                                       NonFiniteError), (1, kernels.UNCONVERGED, ConvergenceError)):
            monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", sweeps)
            with np.errstate(all="ignore"):
                res = kernels.jacobi_svd(m[None], vectors=False)
                assert res.status.tolist() == [status] and np.isnan(res.sigma).all()
                with pytest.raises(error):
                    kernels.svd(m)

    def test_nonfinite_item_is_unconverged(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf)]).astype(complex)
        sigma, converged = sigma_min_strict(stack)
        assert converged.tolist() == [True, False]
        assert sigma[0] == 1.0 and np.isnan(sigma[1])


class TestSvdStack:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_items_are_bit_identical_alone(self, kind, n):
        # sigma of each item equals svd and the values-only jacobi_svd of the
        # item alone, and so does its V
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, n, 7, param)
        stack = shifted_stack(a, np.linspace(-2, 2, 4))
        res = kernels.svd(stack)
        assert res.sigma.shape == (16, n) and res.v.shape == (16, n, n)
        for i, m in enumerate(stack):
            alone = kernels.svd(m)
            assert np.array_equal(res.sigma[i], alone.sigma)
            assert res.sigma[i, -1] == sigma_min_strict(m[None])[0][0]
            assert np.array_equal(res.v[i], alone.v)

    def test_items_satisfy_the_svd_relations(self):
        a = generate_matrix("ginibre", 6, 3)
        stack = shifted_stack(a, np.linspace(-1, 1, 3))
        res = kernels.svd(stack)
        for m, sigma, v in zip(stack, res.sigma, res.v):
            scale = np.linalg.norm(m)
            gram, colnorm = sv_residuals(m, kernels.SvdResult(sigma, v))
            assert gram <= 1e-10 * scale ** 2
            assert colnorm <= 1e-10 * scale
            assert unitarity_defect(v) <= 1e-10 * 6
            # each column's first entry above 1e-12 of its largest is real
            # and positive, up to the rounding of the phase factor
            for col in v.T:
                pivot = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
                assert pivot.real > 0.0 and abs(pivot.imag) <= 4 * kernels.EPS * pivot.real

    def test_sweep_budget_raises_the_first_unconverged_item(self, monkeypatch):
        # the diagonal item converges in sweep 1; items 1 and 2 do not
        a = generate_matrix("ginibre", 6, 2)
        items = [np.diag(np.arange(1.0, 7.0)).astype(complex),
                 0.5 * np.eye(6) - a, -0.5j * np.eye(6) - a]
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        residuals = []
        for m in items[1:]:
            with pytest.raises(ConvergenceError) as alone:
                kernels.svd(m)
            residuals.append(alone.value.residual)
        assert residuals[0] != residuals[1]
        for order, expected in ((items, residuals[0]), (items[::-1], residuals[1])):
            with pytest.raises(ConvergenceError) as exc:
                kernels.svd(np.stack(order))
            assert exc.value.iterations == 1
            assert exc.value.residual == expected

    def test_out_of_range_item_raises_nonfinite(self):
        a = generate_matrix("ginibre", 4, 1)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            kernels.svd(np.stack([a, a * 1e155]))

    def test_nan_item_raises_nonfinite(self):
        stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
        stack[1, 0, 2] = np.nan
        with pytest.raises(NonFiniteError):
            kernels.svd(stack)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3, 3), (2, 3, 4), (0, 3, 3), (2, 0, 0)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(DimensionError):
            kernels.svd(np.ones(shape, dtype=complex))


class TestRankWithTol:
    def test_identity(self):
        assert kernels.rank_with_tol(np.eye(3), 0.5) == 3

    def test_jordan(self):
        assert kernels.rank_with_tol(J2, 1e-12) == 1

    def test_zero(self):
        assert kernels.rank_with_tol(np.zeros((3, 3)), 0.0) == 0
        assert kernels.rank_with_tol(np.zeros((3, 3)), 1.0) == 0

    def test_monotone_in_tol(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 5, 5)
        tols = [0.0, 1e-8, 1e-2, 1.0, 10.0]
        ranks = [kernels.rank_with_tol(a, t) for t in tols]
        assert ranks == sorted(ranks, reverse=True)


class TestGramSchmidt:
    def test_already_orthonormal(self):
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        out = kernels.gram_schmidt_orthonormalize([e1, e2])
        assert np.allclose(out[0], e1)
        assert np.allclose(out[1], e2)

    def test_hand_case(self):
        out = kernels.gram_schmidt_orthonormalize([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(out[0], [1.0, 0.0])
        assert np.allclose(out[1], [0.0, 1.0], atol=1e-14)

    def test_collinear_raises_with_index(self):
        with pytest.raises(DependenceError) as exc:
            kernels.gram_schmidt_orthonormalize([[1.0, 0.0], [2.0, 0.0]])
        assert exc.value.index == 1

    def test_span_and_orthonormality(self):
        rng = np.random.default_rng(8)
        vecs = [random_complex(rng, 1, 6).ravel() for _ in range(4)]
        out = kernels.gram_schmidt_orthonormalize(vecs)
        basis = np.column_stack(out)
        assert unitarity_defect(basis) < 1e-12
        # same span: each input is reproduced by its projection
        for v in vecs:
            proj = basis @ (basis.conj().T @ v)
            assert np.linalg.norm(proj - v) < 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("seed", range(25))
def test_factorization_residuals_random(seed):
    """QR/Schur/SVD residuals and unitarity on seeded random matrices."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    a = random_complex(rng, n, n)
    scale = max(1.0, np.linalg.norm(a))
    q, r = kernels.householder_qr(a)
    assert np.linalg.norm(a - q @ r) <= 1e-10 * scale
    assert unitarity_defect(q) <= 1e-10 * n
    sch = kernels.schur(a)
    assert np.linalg.norm(a - sch.q @ sch.t @ sch.q.conj().T) <= 1e-10 * scale
    assert unitarity_defect(sch.q) <= 1e-10 * n
    assert np.abs(np.tril(sch.t, -1)).max(initial=0.0) <= 1e-10 * scale
    res = kernels.svd(a)
    gram, colnorm = sv_residuals(a, res)
    assert gram <= 1e-10 * scale ** 2
    assert colnorm <= 1e-10 * scale
    assert unitarity_defect(res.v) <= 1e-10 * n
    assert np.all(np.diff(res.sigma) <= 0.0)
    assert np.all(res.sigma >= 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_singular_values_unitary_invariance(seed):
    rng = np.random.default_rng(100 + seed)
    n = 6
    a = random_complex(rng, n, n)
    q1 = generate_matrix("unitary", n, 2 * seed)
    q2 = generate_matrix("unitary", n, 2 * seed + 1)
    s0 = kernels.svd(a).sigma
    s1 = kernels.svd(q1 @ a @ q2).sigma
    assert np.abs(s0 - s1).max() <= 1e-9 * np.linalg.norm(a)


@pytest.mark.parametrize("seed", range(10))
def test_hermitian_singular_values_are_abs_eigenvalues(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_complex(rng, 6, 6)
    h = (g + g.conj().T) / 2.0
    sig = kernels.svd(h).sigma
    mods = np.sort(np.abs(kernels.schur(h).eigenvalues))[::-1]
    assert np.abs(sig - mods).max() <= 1e-9 * np.linalg.norm(h)


@pytest.mark.parametrize("seed", range(20))
def test_analytic_2x2_3x3_oracles(seed):
    rng = np.random.default_rng(300 + seed)
    a2 = random_complex(rng, 2, 2)
    scale2 = max(1.0, np.linalg.norm(a2))
    assert oracles.match_multisets(
        kernels.schur(a2).eigenvalues, oracles.eig2x2(a2)
    ) <= 1e-10 * scale2
    assert np.abs(kernels.svd(a2).sigma - oracles.sv2x2(a2)).max() <= 1e-10 * scale2
    a3 = random_complex(rng, 3, 3)
    scale3 = max(1.0, np.linalg.norm(a3))
    assert oracles.match_multisets(
        kernels.schur(a3).eigenvalues, oracles.eig3x3(a3)
    ) <= 1e-10 * scale3
    assert np.abs(kernels.svd(a3).sigma - oracles.sv3x3(a3)).max() <= 1e-10 * scale3


def test_triangular_eigenvalues_exact():
    rng = np.random.default_rng(9)
    t = np.triu(random_complex(rng, 7, 7))
    eigs = kernels.schur(t).eigenvalues
    assert oracles.match_multisets(eigs, np.diag(t)) <= 1e-10 * np.linalg.norm(t)
