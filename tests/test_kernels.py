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
        a = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 0.0]], dtype=complex)
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

    def test_circulant_shift(self):
        n = 6
        c = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            c[i, i + 1] = 1.0
        c[n - 1, 0] = 1.0
        res = kernels.schur(c)
        expected = np.exp(2j * np.pi * np.arange(n) / n)
        assert oracles.match_multisets(res.eigenvalues, expected) < 1e-10

    def test_nonconvergence_reports_iterations(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 8, 8)
        with pytest.raises(ConvergenceError) as exc:
            kernels.schur(a, max_iters=1)
        assert exc.value.iterations == 1


class TestSvd:
    def test_diagonal(self):
        res = kernels.svd(np.diag([2.0, 1.0]).astype(complex))
        assert np.allclose(res.sigma, [2.0, 1.0])
        assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-13)
        assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-13)

    def test_analytic_golden_ratio(self):
        res = kernels.svd(GOLDEN_2X2)
        assert res.sigma[0] == pytest.approx(PHI_PLUS, abs=1e-12)
        assert res.sigma[1] == pytest.approx(PHI_MINUS, abs=1e-12)

    def test_zero_matrix(self):
        res = kernels.svd(np.zeros((2, 2)))
        assert np.all(res.sigma == 0.0)
        assert unitarity_defect(res.u) < 1e-14

    def test_svd_relations_both_sides(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 6, 6)
        res = kernels.svd(a)
        anorm = np.linalg.norm(a)
        for i in range(6):
            assert np.linalg.norm(a @ res.v[:, i] - res.sigma[i] * res.u[:, i]) \
                <= 1e-10 * anorm
            assert np.linalg.norm(a.conj().T @ res.u[:, i] - res.sigma[i] * res.v[:, i]) \
                <= 1e-10 * anorm

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


class TestSmallestSingularValue:
    def test_identity(self):
        assert kernels.smallest_singular_value(np.eye(4)) == pytest.approx(1.0)

    def test_analytic(self):
        assert kernels.smallest_singular_value(GOLDEN_2X2) == \
            pytest.approx(PHI_MINUS, abs=1e-12)

    def test_singular_row_of_zeros(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0]], dtype=complex)
        assert kernels.smallest_singular_value(a) <= 2 * kernels.EPS * 3.0


def shifted_stack(a, xs):
    """zI - A for z on the square grid xs x xs, row-major."""
    zs = (xs[None, :] + 1j * xs[:, None]).ravel()
    return zs[:, None, None] * np.eye(a.shape[0]) - a


def sigma_min_batch_strict(stack):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return kernels.sigma_min_batch(stack)


class TestSigmaMinBatch:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_agrees_with_svd(self, kind, n):
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, n, 3, param)
        # the grid passes through 0, the eigenvalue of the Jordan block
        stack = shifted_stack(a, np.linspace(-2, 2, 5))
        sigma, converged = sigma_min_batch_strict(stack)
        assert converged.all()
        reference = np.array([kernels.svd(m).sigma[-1] for m in stack])
        scale = np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        assert (np.abs(sigma - reference) / scale).max() <= 1e-14

    def test_zero_stack(self):
        sigma, converged = sigma_min_batch_strict(np.zeros((3, 4, 4)))
        assert np.array_equal(sigma, np.zeros(3))
        assert converged.all()

    def test_empty_stack(self):
        sigma, converged = kernels.sigma_min_batch(np.zeros((0, 5, 5)))
        assert sigma.shape == (0,) and converged.shape == (0,)

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionError):
            kernels.sigma_min_batch(np.zeros((2, 3, 4)))

    def test_converges_when_only_lower_triangle_exceeds_tolerance(self):
        # the shifted matrix of TestSvd's case of the same name
        a = generate_matrix("ginibre", 6, 14011)
        xs = np.linspace(-2, 2, 21)
        z = xs[2] + 1j * xs[12]
        sigma, converged = sigma_min_batch_strict((z * np.eye(6) - a)[None])
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
        assert sigma_min_batch_strict(stack)[1].all()
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        sigma, converged = sigma_min_batch_strict(stack)
        assert converged.tolist() == [False] * 9 + [True]
        assert sigma[-1] == 1.0

    def test_nonfinite_item_is_unconverged(self):
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf)]).astype(complex)
        sigma, converged = kernels.sigma_min_batch(stack)
        assert converged.tolist() == [True, False]
        assert sigma[0] == 1.0 and np.isnan(sigma[1])


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
    assert np.linalg.norm(a - res.u @ np.diag(res.sigma) @ res.v.conj().T) \
        <= 1e-10 * scale
    assert unitarity_defect(res.u) <= 1e-10 * n
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
