"""Kernel factorization tests: frozen examples, residual properties, oracles."""

import ast
import warnings
from pathlib import Path

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


class TestNorm:
    """frob and the reflector norm are np.linalg.norm's arithmetic without its dispatch."""

    @staticmethod
    def inputs(complex_entries):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 16, 40):
            a = rng.standard_normal((n, n)) * np.logspace(-3, 3, n)
            if complex_entries:
                a = a + 1j * rng.standard_normal((n, n))
            yield a

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_frob_is_linalg_norm_bit_for_bit(self, complex_entries):
        for a in self.inputs(complex_entries):
            assert kernels.frob(a) == float(np.linalg.norm(a, "fro"))
            # a strided view ravels into a copy, as np.linalg.norm ravels it
            view = a[:, ::2]
            assert kernels.frob(view) == float(np.linalg.norm(view, "fro"))

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_reflector_norm_is_linalg_norm_bit_for_bit(self, complex_entries):
        for a in self.inputs(complex_entries):
            for k in range(a.shape[1]):
                # the strided column view _reflector receives, and a copy
                column = a[k:, k]
                assert kernels._norm(column) == float(np.linalg.norm(column))
                assert kernels._norm(column.copy()) == float(np.linalg.norm(column.copy()))

    def test_frob_takes_integers_as_float(self):
        assert kernels.frob(np.array([[3, 0], [0, 4]])) == 5.0


def linalg_uses(source: str) -> list[int]:
    """Lines of source that import numpy.linalg or read a `linalg` attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(
            alias.name.startswith("numpy.linalg") for alias in node.names
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
            (node.module or "").startswith("numpy.linalg")
            or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))
        ):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoNumpyLinalg:
    """numpy.linalg is a test and benchmark reference only: no module of the package uses it."""

    def test_package_never_uses_numpy_linalg(self):
        package = Path(kernels.__file__).parent
        found = {
            path.name: linalg_uses(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))
        }
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_guard_sees_every_spelling_but_not_docstrings(self):
        source = (
            '"""np.linalg.norm is only named here."""\n'
            "import numpy.linalg\n"
            "from numpy import linalg\n"
            "from numpy.linalg import norm\n"
            "x = np.linalg.norm(v)\n"
        )
        assert linalg_uses(source) == [2, 3, 4, 5]


class TestAsSquare:
    def test_returns_a_fresh_c_contiguous_copy(self):
        a = np.arange(9, dtype=np.complex128).reshape(3, 3)
        m = kernels.as_square(a)
        assert m is not a and not np.shares_memory(m, a)
        assert m.flags.c_contiguous and m.dtype == np.complex128
        assert np.array_equal(m, a)
        f = kernels.as_square(np.asfortranarray(a))
        assert f.flags.c_contiguous and np.array_equal(f, a)

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, 0.0), complex(0.0, -np.inf),
    ], ids=["nan-real", "nan-imag", "inf-real", "inf-imag"])
    def test_rejects_nonfinite_in_either_part(self, bad):
        a = np.eye(3, dtype=complex)
        a[1, 2] = bad
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            kernels.as_square(a)

    def test_nonsquare_with_nan_raises_nonfinite(self):
        # the finiteness check comes before the squareness check
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            kernels.as_square([[np.nan, 0.0, 1.0], [0.0, 1.0, 2.0]])


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


# the constant c of the Schur and Hessenberg bounds below; the largest ratio
# measured over these kinds and sizes (seeds 0-5) is about 3
SCHUR_C = 10.0


def reference_schur(a):
    """The Schur form with H and Q in separate arrays, on numpy scalars.

    The loop version of kernels.hessenberg and kernels.schur: the same
    reflectors, shifts, deflation and rotations, one product per factor.
    Returns (Q, T, iterations, exceptional shifts).
    """
    n = a.shape[0]
    h = a.astype(complex)
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        v = kernels._reflector(h[k + 1 :, k])
        if v is None:
            continue
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v.conj())
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v.conj())
    for j in range(n - 2):
        h[j + 2 :, j] = 0.0
    anorm = np.linalg.norm(a)

    def negligible(i):
        thresh = kernels.EPS * (abs(h[i - 1, i - 1]) + abs(h[i, i]))
        return abs(h[i, i - 1]) <= (thresh if thresh else kernels.EPS * anorm)

    m, iters, exceptional, stagnant = n - 1, 0, 0, 0
    while m > 0:
        if negligible(m):
            h[m, m - 1] = 0.0
            m, stagnant = m - 1, 0
            continue
        iters += 1
        stagnant += 1
        low = m
        while low > 0 and not negligible(low):
            low -= 1
        if low > 0:
            h[low, low - 1] = 0.0
        if stagnant % 10 == 0:
            exceptional += 1
            mu = h[m, m] + 0.75 * abs(h[m, m - 1])
        else:
            tr = h[m - 1, m - 1] + h[m, m]
            det = h[m - 1, m - 1] * h[m, m] - h[m - 1, m] * h[m, m - 1]
            disc = np.sqrt(complex(tr * tr - 4.0 * det))
            r1, r2 = (tr + disc) / 2.0, (tr - disc) / 2.0
            mu = r1 if abs(r1 - h[m, m]) <= abs(r2 - h[m, m]) else r2
        for i in range(low, m + 1):
            h[i, i] -= mu
        rotations = []
        for i in range(low, m):
            x0, x1 = h[i, i], h[i + 1, i]
            g = np.array([[np.conj(x0), np.conj(x1)], [-x1, x0]])
            g /= np.hypot(abs(x0), abs(x1))
            h[i : i + 2, i:] = g @ h[i : i + 2, i:]
            rotations.append(g)
        for i, g in zip(range(low, m), rotations):
            h[: i + 2, i : i + 2] = h[: i + 2, i : i + 2] @ g.conj().T
            q[:, i : i + 2] = q[:, i : i + 2] @ g.conj().T
        for i in range(low, m + 1):
            h[i, i] += mu
    return q, np.triu(h), iters, exceptional


class TestSchurSharedBuffer:
    """Bounds and counts of the Schur form whose Q and H share one array."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    @pytest.mark.parametrize(
        "kind",
        ["normal", "ginibre", "near_normal", "hermitian", "unitary", "jordan", "cyclic"],
    )
    def test_bit_identical_to_separate_factors(self, kind, n):
        # the shared buffer and the scalar reads change which numpy calls
        # run, not the arithmetic
        if kind == "cyclic":
            # at n = 3: ten stagnant iterations, then the exceptional shift
            a = np.roll(np.eye(n), 1, axis=1).astype(complex)
        else:
            a = generate_matrix(kind, n, 3, 1e-3 if kind == "near_normal" else None)
        q, t, iters, exceptional = reference_schur(a)
        res = kernels.schur(a)
        assert np.array_equal(res.q, q) and np.array_equal(res.t, t)
        assert (res.iterations, res.exceptional_shifts) == (iters, exceptional)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33])
    @pytest.mark.parametrize("kind", ["normal", "ginibre", "jordan", "near_normal"])
    def test_residual_bounds(self, kind, n):
        a = generate_matrix(kind, n, n, 1e-3 if kind == "near_normal" else None)
        eps_n = n * kernels.EPS
        anorm = np.linalg.norm(a)
        res = kernels.schur(a)
        assert np.linalg.norm(a - res.q @ res.t @ res.q.conj().T) <= SCHUR_C * eps_n * anorm
        assert unitarity_defect(res.q) <= SCHUR_C * eps_n
        assert np.array_equal(res.t, np.triu(res.t))
        assert np.array_equal(res.eigenvalues, np.diag(res.t))
        qh = kernels.hessenberg(a)
        assert qh.shape == (2 * n, n)
        q, h = qh[:n], qh[n:]
        assert np.all(np.tril(h, -2) == 0.0)
        assert np.linalg.norm(a - q @ h @ q.conj().T) <= SCHUR_C * eps_n * anorm
        assert unitarity_defect(q) <= SCHUR_C * eps_n

    def test_split_at_the_top_of_the_active_block(self):
        # block upper triangular: H keeps an exact zero at (3, 2), so the QR
        # steps of the trailing block start at low = 3 and no rotation
        # crosses the split, which leaves Q exactly block diagonal
        rng = np.random.default_rng(7)
        b1, b2, c = (random_complex(rng, 3, 3) for _ in range(3))
        a = np.block([[b1, c], [np.zeros((3, 3)), b2]])
        res = kernels.schur(a)
        assert res.iterations > 0
        assert np.all(res.q[:3, 3:] == 0.0) and np.all(res.q[3:, :3] == 0.0)
        expected = np.concatenate([oracles.eig3x3(b1), oracles.eig3x3(b2)])
        assert oracles.match_multisets(res.eigenvalues, expected) < 1e-12
        eps_n = 6 * kernels.EPS
        assert np.linalg.norm(a - res.q @ res.t @ res.q.conj().T) <= (
            SCHUR_C * eps_n * np.linalg.norm(a)
        )
        assert unitarity_defect(res.q) <= SCHUR_C * eps_n

    def test_cyclic_shift_takes_the_exceptional_shift(self):
        # the Wilkinson shift stagnates on the cyclic permutation for ten
        # iterations; the eleventh takes the exceptional shift and converges
        c = np.roll(np.eye(3), 1, axis=1).astype(complex)
        res = kernels.schur(c)
        assert (res.iterations, res.exceptional_shifts) == (11, 1)
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert oracles.match_multisets(res.eigenvalues, roots) < 1e-12

    def test_modulus_overflow_deflates_as_numpy_does(self):
        # |h[0, 0]| overflows: the builtin abs would raise OverflowError on it,
        # numpy's abs gives inf, so the deflation test passes at once
        a = [[1.5e308 + 1.5e308j, 1.0], [1.0, 0.0]]
        with np.errstate(all="ignore"):
            res = kernels.schur(a)
        assert (res.iterations, res.exceptional_shifts) == (0, 0)
        assert np.array_equal(res.q, np.eye(2))
        assert np.array_equal(res.t, np.array([[1.5e308 + 1.5e308j, 1.0], [0.0, 0.0]]))

    def test_schur_runs_hessenberg_once(self, monkeypatch):
        original = kernels.hessenberg
        calls = []

        def counted(a):
            calls.append(a)
            return original(a)

        monkeypatch.setattr(kernels, "hessenberg", counted)
        kernels.schur(generate_matrix("ginibre", 8, 1))
        assert len(calls) == 1


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

    @pytest.mark.parametrize("bounded", [False, True])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_values_only_keeps_every_bit_but_v(self, kind, bounded):
        # without V the core runs on A's columns alone: sigma, the least
        # column, converged and sweeps are those of the run with V
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, 6, 8, param)
        stack = shifted_stack(a, np.linspace(-2, 2, 4))
        bound = 0.5 * kernels.svd(stack).sigma[:, 0] if bounded else None
        full = kernels.svd(stack, bound)
        values = kernels.svd(stack, bound, vectors=False)
        assert values.v is None
        for name in ("sigma", "least", "converged", "sweeps"):
            assert np.array_equal(getattr(values, name), getattr(full, name)), name
        if bounded:
            assert not full.converged.all()

    def test_least_column_is_a_times_the_last_v(self):
        # ||least|| is sigma_min in sigma's own arithmetic; with V it is
        # A v for the last column v, up to round-off and v's pinned phase
        a = generate_matrix("ginibre", 5, 3)
        stack = shifted_stack(a, np.linspace(-1, 1, 3))
        res = kernels.svd(stack)
        norms = np.sqrt(np.add.reduce(np.square(np.abs(res.least)), axis=-1))
        assert np.array_equal(norms, res.sigma[:, -1])
        for m, v, least in zip(stack, res.v, res.least):
            image = m @ v[:, -1]
            phase = np.vdot(least, image) / abs(np.vdot(least, image))
            assert np.linalg.norm(image - phase * least) <= 1e-13 * np.linalg.norm(m)
        one = kernels.svd(stack[0], vectors=False)
        assert one.v is None and np.array_equal(one.least, res.least[0])

    def test_values_only_raises_as_with_vectors(self, monkeypatch):
        stack = np.stack([np.eye(3), np.eye(3)]).astype(complex)
        stack[1, 0, 2] = np.nan
        with pytest.raises(NonFiniteError):
            kernels.svd(stack, vectors=False)
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        m = 0.5 * np.eye(6) - generate_matrix("ginibre", 6, 2)
        with pytest.raises(ConvergenceError) as full:
            kernels.svd(m)
        with pytest.raises(ConvergenceError) as values:
            kernels.svd(m, vectors=False)
        assert str(values.value) == str(full.value)
        assert values.value.residual == full.value.residual


class TestJacobiBound:
    # a per-item bound stops the core after the first sweep that leaves an
    # item still rotating with a column norm below it
    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("kind", ["ginibre", "normal", "near_normal", "jordan"])
    def test_no_item_below_its_bound_is_bit_identical(self, kind, vectors):
        param = {"near_normal": 1e-3, "jordan": 0.0}.get(kind)
        a = generate_matrix(kind, 6, 8, param)
        stack = shifted_stack(a, np.linspace(-2, 2, 4))
        free = kernels.jacobi_svd(stack, vectors)
        bounded = kernels.jacobi_svd(stack, vectors, bound=0.5 * free.sigma[:, -1])
        assert (free.status == kernels.OK).all() and (free.sweeps > 1).any()
        for name in ("sigma", "status", "residual", "sweeps"):
            assert np.array_equal(getattr(bounded, name), getattr(free, name))
        assert (free.v is None) == (not vectors)
        assert not vectors or np.array_equal(bounded.v, free.v)
        res = kernels.svd(stack, bound=0.5 * free.sigma[:, -1])
        assert res.converged.all()
        assert np.array_equal(res.sigma, kernels.svd(stack).sigma)

    def test_a_witness_stops_the_stack(self):
        # item 1's bound lies above its sigma_min; every column norm is an
        # upper bound on sigma_min, so the first sweep that brings one below
        # the bound stops every item still rotating
        a = generate_matrix("ginibre", 8, 2)
        stack = shifted_stack(a, np.linspace(-1, 1, 3))
        free = kernels.svd(stack)
        bound = np.zeros(len(stack))
        bound[1] = 2.0 * free.sigma[1, -1]
        res = kernels.jacobi_svd(stack, vectors=True, bound=bound)
        stop = int(res.sweeps.max())
        assert 1 <= stop < kernels.jacobi_svd(stack, vectors=True).sweeps.max()
        assert res.sigma[1, -1] < bound[1]
        assert set(res.status.tolist()) <= {kernels.OK, kernels.STOPPED}
        assert (res.sweeps[res.status == kernels.STOPPED] == stop).all()
        assert (res.residual == 0.0).all()
        # sigma are the column norms of A V, and the smallest bounds sigma_min
        # from above
        for m, sigma, v in zip(stack, res.sigma, res.v):
            norms = np.linalg.norm(m @ v, axis=0)
            assert np.abs(norms - sigma).max() <= 1e-13 * np.linalg.norm(m)
            assert unitarity_defect(v) <= 1e-13
        assert (res.sigma[:, -1] >= free.sigma[:, -1] - 1e-13).all()
        raised = kernels.svd(stack, bound=bound)
        assert np.array_equal(raised.converged, res.status == kernels.OK)
        assert np.array_equal(raised.sigma, res.sigma)
        assert np.array_equal(raised.sweeps, res.sweeps)

    def test_stopped_items_are_not_unconverged(self, monkeypatch):
        # with a one-sweep budget the ginibre items run out of sweeps; a
        # bound met in that sweep makes them STOPPED, which svd returns
        a = generate_matrix("ginibre", 6, 2)
        stack = shifted_stack(a, np.linspace(-1, 1, 3))
        bound = 2.0 * kernels.svd(stack).sigma[:, -1]
        monkeypatch.setattr(kernels, "MAX_JACOBI_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            kernels.svd(stack)
        res = kernels.svd(stack, bound=bound)
        assert not res.converged.any() and (res.sweeps == 1).all()

    def test_refused_item_never_stops_the_stack(self):
        # a refused item's columns are zeroed, which says nothing about it
        a = generate_matrix("ginibre", 5, 6)
        nan_item = np.eye(5, dtype=complex)
        nan_item[2, 3] = np.nan
        stack = np.concatenate([shifted_stack(a, np.linspace(-1, 1, 2)), nan_item[None]])
        free = kernels.jacobi_svd(stack, vectors=False)
        bounded = kernels.jacobi_svd(stack, vectors=False, bound=np.full(len(stack), 1e300))
        assert bounded.status[-1] == kernels.NONFINITE_ENTRY
        assert (bounded.status[:-1] == kernels.STOPPED).all()
        assert (bounded.sweeps[:-1] == 1).all()
        one = kernels.jacobi_svd(stack, vectors=False, bound=np.r_[np.zeros(4), 1e300])
        for name in ("sigma", "status", "residual", "sweeps"):
            assert np.array_equal(getattr(one, name), getattr(free, name), equal_nan=True)

    def test_single_matrix_takes_a_scalar_bound(self):
        res = kernels.svd(GOLDEN_2X2, bound=10.0)
        assert res.converged.shape == () and not res.converged
        assert res.sweeps.shape == () and res.sweeps == 1
        assert kernels.svd(GOLDEN_2X2, bound=0.0).converged

    @pytest.mark.parametrize("shape", [(), (2,), (3, 1), (4,)])
    def test_rejects_a_bound_of_the_wrong_shape(self, shape):
        stack = np.stack([np.eye(3), 2.0 * np.eye(3), 3.0 * np.eye(3)])
        with pytest.raises(DimensionError, match="bound"):
            kernels.jacobi_svd(stack, vectors=False, bound=np.zeros(shape))
        with pytest.raises(DimensionError, match="bound"):
            kernels.svd(stack, bound=np.zeros(shape))
        with pytest.raises(DimensionError, match="bound"):
            kernels.svd(stack[0], bound=np.zeros((1,) + shape))

    def test_sweeps_count_the_convergence_test(self):
        # a diagonal item rotates nothing, so its one sweep is the test
        a = generate_matrix("ginibre", 4, 3)
        diagonal = np.diag([4.0, 3.0, 2.0, 1.0])[None]
        stack = np.concatenate([diagonal, shifted_stack(a, np.array([0.5]))])
        res = kernels.jacobi_svd(stack, vectors=False)
        assert res.sweeps[0] == 1 and res.sweeps[1] > 1


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
