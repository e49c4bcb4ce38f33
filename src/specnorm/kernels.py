"""Dense complex linear-algebra primitives.

Self-contained factorizations for desk-scale matrices: Householder QR,
Hessenberg reduction plus shifted-QR Schur form, one-sided Jacobi SVD,
rank at tolerance, and modified Gram-Schmidt.
`sigma_min_batch` is the same Jacobi, values only, over a stack of matrices;
`scan.scan_grid` and `scan.check_corollary` evaluate all their shifts of one
matrix with it through `spectral.shifted_sigma_min_batch`, while the
certifier's probes call `svd` one matrix at a time.
numpy is used for array arithmetic only; no numpy.linalg factorizations are
called on any production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DependenceError, DimensionError, NonFiniteError

EPS = float(np.finfo(np.float64).eps)

MAX_QR_ITERS_PER_N = 30
MAX_JACOBI_SWEEPS = 30


def as_matrix(a) -> np.ndarray:
    """Validate and coerce input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    return np.array(m, dtype=np.complex128, order="C")


def as_square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got {m.shape}")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def phase_normalize(v: np.ndarray, cutoff: float = 0.0) -> np.ndarray:
    """Rotate a vector so its first significant component is real >= 0."""
    v = np.asarray(v, dtype=np.complex128)
    amax = float(np.max(np.abs(v))) if v.size else 0.0
    if amax == 0.0:
        return v.copy()
    thresh = max(cutoff, 1e-12 * amax)
    idx = int(np.argmax(np.abs(v) > thresh))
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (abs(pivot) / pivot)


# ---------------------------------------------------------------------------
# Householder QR
# ---------------------------------------------------------------------------


def householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Full QR factorization A = Q R of an m x n matrix with m >= n.

    Q is m x m unitary, R is m x n upper triangular. Complex Householder
    reflections with the usual sign choice (pivot pushed away from zero).
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionError(f"householder_qr requires rows >= cols, got {a.shape}")
    r = a.copy()
    q = np.eye(m, dtype=np.complex128)
    for k in range(min(n, m - 1)):
        x = r[k:, k]
        normx = float(np.linalg.norm(x))
        if normx == 0.0:
            continue
        alpha = x[0]
        phase = alpha / abs(alpha) if abs(alpha) > 0.0 else 1.0
        v = x.copy()
        v[0] += phase * normx
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        r[k:, k:] -= 2.0 * np.outer(v, v.conj() @ r[k:, k:])
        q[:, k:] -= 2.0 * np.outer(q[:, k:] @ v, v.conj())
    # make the R diagonal real nonnegative so the factorization is unique
    for k in range(n):
        piv = r[k, k]
        if abs(piv) > 0.0 and piv != abs(piv):
            ph = piv / abs(piv)
            r[k, k:] /= ph
            q[:, k] *= ph
    return q, np.triu(r)


# ---------------------------------------------------------------------------
# Hessenberg reduction and Schur form
# ---------------------------------------------------------------------------


def hessenberg(a) -> tuple[np.ndarray, np.ndarray]:
    """Unitary reduction A = Q H Q* with H upper Hessenberg."""
    a = as_square(a)
    n = a.shape[0]
    h = a.copy()
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 2):
        x = h[k + 1 :, k]
        normx = float(np.linalg.norm(x))
        if normx == 0.0:
            continue
        alpha = x[0]
        phase = alpha / abs(alpha) if abs(alpha) > 0.0 else 1.0
        v = x.copy()
        v[0] += phase * normx
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            continue
        v /= vnorm
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v.conj())
        q[:, k + 1 :] -= 2.0 * np.outer(q[:, k + 1 :] @ v, v.conj())
    # entries below the first subdiagonal are reflection round-off
    for j in range(n - 2):
        h[j + 2 :, j] = 0.0
    return q, h


@dataclass
class SchurResult:
    """Complex Schur form A = Q T Q* with eigenvalues on diag(T)."""

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray


def _wilkinson_shift(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Eigenvalue of [[a, b], [c, d]] closest to d."""
    tr = a + d
    det = a * d - b * c
    disc = np.sqrt(complex(tr * tr - 4.0 * det))
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    return r1 if abs(r1 - d) <= abs(r2 - d) else r2


def schur(a, max_iters: int | None = None) -> SchurResult:
    """Complex Schur decomposition via Hessenberg + shifted QR.

    Single Wilkinson shift from the trailing 2x2 of the active block;
    deflation when a subdiagonal drops below eps*(|h[i-1,i-1]| + |h[i,i]|).
    An exceptional shift is injected every 10 stagnant iterations.
    """
    a = as_square(a)
    n = a.shape[0]
    if max_iters is None:
        max_iters = MAX_QR_ITERS_PER_N * n
    anorm = frob(a)
    if n == 1:
        return SchurResult(
            np.eye(1, dtype=np.complex128), a.copy(), np.array([a[0, 0]])
        )
    q, h = hessenberg(a)

    def negligible(i: int) -> bool:
        thresh = EPS * (abs(h[i - 1, i - 1]) + abs(h[i, i]))
        if thresh == 0.0:
            thresh = EPS * anorm
        return abs(h[i, i - 1]) <= thresh

    m = n - 1
    iters = 0
    stagnant = 0
    while m > 0:
        if negligible(m):
            h[m, m - 1] = 0.0
            m -= 1
            stagnant = 0
            continue
        iters += 1
        stagnant += 1
        if iters > max_iters:
            raise ConvergenceError(
                f"shifted QR did not converge after {iters - 1} iterations "
                f"(trailing subdiagonal {abs(h[m, m - 1]):.3e})",
                iterations=iters - 1,
                residual=float(abs(h[m, m - 1])),
            )
        # start of the active block
        low = m
        while low > 0 and not negligible(low):
            low -= 1
        if low > 0:
            h[low, low - 1] = 0.0
        if stagnant % 10 == 0:
            # deterministic exceptional shift to break symmetric cycling
            mu = h[m, m] + 0.75 * abs(h[m, m - 1])
        else:
            mu = _wilkinson_shift(
                h[m - 1, m - 1], h[m - 1, m], h[m, m - 1], h[m, m]
            )
        for i in range(low, m + 1):
            h[i, i] -= mu
        rotations = []
        for i in range(low, m):
            x0 = h[i, i]
            x1 = h[i + 1, i]
            r = float(np.hypot(abs(x0), abs(x1)))
            if r == 0.0:
                g = np.eye(2, dtype=np.complex128)
            else:
                g = np.array(
                    [[np.conj(x0), np.conj(x1)], [-x1, x0]], dtype=np.complex128
                )
                g /= r
            h[i : i + 2, i:] = g @ h[i : i + 2, i:]
            rotations.append(g)
        for idx, i in enumerate(range(low, m)):
            gc = rotations[idx].conj().T
            h[: i + 2, i : i + 2] = h[: i + 2, i : i + 2] @ gc
            q[:, i : i + 2] = q[:, i : i + 2] @ gc
        for i in range(low, m + 1):
            h[i, i] += mu
    t = np.triu(h)
    return SchurResult(q, t, np.diag(t).copy())


def eigenvalues(a) -> np.ndarray:
    """Eigenvalue multiset of a square matrix (diagonal of the Schur form)."""
    return schur(a).eigenvalues


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------


@dataclass
class SvdResult:
    """Full SVD A = U diag(sigma) V* with sigma sorted non-increasing."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def _pair_rotation(app: float, apq: complex, aqq: float) -> np.ndarray:
    """Unitary 2x2 diagonalizing the Hermitian pair Gram matrix.

    Factors the phase of the coupling out and applies the classical Jacobi
    angle t = sign(tau)/(|tau| + sqrt(1 + tau^2)), which stays accurate when
    the coupling is tiny relative to the diagonal separation.
    """
    acpq = abs(apq)
    if acpq == 0.0:
        return np.eye(2, dtype=np.complex128)
    phase = apq / acpq
    tau = (aqq - app) / (2.0 * acpq)
    if tau >= 0.0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    cs = 1.0 / np.sqrt(1.0 + t * t)
    sn = t * cs
    return np.array(
        [[cs * phase, sn * phase], [-sn, cs]], dtype=np.complex128
    )


def _complete_orthonormal(cols: list[np.ndarray], m: int) -> np.ndarray:
    """Extend an orthonormal column list to a full m x m unitary.

    The completion columns come from the trailing Householder-QR factor of
    the given columns, so the given columns are kept verbatim.
    """
    r = len(cols)
    if r == 0:
        return np.eye(m, dtype=np.complex128)
    if r == m:
        return np.column_stack(cols)
    q, _ = householder_qr(np.column_stack(cols))
    return np.column_stack(cols + [q[:, j] for j in range(r, m)])


def svd(a, max_sweeps: int = MAX_JACOBI_SWEEPS) -> SvdResult:
    """One-sided Jacobi SVD of a dense complex matrix.

    Rotations orthogonalize column pairs of the working matrix; the
    accumulated rotations form V and the normalized columns form U. Accurate
    for small singular values, which is what the shifted-matrix consumers
    need.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        res = svd(a.conj().T, max_sweeps=max_sweeps)
        return SvdResult(res.v, res.sigma, res.u)
    w = a.copy()
    v = np.eye(n, dtype=np.complex128)
    ctol = 8.0 * EPS * max(m, n)
    off = 0.0
    for _ in range(max_sweeps):
        g = w.conj().T @ w
        # largest coupling ratio rotated away in this sweep. The pair test is
        # the only convergence test: w*w is not exactly Hermitian, so a test
        # of its full off-diagonal can disagree with the upper-triangle
        # rotation rule and stall. A sweep that rotates nothing has converged.
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = max(g[p, p].real, 0.0)
                aqq = max(g[q, q].real, 0.0)
                apq = g[p, q]
                scale = np.sqrt(app * aqq)
                if scale == 0.0 or abs(apq) <= ctol * scale:
                    continue
                off = max(off, float(abs(apq) / scale))
                j = _pair_rotation(app, apq, aqq)
                w[:, [p, q]] = w[:, [p, q]] @ j
                v[:, [p, q]] = v[:, [p, q]] @ j
                jc = j.conj().T
                g[[p, q], :] = jc @ g[[p, q], :]
                g[:, [p, q]] = g[:, [p, q]] @ j
                g[p, q] = np.conj(g[q, p])
        if off == 0.0:
            break
    else:
        raise ConvergenceError(
            f"Jacobi SVD did not converge after {max_sweeps} sweeps "
            f"(off-diagonal ratio {off:.3e})",
            iterations=max_sweeps,
            residual=off,
        )
    norms = np.sqrt(np.sum(np.abs(w) ** 2, axis=0))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    v = v[:, order]
    w = w[:, order]
    cutoff = m * EPS * (sigma[0] if sigma.size else 0.0)
    ucols = []
    for i in range(n):
        if sigma[i] > cutoff and sigma[i] > 0.0:
            ucols.append(w[:, i] / sigma[i])
        else:
            break
    rank = len(ucols)
    # one free phase per singular pair: pin it on the V column
    for i in range(rank):
        pivot_idx = int(np.argmax(np.abs(v[:, i]) > 1e-12))
        pivot = v[pivot_idx, i]
        if abs(pivot) > 0.0:
            ph = abs(pivot) / pivot
            v[:, i] *= ph
            ucols[i] = ucols[i] * ph
    for i in range(rank, n):
        v[:, i] = phase_normalize(v[:, i])
    u = _complete_orthonormal(ucols, m)
    for i in range(rank, m):
        u[:, i] = phase_normalize(u[:, i])
    return SvdResult(u, sigma, v)


def singular_values(a) -> np.ndarray:
    return svd(a).sigma


def smallest_singular_value(a) -> float:
    """sigma_n of a square matrix."""
    a = as_square(a)
    return float(svd(a).sigma[-1])


def sigma_min_batch(stack) -> tuple[np.ndarray, np.ndarray]:
    """Smallest singular value of every matrix in a (B, n, n) stack.

    The one-sided Jacobi of `svd`, values only: no U, no V, no completion.
    The cyclic pair loop runs in Python and each pair step is vectorized over
    the stack, with fresh column inner products and the rotation rule, angle
    and tolerance of `svd`. An item has converged when a sweep rotates
    nothing in it; it then stays as it is, so it leaves the working set.
    sigma_min is the smallest column norm. Items with a NaN or Inf entry, or
    that still rotate in sweep MAX_JACOBI_SWEEPS, are reported unconverged; the
    former with sigma_min NaN.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise DimensionError(f"expected a (B, n, n) stack with n >= 1, got {stack.shape}")
    b, n, _ = stack.shape
    ctol = 8.0 * EPS * n

    def min_column_norm(x):
        return np.sqrt(np.sum(np.abs(x) ** 2, axis=2)).min(axis=1)

    sigma = np.full(b, np.nan)
    converged = np.zeros(b, dtype=bool)
    live = np.flatnonzero(np.isfinite(stack).all(axis=(1, 2)))
    # w[i, j] is column j of live item i, contiguous
    w = stack[live].transpose(0, 2, 1).copy()
    for _ in range(MAX_JACOBI_SWEEPS):
        if live.size == 0:
            break
        rotated = np.zeros(live.size, dtype=bool)
        for p in range(n - 1):
            for q in range(p + 1, n):
                wp = w[:, p]
                wq = w[:, q]
                app = np.einsum("ij,ij->i", wp.conj(), wp).real
                aqq = np.einsum("ij,ij->i", wq.conj(), wq).real
                apq = np.einsum("ij,ij->i", wp.conj(), wq)
                acpq = np.abs(apq)
                scale = np.sqrt(app * aqq)
                k = np.flatnonzero((scale > 0.0) & (acpq > ctol * scale))
                if k.size == 0:
                    continue
                rotated[k] = True
                acpq = acpq[k]
                phase = apq[k] / acpq
                tau = (aqq[k] - app[k]) / (2.0 * acpq)
                # svd's angle with the sign outside the fraction: each branch
                # of svd's formula has a zero divisor for large |tau| of the
                # other sign; hypot(1, tau) is sqrt(1 + tau^2) without overflow
                t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
                cs = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * cs
                wpk = wp[k]
                wqk = wq[k]
                w[k, p] = wpk * (cs * phase)[:, None] - wqk * sn[:, None]
                w[k, q] = wpk * (sn * phase)[:, None] + wqk * cs[:, None]
        done = ~rotated
        converged[live[done]] = True
        sigma[live[done]] = min_column_norm(w[done])
        live = live[rotated]
        w = w[rotated]
    if live.size:
        sigma[live] = min_column_norm(w)
    return sigma, converged


def rank_with_tol(a, tol: float) -> int:
    """Number of singular values strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    sigma = svd(as_matrix(a)).sigma
    return int(np.sum(sigma > tol))


# ---------------------------------------------------------------------------
# Modified Gram-Schmidt
# ---------------------------------------------------------------------------


def gram_schmidt_orthonormalize(vectors, kappa_rank: float | None = None):
    """Orthonormalize a sequence of vectors by modified Gram-Schmidt.

    Two MGS passes per vector for numerical orthogonality. Raises
    DependenceError naming the first vector whose projected residual falls
    below kappa_rank times the input scale.
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vecs:
        return []
    dim = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise DimensionError(f"vector {i} has length {v.shape[0]}, expected {dim}")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise NonFiniteError(f"vector {i} contains NaN or Inf")
    scale = max(float(np.linalg.norm(v)) for v in vecs)
    if kappa_rank is None:
        kappa_rank = max(len(vecs), dim) * EPS * 10.0
    out: list[np.ndarray] = []
    for i, v in enumerate(vecs):
        w = v.copy()
        for _ in range(2):
            for u in out:
                w = w - (u.conj() @ w) * u
        nrm = float(np.linalg.norm(w))
        if nrm <= kappa_rank * scale:
            raise DependenceError(
                f"vector {i} is numerically dependent on its predecessors "
                f"(residual norm {nrm:.3e})",
                index=i,
            )
        out.append(phase_normalize(w / nrm))
    return out
