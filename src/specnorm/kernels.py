"""Dense complex linear-algebra primitives.

Self-contained factorizations for desk-scale matrices: Householder QR and
Hessenberg reduction (one reflector) plus shifted-QR Schur form, one-sided
Jacobi singular values (sigma and V of a square matrix, no U), rank at
tolerance, and modified Gram-Schmidt.
Every singular value comes from one one-sided Jacobi core, `_jacobi`, over a
stack of column sets. Its sweeps follow a round-robin ordering (Brent & Luk
1985): the n(n-1)/2 column pairs fall into n-1 steps (n for odd n) of
disjoint pairs, and each step is one vectorized update of every pair in every
live item. A step costs a fixed number of numpy calls however many pairs
and items it holds: pairs that do not rotate get the exact identity through
arithmetic masks, not a branch, and the coupling's phase rides on the one
complex coefficient of the rotation (the columns differ from a real-sine
rotation's only by unit phases, which `svd`'s phase pinning on V absorbs).
An item that runs out of sweeps reports the largest coupling left in its
columns.
`svd` runs the core on [A; I] for a square matrix, or on every [A_i; I] of
a (B, n, n) stack in one call, so V rides along under A; it returns sigma
and V and no U, since every caller reads sigma and only V's readers
(`certifier.eigenspace_basis` and the certifier's witness vector) also read
V. The certifier evaluates all its probes as one such stack (through
`spectral.shifted_smallest_pair`). `sigma_min_batch` runs the core on a
(B, n, n) stack for values only, which is how `scan.scan_grid` and
`scan.check_corollary` evaluate all their shifts of one matrix (through
`spectral.shifted_sigma_min_batch`). Those stacks are built in `spectral`
as zB - AB = (zI - A)B: B is the Schur factor Q of an Analysis whose
||Q*Q - I||_F meets certify's bound TOL_CERT*n, which makes the columns
nearly orthogonal for a normal or near-normal A and moves the singular
values by at most ||zI - A||_2 ||Q*Q - I||_2, and B = I otherwise. The
kernels see plain matrices either way. A singular value that comes out
non-finite (entries outside about 1e-145..1e154) is never reported as a
result, and neither is one of a nonzero matrix whose column norms are all
below sqrt(TINY), about 1.5e-154, where the squared norms underflow (below
about 1e-161 they read 0): `svd` raises NonFiniteError and
`sigma_min_batch` flags the item unconverged with NaN.
numpy is used for array arithmetic only; no numpy.linalg factorizations are
called on any production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DependenceError, DimensionError, NonFiniteError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)

MAX_QR_ITERS_PER_N = 30
MAX_JACOBI_SWEEPS = 30


def as_square(a) -> np.ndarray:
    """Validate and coerce input to a square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got {m.shape}")
    return np.array(m, dtype=np.complex128, order="C")


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a), "fro"))


def _pin_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each vector on the last axis so its first significant entry is real >= 0.

    Significant means above 1e-12 times the vector's largest entry; a zero
    vector stays as it is.
    """
    mag = np.abs(v)
    first = np.argmax(mag > 1e-12 * mag.max(axis=-1, keepdims=True), axis=-1)
    pivot = np.take_along_axis(v, first[..., None], axis=-1)
    apivot = np.abs(pivot)
    return v * np.divide(apivot, pivot, out=np.ones_like(pivot), where=apivot > 0.0)


# ---------------------------------------------------------------------------
# Householder QR, Hessenberg reduction and Schur form
# ---------------------------------------------------------------------------


def _reflector(x: np.ndarray) -> np.ndarray | None:
    """Unit Householder vector of x, pivot pushed away from zero; None for x = 0."""
    normx = float(np.linalg.norm(x))
    if normx == 0.0:
        return None
    alpha = x[0]
    phase = alpha / abs(alpha) if abs(alpha) > 0.0 else 1.0
    v = x.copy()
    # |v[0]| = |x[0]| + ||x||, so ||v|| >= ||x|| > 0
    v[0] += phase * normx
    return v / float(np.linalg.norm(v))


def householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Full QR factorization A = Q R of a square matrix (else DimensionError).

    Q is unitary, R is upper triangular with a real nonnegative diagonal.
    """
    a = as_square(a)
    n = a.shape[0]
    r = a.copy()
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        v = _reflector(r[k:, k])
        if v is None:
            continue
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


def hessenberg(a) -> tuple[np.ndarray, np.ndarray]:
    """Unitary reduction A = Q H Q* with H upper Hessenberg."""
    a = as_square(a)
    n = a.shape[0]
    h = a.copy()
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 2):
        v = _reflector(h[k + 1 :, k])
        if v is None:
            continue
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


def schur(a) -> SchurResult:
    """Complex Schur decomposition via Hessenberg + shifted QR.

    Single Wilkinson shift from the trailing 2x2 of the active block;
    deflation when a subdiagonal drops below eps*(|h[i-1,i-1]| + |h[i,i]|).
    An exceptional shift is injected every 10 stagnant iterations, and at
    most MAX_QR_ITERS_PER_N * n iterations run. A 1x1 matrix runs none:
    Q = [[1]] and T = A.
    """
    a = as_square(a)
    n = a.shape[0]
    max_iters = MAX_QR_ITERS_PER_N * n
    anorm = frob(a)
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


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------


@dataclass
class SvdResult:
    """Singular values and right singular vectors of a square matrix A.

    sigma is sorted non-increasing and V is unitary; column i of A V is
    orthogonal to the others and has norm sigma[i].
    """

    sigma: np.ndarray
    v: np.ndarray


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The steps of one parallel Jacobi sweep over n columns.

    Round-robin (circle) ordering: slot 0 stays put and the other slots move
    one place per step; odd n gets a dummy slot, whose partner sits the step
    out. Each step is a pair of index arrays (p, q) with p < q, disjoint
    within the step, and every pair p < q meets in exactly one step. The
    result is cached per n, so its arrays are read-only.
    """
    m = n + n % 2
    slots = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = [
            (min(i, j), max(i, j))
            for i, j in zip(slots[: m // 2], reversed(slots[m // 2 :]))
            if max(i, j) < n
        ]
        if pairs:
            p, q = np.array(pairs).T
            p.flags.writeable = False
            q.flags.writeable = False
            steps.append((p, q))
        slots = [slots[0], slots[-1]] + slots[1:-1]
    return tuple(steps)


def _jacobi(x: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi over a (B, n, L) stack of column sets.

    x[i, j] is column j of item i. Rotations orthogonalize the first `rows`
    entries of the columns; the remaining entries ride along (in `svd` they
    are the rows of V). A C-contiguous x is rotated in place (`svd` passes
    its own fresh array); any other x is rotated in a C-contiguous copy.
    Each sweep runs the steps of `_round_robin(n)`, and each step rotates
    all its disjoint pairs in all live items at once, from fresh inner
    products (`np.vecdot`, which conjugates its first argument).
    A pair rotates when its coupling |apq| exceeds 8*EPS*rows times
    sqrt(app)*sqrt(aqq); the square roots are taken apart because app*aqq
    overflows for entries above about 1e77 and underflows below about 1e-81.
    The angle is t = sign(tau)/(|tau| + sqrt(1 + tau^2)) with
    tau = (aqq - app)/(2|apq|), accurate when the coupling is tiny against
    the diagonal separation, and cs = 1/sqrt(1 + t^2).
    The coupling's phase rides on one coefficient, s = t*cs*apq/|apq|:
    w_p <- cs*w_p - conj(s)*w_q and w_q <- s*w_p + cs*w_q. This is the
    rotation with a real sine followed by the unit phase conj(apq/|apq|) on
    the new w_p, so no norm and no coupling magnitude changes.
    Pairs that do not rotate get the exact identity without a branch: their
    denominator is |apq| + 1 instead of |apq| and their t is 0, so cs = 1
    and s = 0.
    An item has converged when a sweep rotates nothing in it; it then leaves
    the working set. Returns the rotated stack, the converged flags and, per
    item, the residual: 0 for a converged item, and for an item still
    rotating when MAX_JACOBI_SWEEPS ran out, the largest coupling
    |<w_p, w_q>|/(||w_p|| ||w_q||) over the first `rows` entries left in its
    returned columns. Entries outside about 1e-145..1e154 give non-finite
    columns; the callers reject those.
    """
    w = np.ascontiguousarray(x)
    b, n, _ = w.shape
    ctol = 8.0 * EPS * rows
    steps = _round_robin(n)
    converged = np.zeros(b, dtype=bool)
    off = np.zeros(b)
    live = np.arange(b)
    work = w
    for _ in range(MAX_JACOBI_SWEEPS):
        if live.size == 0:
            break
        moved = np.zeros(live.size, dtype=bool)
        for p, q in steps:
            wp = work[:, p]
            wq = work[:, q]
            hp = wp[..., :rows]
            hq = wq[..., :rows]
            # squared norms as real dot products over the float64 view,
            # which at B in the hundreds cost 0.6x of a complex vecdot
            fp = hp.view(np.float64)
            fq = hq.view(np.float64)
            app = np.vecdot(fp, fp)
            aqq = np.vecdot(fq, fq)
            apq = np.vecdot(hp, hq)
            acpq = np.abs(apq)
            scale = np.sqrt(app) * np.sqrt(aqq)
            rot = (scale > 0.0) & (acpq > ctol * scale)
            if not np.count_nonzero(rot):
                continue
            moved |= rot.any(axis=1)
            den = acpq + ~rot
            tau = (aqq - app) / (2.0 * den)
            t = np.copysign(rot / (np.abs(tau) + np.hypot(1.0, tau)), tau)
            cs = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * cs) * apq / den
            cs = cs[..., None]
            s = s[..., None]
            work[:, p] = cs * wp - s.conj() * wq
            work[:, q] = s * wp + cs * wq
        done = ~moved
        if done.any():
            converged[live[done]] = True
            w[live[done]] = work[done]
            live, work = live[~done], work[~done]
    if live.size:
        w[live] = work
        h = work[..., :rows]
        gram = h.conj() @ h.transpose(0, 2, 1)
        norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
        p, q = np.triu_indices(n, 1)
        scale = norms[:, p] * norms[:, q]
        ratio = np.abs(gram[:, p, q]) / np.where(scale > 0.0, scale, np.inf)
        off[live] = ratio.max(axis=1, initial=0.0)
    return w, converged, off


def as_square_stack(a) -> np.ndarray:
    """Validate a square matrix or a (B, n, n) stack of them as complex128.

    A matrix goes through as_square; a stack gets the same rules for every
    item (B >= 1, square, n >= 1, finite entries).
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 2:
        return as_square(m)
    if m.ndim != 3 or m.shape[0] < 1 or m.shape[1] < 1 or m.shape[1] != m.shape[2]:
        raise DimensionError(
            f"expected a square matrix or a (B, n, n) stack with B, n >= 1, got {m.shape}"
        )
    if not np.isfinite(m).all():
        raise NonFiniteError("stack contains NaN or Inf entries")
    return m


def _underflows(stack: np.ndarray) -> np.ndarray:
    """Per item of a (B, n, n) stack: a nonzero entry, but every squared column norm below TINY.

    The Jacobi core works on squared norms and inner products, so such an
    item's singular values would come out wrong (zero below about 1e-161)
    and flagged as converged.
    """
    sq = (stack.real * stack.real + stack.imag * stack.imag).sum(axis=1)
    return (sq.max(axis=1) < TINY) & (stack != 0.0).any(axis=(1, 2))


def svd(a) -> SvdResult:
    """Singular values and right singular vectors of a square matrix or a stack.

    a is an (n, n) matrix or a (B, n, n) stack, as for numpy.linalg.svd; the
    result is sigma (n,) and V (n, n), or sigma (B, n) and V (B, n, n).
    One `_jacobi` call orthogonalizes the columns of every item's [A_i; I],
    so V's rows ride along under A_i; sigma is the column norms, sorted
    non-increasing. Each column of V has its phase pinned by `_pin_phases`
    (its first entry above 1e-12 times its largest made real >= 0), for all
    items at once. Accurate for small
    singular values, which is what the shifted-matrix consumers need.
    Raises DimensionError on a non-square input and NonFiniteError on a NaN
    or Inf entry. Otherwise the first item, in stack order, that fails
    raises what svd of that item alone raises: NonFiniteError for a nonzero
    matrix whose column norms are all below sqrt(TINY) (`_underflows`),
    ConvergenceError when the sweep budget runs out (residual: the largest
    coupling left at exit), or NonFiniteError when a singular value is not
    finite, which happens for entries outside about 1e-145..1e154. The zero
    matrix has sigma 0.
    """
    a = as_square_stack(a)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    tiny = _underflows(stack)
    # the columns of every [A_i; I], laid out as _jacobi rotates them; a
    # refused item's A part is zeroed, so the core passes over it
    x = np.empty((len(stack), n, 2 * n), dtype=np.complex128)
    x[..., :n] = stack.transpose(0, 2, 1)
    x[tiny, :, :n] = 0.0
    x[..., n:] = np.eye(n)
    x, converged, off = _jacobi(x, n)
    norms = np.sqrt(np.sum(np.abs(x[..., :n]) ** 2, axis=2))
    failed = tiny | ~converged | ~np.isfinite(norms).all(axis=1)
    if failed.any():
        i = int(np.argmax(failed))
        if tiny[i]:
            raise NonFiniteError(
                "Jacobi SVD refuses a nonzero matrix whose column norms are all "
                "below about 1.5e-154, where their squares underflow"
            )
        if not converged[i]:
            raise ConvergenceError(
                f"Jacobi SVD did not converge after {MAX_JACOBI_SWEEPS} sweeps "
                f"(off-diagonal ratio {off[i]:.3e})",
                iterations=MAX_JACOBI_SWEEPS,
                residual=float(off[i]),
            )
        raise NonFiniteError(
            "Jacobi SVD produced a non-finite singular value "
            "(entries outside about 1e-145..1e154)"
        )
    order = np.argsort(-norms, axis=1, kind="stable")
    # cols[b, i] is column i of item b's V
    cols = np.take_along_axis(x[..., n:], order[..., None], axis=1)
    return SvdResult(
        np.take_along_axis(norms, order, axis=1).reshape(a.shape[:-1]),
        _pin_phases(cols).transpose(0, 2, 1).reshape(a.shape),
    )


def sigma_min_batch(stack) -> tuple[np.ndarray, np.ndarray]:
    """Smallest singular value of every matrix in a (B, n, n) stack.

    `_jacobi` over the stack's columns, values only (no V); sigma_min is
    the smallest column norm. Items with a NaN or
    Inf entry, nonzero items whose column norms are all below sqrt(TINY)
    (`_underflows`), items with a non-finite sigma_min (entries outside
    about 1e-145..1e154), and items that still rotate in sweep
    MAX_JACOBI_SWEEPS are reported unconverged; all but the last with
    sigma_min NaN.
    """
    stack = np.asarray(stack, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise DimensionError(f"expected a (B, n, n) stack with n >= 1, got {stack.shape}")
    b, n, _ = stack.shape
    sigma = np.full(b, np.nan)
    converged = np.zeros(b, dtype=bool)
    ok = np.isfinite(stack).all(axis=(1, 2)) & ~_underflows(stack)
    w, converged[ok], _ = _jacobi(stack[ok].transpose(0, 2, 1), n)
    sigma[ok] = np.sqrt(np.sum(np.abs(w) ** 2, axis=2)).min(axis=1)
    bad = ~np.isfinite(sigma)
    sigma[bad] = np.nan
    converged[bad] = False
    return sigma, converged


def rank_with_tol(a, tol: float) -> int:
    """Number of singular values strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    sigma = svd(a).sigma
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
        out.append(_pin_phases(w / nrm))
    return out
