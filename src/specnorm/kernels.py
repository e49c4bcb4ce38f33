"""Dense complex linear-algebra primitives.

Self-contained factorizations for desk-scale matrices: Householder QR and
Hessenberg reduction (one reflector) plus shifted-QR Schur form, one-sided
Jacobi singular values (sigma, and V when asked for, of a square matrix, no
U), rank at tolerance, and modified Gram-Schmidt.
The Hessenberg reduction and the Schur form keep Q and H in one (2n, n)
array, Q on top of H, so a transform from the right updates both factors in
one numpy call: a reflector's rank-one update of the buffer's columns, and a
QR step's 2x2 rotation of two columns over the buffer's leading rows. The
rotations' coefficients are Python complex scalars, computed with the same
roundings as numpy's (the C library's hypot, a division by r taken as a
product with 1/r), so Q and T are those of the separate products. Each QR
iteration reads the active diagonal and subdiagonal once, as Python
complex, and runs its deflation tests and its Wilkinson shift on those
scalars; each rotation is written into one of two preallocated 2x2 arrays.
Every modulus of a Python complex goes through `_cabs`, which gives inf
where the builtin abs raises OverflowError, as numpy's abs does. `frob` and
the reflector's norm take np.linalg.norm's arithmetic without its dispatch.
Every singular value comes from one one-sided Jacobi core, `_jacobi`, over a
stack of column sets. Its sweeps follow a round-robin ordering (Brent & Luk
1985): the n(n-1)/2 column pairs fall into n-1 steps (n for odd n) of
disjoint pairs, and each step is one vectorized update of every pair in every
live item. A step costs a fixed number of numpy calls however many pairs
and items it holds: pairs that do not rotate get the exact identity through
arithmetic masks, not a branch, and the coupling's phase rides on the one
complex coefficient of the rotation (the columns differ from a real-sine
rotation's only by unit phases, which `svd`'s phase pinning on V
absorbs).
An item that runs out of sweeps reports the largest coupling left in its
columns. A per-item bound stops the core early: after the first rotation
step that leaves a live item with a column norm below its bound, the items
still rotating are STOPPED, not converged. Any column norm is ||A_i v|| for
a unit v, so it bounds sigma_min from above, and a caller that only needs to
know whether sigma_min is below a threshold (the certifier's nonnormality
witness) has its answer; a stack in which no norm falls below its bound runs
as without one, bit for bit. A step reads the column norms only when a
pre-test on its own 2x2 quantities, with a rounding margin derived in
`_jacobi`, says one may have fallen below its bound.
A per-item floor proves the other side before any sweep, all or nothing
per stack: `_floor_holds` runs one Cholesky factorization, vectorized over
the stack, of each item's Gram matrix less its floor squared and a rounding
margin derived there. When every pivot of every item is positive, every
sigma_min is above its floor, every item is FLOORED and no rotation runs;
otherwise the core runs exactly as without a floor. A caller that only needs
to know that sigma_min is above a threshold (the certifier's passing
probes) then has its answer.
`svd`, the core's one entry point, runs it once on the columns of every
A_i of a (B, n, n) stack, or of every [A_i; I] so that V rides along (no U:
nothing reads it), and reports a status per item; with or without V it
returns each item's rotated column of least norm, the image A_i v of the v
that sigma_min's column of V would hold up to a unit phase. A stack never
raises: its caller reads the statuses, or hands them to `raise_for_status`.
One (n, n) matrix raises for its status there and then. The certifier
evaluates all its probes as one values-only stack, with a bound and, near
normality, a floor per probe, and recovers its witness vector from that
least column; `scan.scan_grid` and `scan.check_corollary` evaluate all
their shifts of one matrix as values-only stacks too. All of them go
through `spectral.shifted_smallest`, which builds every stack as
zB - AB = (zI - A)B: B is the Schur factor Q of an Analysis whose
||Q*Q - I||_F meets certify's bound TOL_CERT*n, which makes the columns
nearly orthogonal for a normal or near-normal A and moves the singular
values by at most ||zI - A||_2 ||Q*Q - I||_2, and B = I otherwise. The
kernels see plain matrices either way. A singular value that comes out
non-finite (entries outside about 1e-145..1e154) is never reported as a
result, and neither is one of a matrix with a nonzero column of norm below
sqrt(TINY), about 1.5e-154, where its squared norm underflows (below about
1e-161 it reads 0): `svd` gives the item a failing status and sigma NaN,
and `raise_for_status` raises NonFiniteError for it.
numpy is used for array arithmetic only; no module of the package calls
numpy.linalg.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DependenceError, DimensionError, NonFiniteError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)

MAX_QR_ITERS_PER_N = 30
MAX_JACOBI_SWEEPS = 30
# the rounding margin of `_jacobi`'s stop pre-test, in units of rows*EPS
STOP_GUARD = 32.0
# the rounding margin of `_floor_holds`'s Cholesky test, in units of (n + 2)*EPS
FLOOR_GUARD = 8.0


def as_square(a) -> np.ndarray:
    """Validate and coerce input to a square complex128 matrix.

    The result is a fresh C-contiguous copy, also of an input that already
    is one, so callers may write to it.
    """
    m = np.array(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got {m.shape}")
    return m


def _norm(x: np.ndarray) -> float:
    """The 2-norm of x's entries, float64 or complex128, as np.linalg.norm gives it.

    For a vector and for the Frobenius norm of a matrix, np.linalg.norm
    ravels x in memory order and takes sqrt(xr.xr + xi.xi) from two dot
    products; this is that arithmetic, on the same raveled array (a strided
    dot can round apart from a contiguous one), without its dispatch. The
    squares underflow for entries below about 1e-154.
    """
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        xr, xi = x.real, x.imag
        return math.sqrt(xr.dot(xr) + xi.dot(xi))
    return math.sqrt(x.dot(x))


def frob(a) -> float:
    """||a||_F; an integer or boolean array is taken as float64, as np.linalg.norm takes it."""
    x = np.asarray(a)
    return _norm(x if x.dtype.kind in "fc" else x.astype(np.float64))


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
    normx = _norm(x)
    if normx == 0.0:
        return None
    alpha = x[0]
    phase = alpha / abs(alpha) if abs(alpha) > 0.0 else 1.0
    v = x.copy()
    # |v[0]| = |x[0]| + ||x||, so ||v|| >= ||x|| > 0
    v[0] += phase * normx
    return v / _norm(v)


def householder_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Full QR factorization A = Q R of a square matrix (else DimensionError).

    Q is unitary, R is upper triangular with a diagonal that is real and
    nonnegative up to rounding: a pivot is divided by its phase, which can
    leave an imaginary part of the order of EPS times its modulus.
    """
    r = as_square(a)
    n = r.shape[0]
    q = np.eye(n, dtype=np.complex128)
    for k in range(n - 1):
        v = _reflector(r[k:, k])
        if v is None:
            continue
        r[k:, k:] -= 2.0 * (v[:, None] * (v.conj() @ r[k:, k:]))
        q[:, k:] -= 2.0 * ((q[:, k:] @ v)[:, None] * v.conj())
    # make the R diagonal real nonnegative so the factorization is unique
    for k in range(n):
        piv = r[k, k]
        if abs(piv) > 0.0 and piv != abs(piv):
            ph = piv / abs(piv)
            r[k, k:] /= ph
            q[:, k] *= ph
    return q, np.triu(r)


def hessenberg(a) -> np.ndarray:
    """Unitary reduction A = Q H Q* with H upper Hessenberg, in one buffer.

    Returns a (2n, n) array qh with Q = qh[:n] stacked on H = qh[n:]. A
    reflector P = I - 2vv* multiplies H from the left, and Q and H from the
    right; the right-hand product is one update of qh's columns, since QP
    and HP share the factor P. Entries of H below the first subdiagonal are
    exact zeros.
    """
    a = as_square(a)
    n = a.shape[0]
    qh = np.concatenate((np.eye(n, dtype=np.complex128), a))
    h = qh[n:]
    # as a (2, n, n) stack, the product with v is one call of two n-row
    # matrix-vector products: OpenBLAS threads a product of 4096 or more
    # entries, which one 2n-row product reaches from n = 46 on and two
    # n-row ones only from n = 65 on; a threaded product this small stalls
    # whenever the other core is busy
    stack = qh.reshape(2, n, n)
    for k in range(n - 2):
        v = _reflector(h[k + 1 :, k])
        if v is None:
            continue
        h[k + 1 :, k:] -= 2.0 * (v[:, None] * (v.conj() @ h[k + 1 :, k:]))
        qh[:, k + 1 :] -= 2.0 * ((stack[:, :, k + 1 :] @ v).reshape(-1, 1) * v.conj())
    # entries below the first subdiagonal are reflection round-off
    for j in range(n - 2):
        h[j + 2 :, j] = 0.0
    return qh


@dataclass
class SchurResult:
    """Complex Schur form A = Q T Q* with eigenvalues on diag(T).

    iterations counts the shifted QR iterations run, and exceptional_shifts
    those of them that took the exceptional shift.
    """

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray
    iterations: int
    exceptional_shifts: int


def _cabs(z: complex) -> float:
    """|z| of a Python complex, as numpy's abs gives it: the C library's hypot.

    The builtin abs raises OverflowError where |z| exceeds the float range;
    this returns inf there, as numpy does.
    """
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _wilkinson_shift(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Eigenvalue of [[a, b], [c, d]] closest to d."""
    tr = a + d
    det = a * d - b * c
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    r1 = (tr + disc) / 2.0
    r2 = (tr - disc) / 2.0
    return r1 if _cabs(r1 - d) <= _cabs(r2 - d) else r2


def schur(a) -> SchurResult:
    """Complex Schur decomposition via Hessenberg + shifted QR.

    Single Wilkinson shift from the trailing 2x2 of the active block;
    deflation when a subdiagonal drops below eps*(|h[i-1,i-1]| + |h[i,i]|).
    An exceptional shift is injected every 10 stagnant iterations, and at
    most MAX_QR_ITERS_PER_N * n iterations run. A 1x1 matrix runs none:
    Q = [[1]] and T = A.
    The result counts the iterations and the exceptional shifts among them.
    Q and H stay in `hessenberg`'s one (2n, n) buffer, Q on top. A step's
    rotation of columns i, i+1 from the right touches all of Q and rows
    0..i+1 of H (below them the left rotations have zeroed both columns,
    up to a round-off that stays out of the product), which are the
    buffer's first n + i + 2 rows, so each rotation is one product on one
    slice. Each iteration reads the active diagonal and subdiagonal once,
    as Python complex, and the deflation tests, the search for the active
    block's start and the Wilkinson shift run on those scalars. Each
    rotation's coefficients, 1/r folded in, are written item by item into
    one of two preallocated 2x2 arrays, and the shift goes on and off H's
    diagonal through one strided view.
    """
    a = as_square(a)
    n = a.shape[0]
    max_iters = MAX_QR_ITERS_PER_N * n
    anorm = frob(a)
    qh = hessenberg(a)
    h = qh[n:]
    diag = h.reshape(-1)[:: n + 1]
    # the subdiagonal: sub[i] is h[i + 1, i]
    sub = h.reshape(-1)[n :: n + 1]
    # a rotation and its conjugate transpose, filled in place per step
    g = np.empty((2, 2), dtype=complex)
    gc = np.empty((2, 2), dtype=complex)

    def negligible(i: int) -> bool:
        thresh = EPS * (_cabs(d[i - 1]) + _cabs(d[i]))
        if thresh == 0.0:
            thresh = EPS * anorm
        return _cabs(s[i - 1]) <= thresh

    m = n - 1
    iters = 0
    exceptional = 0
    stagnant = 0
    while m > 0:
        # the deflation tests and the shift read the active diagonal d and
        # subdiagonal s as Python complex, once per QR iteration: no test
        # reads the zero a deflation writes, so one read serves them all
        d = diag[: m + 1].tolist()
        s = sub[:m].tolist()
        while m > 0 and negligible(m):
            h[m, m - 1] = 0.0
            m -= 1
            stagnant = 0
        if m == 0:
            break
        iters += 1
        stagnant += 1
        if iters > max_iters:
            raise ConvergenceError(
                f"shifted QR did not converge after {iters - 1} iterations "
                f"(trailing subdiagonal {_cabs(s[m - 1]):.3e})",
                iterations=iters - 1,
                residual=_cabs(s[m - 1]),
            )
        # start of the active block
        low = m
        while low > 0 and not negligible(low):
            low -= 1
        if low > 0:
            h[low, low - 1] = 0.0
        if stagnant % 10 == 0:
            # deterministic exceptional shift to break symmetric cycling
            exceptional += 1
            mu = h[m, m] + 0.75 * abs(h[m, m - 1])
        else:
            mu = _wilkinson_shift(d[m - 1], h.item(m - 1, m), s[m - 1], d[m])
        diag[low : m + 1] -= mu
        coeffs = []
        for i in range(low, m):
            # this step's rotations so far touched rows low..i only, so the
            # subdiagonal below h[i, i] is still s[i]
            x0, x1 = diag.item(i), s[i]
            r = _cabs(complex(_cabs(x0), _cabs(x1)))
            # x1 is a subdiagonal the deflation test kept, so r is 0 only
            # where NaN entries defeat that test; the identity then stands in
            c0, c1 = (x0 * (1.0 / r), x1 * (1.0 / r)) if r != 0.0 else (1.0, 0.0)
            g[0, 0] = c0.conjugate()
            g[0, 1] = c1.conjugate()
            g[1, 0] = -c1
            g[1, 1] = c0
            rows = h[i : i + 2, i:]
            rows[...] = g @ rows
            coeffs.append((c0, c1))
        for i, (c0, c1) in enumerate(coeffs, start=low):
            # g's conjugate transpose, on Q and H at once
            gc[0, 0] = c0
            gc[0, 1] = -c1.conjugate()
            gc[1, 0] = c1
            gc[1, 1] = c0.conjugate()
            cols = qh[: n + i + 2, i : i + 2]
            cols[...] = cols @ gc
        diag[low : m + 1] += mu
    t = np.triu(h)
    return SchurResult(qh[:n].copy(), t, np.diag(t).copy(), iters, exceptional)


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------


@dataclass
class SvdResult:
    """What svd returns, per item of a stack or for one matrix.

    sigma is sorted non-increasing and V is unitary (None when only values
    were asked for); where the status is OK, column i of A V is orthogonal
    to the others and has norm sigma[i]. least is the column of A V of least
    norm, sigma[..., -1], with or without V. status is OK, STOPPED (a bound
    stopped the sweeps first: sigma is the column norms of A V, not yet
    orthogonal), FLOORED (a Cholesky proved sigma_min above the item's floor
    before any sweep: sweeps 0, V the identity up to the order of sigma,
    and sigma A's own column norms) or, in a stack only, one of the failures
    `raise_for_status` raises for. residual is the largest coupling left in
    an UNCONVERGED item, else 0, and sweeps counts the sweeps run, the one
    cut short included.
    """

    sigma: np.ndarray
    v: np.ndarray | None
    least: np.ndarray
    status: np.ndarray
    residual: np.ndarray
    sweeps: np.ndarray


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


def _squared_column_norms(h: np.ndarray) -> np.ndarray:
    """Squared norms of the columns h[..., j, :]: the one formula sigma is read from.

    np.add.reduce and np.square are what np.sum and ** 2 call, without their
    Python-level dispatch, which the stop test in `_jacobi` would pay.
    """
    return np.add.reduce(np.square(np.abs(h)), axis=-1)


def _jacobi(
    x: np.ndarray, rows: int, bound: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """One-sided Jacobi over a (B, n, L) stack of column sets.

    x[i, j] is column j of item i. Rotations orthogonalize the first `rows`
    entries of the columns; the remaining entries ride along (in `svd` with
    vectors they are the rows of V). x must be C-contiguous and is rotated
    in place: `svd`, its one caller, passes its own fresh array.
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
    the working set.
    With a bound (one float per item), the core stops after the first
    rotation step that leaves a live item with a column whose norm (over the
    first `rows` entries, as `_squared_column_norms` and a square root give
    it, which is how `svd` reads sigma) is below its bound: the full test.
    Each column is the image of a unit vector, so its norm is an upper
    bound on the item's smallest singular value. The test only reads the
    columns, so a stack in which no norm falls below its bound runs exactly
    as without one. Converged items are final and are not tested, and an
    item whose bound is not positive never stops the core.
    A step runs the full test only when a pre-test on what the step already
    holds says that a column may have fallen below its bound. In exact
    arithmetic a rotation turns app and aqq into app - t|apq| and
    aqq + t|apq|, so neither new squared norm is below
    m2 = min(app, aqq) - |t||apq| (t = 0 where the pair does not rotate).
    The pre-test asks whether some pair of an item has
    m2 < b^2 + g(b^2 + F^2 + TINY), with b the item's bound, F^2 the sum of
    its squared column norms as the core received them, and
    g = STOP_GUARD*rows*EPS; b^2 is taken as inf for b >= 2^511, so it
    never overflows, and the threshold is -inf for b <= 0. For even n
    every column is in a pair of every step. For odd n one column sits out
    each step, so the first step that rotates runs the full test whatever
    the pre-test says; after it, a column that a step leaves alone is as a
    test last read it.
    The pre-test never skips a stop that the full test would make. With
    u = EPS/2, r = rows (a column's float64 view holds 2r reals) and
    S = ||w_p||^2 + ||w_q||^2 for the pair's stored columns, to first order
    (Higham 2002, Sections 3.1 and 3.6):
    (1) app and aqq err by at most gamma_{2r} relative, and apq by at most
        sqrt(2)*gamma_{2r}*sqrt(app*aqq), so the computed Gram matrix of the
        pair is within 1.71*gamma_{2r}*S of the exact one in the 2-norm,
        and so is every squared norm it gives a unit coefficient vector.
    (2) The computed t is t*(1 + theta), |theta| <= gamma_8, with t* exact
        for the computed Gram matrix (|apq|, tau and |tau| + hypot(1, tau),
        whose relative condition in tau is at most 1). With cs and s exact
        for t, the pair's least new squared norm is then
        min(app, aqq) - |t||apq| plus at most
        2|theta|*t*^2/(1 + t*^2)*sqrt(|apq|^2 + (aqq - app)^2/4) <= 4u*S,
        and m2's own three roundings add at most 3u*S.
    (3) The computed cs and s are within gamma_10 of those exact for t,
        which moves a squared norm by at most 2*gamma_10*S.
    (4) Forming cs*w_p - conj(s)*w_q errs entrywise by at most
        gamma_6(|cs||w_p| + |s||w_q|), at most 2*gamma_6*S on the squared
        norm.
    So each new column of the pair has a squared norm of at least
    m2 - (1.71*r + 20)*EPS*S. The full test stops on fl(sqrt(N)) < b, with
    N the computed squared norm: sqrt is correctly rounded and b is a float,
    so N < b^2, and N errs by at most gamma_{r+4} relative. So a stop needs
    m2 < b^2(1 + gamma_{r+5}) + (1.71*r + 20)*EPS*S. The threshold is
    above that: S is at most F^2 but for the rounding of the at most
    MAX_JACOBI_SWEEPS*n steps run, each of which grows the sum of squared
    norms by at most a factor 1 + 32u, and g = 32*r*EPS exceeds both
    (r + 5)*u and (1.71*r + 20)*EPS for every r >= 1, with room for the
    threshold's own four roundings and the second-order terms. The TINY
    term covers underflow: an operation whose result is below TINY errs by
    at most u*TINY, and the fewer than 10r + 50 operations behind m2 and N,
    each weighed by at most 1, stay below g*TINY = 64r*u*TINY. A pair whose
    squared norms are not finite gives a NaN m2 only where the step turns
    both its columns NaN, which no test reads as below a bound.
    Returns the rotated stack, the converged flags, per item the residual
    and the sweeps it took part in (a sweep that a bound cut short counts
    as one), and whether a bound stopped the core.
    The residual is 0 for a converged or stopped item, and for an item
    still rotating when MAX_JACOBI_SWEEPS ran out, the largest coupling
    |<w_p, w_q>|/(||w_p|| ||w_q||) over the first `rows` entries left in its
    returned columns. Entries outside about 1e-145..1e154 give non-finite
    columns; `svd` flags those.
    """
    b, n, _ = x.shape
    ctol = 8.0 * EPS * rows
    steps = _round_robin(n)
    converged = np.zeros(b, dtype=bool)
    off = np.zeros(b)
    sweeps = np.zeros(b, dtype=np.int64)
    live = np.arange(b)
    work = x
    if bound is not None:
        # the bound of each live item, against each of its columns, and the
        # pre-test's threshold on the least new squared norm of its pairs
        limit = bound[:, None]
        guard = STOP_GUARD * rows * EPS
        square = np.square(np.where(bound < 2.0**511, bound, np.inf))
        frob2 = _squared_column_norms(x[..., :rows]).sum(axis=1)
        limit2 = np.where(bound > 0.0, square + guard * (square + frob2 + TINY), -np.inf)[:, None]
    # for odd n a column sits out each step, where the pre-test does not
    # read it, so the first step that rotates runs the full test
    tested = n % 2 == 0
    sweep = 0
    stopped = False
    while live.size and sweep < MAX_JACOBI_SWEEPS:
        sweep += 1
        # the pairs each step of this sweep rotated: an item in none of them
        # has converged
        masks = [np.zeros((live.size, 1), dtype=bool)]
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
            masks.append(rot)
            den = acpq + ~rot
            tau = (aqq - app) / (2.0 * den)
            at = rot / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.copysign(at, tau)
            cs = 1.0 / np.sqrt(1.0 + t * t)
            s = (t * cs) * apq / den
            test = bound is not None and (
                not tested or np.count_nonzero(np.minimum(app, aqq) - at * acpq < limit2)
            )
            cs = cs[..., None]
            s = s[..., None]
            work[:, p] = cs * wp - s.conj() * wq
            work[:, q] = s * wp + cs * wq
            if test:
                tested = True
                norms = np.sqrt(_squared_column_norms(work[..., :rows]))
                if np.count_nonzero(norms < limit):
                    stopped = True
                    break
        if stopped:
            break
        done = ~np.logical_or.reduce(np.concatenate(masks, axis=1), axis=1)
        if done.any():
            left = live[done]
            converged[left] = True
            sweeps[left] = sweep
            x[left] = work[done]
            live, work = live[~done], work[~done]
            if bound is not None:
                limit = limit[~done]
                limit2 = limit2[~done]
    if live.size:
        sweeps[live] = sweep
        x[live] = work
    if live.size and not stopped:
        h = work[..., :rows]
        gram = h.conj() @ h.transpose(0, 2, 1)
        norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2).real)
        p, q = np.triu_indices(n, 1)
        scale = norms[:, p] * norms[:, q]
        ratio = np.abs(gram[:, p, q]) / np.where(scale > 0.0, scale, np.inf)
        off[live] = ratio.max(axis=1, initial=0.0)
    return x, converged, off, sweeps, stopped


def _floor_holds(w: np.ndarray, floor: np.ndarray) -> bool:
    """Whether every item W_i of a (B, n, n) column stack has sigma_min(W_i) > floor[i].

    w[i, j] is column j of W_i. One Cholesky factorization, vectorized over
    the stack, runs on H_i = fl(W_i*W_i) - c_i*I with
    c_i = b_i^2 + g(F_i^2 + b_i^2 + n*TINY), b_i = floor[i], F_i^2 the sum
    of W_i's squared column norms and g = FLOOR_GUARD*(n + 2)*EPS. It is
    right-looking: step k divides row k right of the diagonal by the square
    root of the pivot, the real part of h_kk, and subtracts that row's outer
    product with its conjugate from the trailing block, so it reads only the
    real diagonal and the upper triangle and factors the Hermitian matrix
    they define. The answer is True when every pivot of every item is finite
    and positive; the first step with a pivot that is not returns False. The
    factor is not kept. A NaN or infinite b_i, or one whose square
    overflows, gives a pivot that is not finite and positive.
    True proves sigma_min(W_i) > b_i (Rump 2006, "Verification of positive
    definiteness"; Higham 2002, Section 10.1). To first order, with
    u = EPS/2, G = W*W exact (tr G = F^2) and c as computed:
    (1) An entry of fl(W*W) is a complex inner product of length n, in
        whatever order it is summed, so it errs by at most c_n(|W|*|W|)_jk,
        c_n = sqrt(2)*gamma_{n+2} <= 0.71*(n + 2)*EPS (Higham 2002,
        Sections 3.5-3.6). The Hermitian E1 read from its upper triangle and
        real diagonal, less G, has |E1| <= c_n |W|*|W| entrywise, so
        ||E1||_2 <= c_n || |W| ||_2^2 <= c_n F^2.
    (2) Subtracting c from the diagonal rounds each entry by at most
        u(g_jj + c), up to second order: a diagonal D with
        ||D||_2 <= u(F^2 + c).
    (3) A Cholesky that runs to the end with positive pivots on the
        Hermitian H gives an upper triangular R with a positive diagonal and
        R*R = H + E2, |E2| <= c_n |R|*|R|: each entry of R is h_jk less one
        complex inner product of length below n, then a square root or a
        division by a real root, which numpy's complex division takes as a
        product with its reciprocal, two roundings (gamma_{n+1} in the real
        case; complex products and that division stay within c_n). So
        ||E2||_2 <= c_n ||R||_F^2, and ||R||_F^2 = tr(R*R) = tr H + tr E2
        <= tr H + c_n ||R||_F^2 bounds ||R||_F^2 by tr H/(1 - c_n), which
        is F^2 up to second order.
    R*R is positive definite, so lambda_min(H) > -||E2||_2, and
    G = H + cI - D - E1 gives
    lambda_min(G) > c - ||E2||_2 - ||D||_2 - ||E1||_2
    >= c - (2*c_n + u)F^2 - u*c, with 2*c_n + u <= (1.42*(n + 2) + 0.5)*EPS.
    The computed c is at least
    b^2 + g(F^2 + b^2)(1 - (3n + 6)u) - 2u*b^2: F^2 sums n^2 squared
    moduli, its rounding below gamma_{2n+2}, and c takes five more
    roundings. g = 8*(n + 2)*EPS is over five times the loss's coefficient
    of F^2, and 16 times 3u, its coefficient of b^2 (u*c is u*b^2 up to
    second order), which leaves room for the second-order terms. So
    lambda_min(G) > b^2, which is sigma_min(W)^2 > b^2.
    Underflow: a product or quotient below TINY errs by at most u*TINY (a
    sum below it is exact), and g*n*TINY = 8n(n + 2)*EPS*TINY is the
    leading underflow term of Rump's criterion; its other one,
    4n*max_j h_jj*EPS*TINY, is far below the slack left in g*F^2.
    """
    b, n, _ = w.shape
    with np.errstate(all="ignore"):
        h = w.conj() @ w.transpose(0, 2, 1)
        square = np.square(floor)
        frob2 = _squared_column_norms(w).sum(axis=1)
        c = square + FLOOR_GUARD * (n + 2) * EPS * (frob2 + square + n * TINY)
        diag = h.reshape(b, -1)[:, :: n + 1]
        diag -= c[:, None]
        for k in range(n):
            pivot = h[:, k, k].real
            if np.count_nonzero((pivot > 0.0) & (pivot < np.inf)) < b:
                return False
            if k + 1 < n:
                row = h[:, k, k + 1 :] / np.sqrt(pivot)[:, None]
                h[:, k + 1 :, k + 1 :] -= row.conj()[:, :, None] * row[:, None, :]
    return True


# per-item status of svd: the failures in the order it checks an item, then
# STOPPED, an item whose sweeps a bound cut short, and FLOORED, an item whose
# floor a Cholesky proved before any sweep
OK, NONFINITE_ENTRY, UNDERFLOW, UNCONVERGED, NONFINITE_SIGMA, STOPPED, FLOORED = range(7)

# what raise_for_status raises for an item that svd refuses or finds non-finite
_NONFINITE = {
    NONFINITE_ENTRY: "matrix contains NaN or Inf entries",
    UNDERFLOW: "Jacobi SVD refuses a matrix with a nonzero column of norm below "
    "about 1.5e-154, where its square underflows",
    NONFINITE_SIGMA: "Jacobi SVD produced a non-finite singular value "
    "(entries outside about 1e-145..1e154)",
}


def raise_for_status(status, residual) -> None:
    """Raise for the first item, in order, whose status is not OK, STOPPED or FLOORED.

    status and residual are svd's, of one matrix or of a stack, or a
    caller's selection of them in the same order. UNCONVERGED raises
    ConvergenceError (iterations MAX_JACOBI_SWEEPS, residual the item's:
    the largest coupling left at exit); a refused item or a non-finite
    sigma raises NonFiniteError.
    """
    for st, res in zip(np.ravel(status).tolist(), np.ravel(residual).tolist()):
        if st == UNCONVERGED:
            raise ConvergenceError(
                f"Jacobi SVD did not converge after {MAX_JACOBI_SWEEPS} sweeps "
                f"(off-diagonal ratio {res:.3e})",
                iterations=MAX_JACOBI_SWEEPS,
                residual=res,
            )
        if st in _NONFINITE:
            raise NonFiniteError(_NONFINITE[st])


def svd(a, bound=None, vectors: bool = True, floor=None) -> SvdResult:
    """Singular values, and V if vectors, of a square matrix or of every matrix in a stack.

    a is an (n, n) matrix or a (B, n, n) stack of B >= 1, as for
    numpy.linalg.svd, with n >= 1; any other shape raises DimensionError.
    A stack's result holds sigma (B, n), V (B, n, n) or None, least (B, n),
    and status, residual and sweeps (B,), and no item raises; one matrix's
    holds the same without the leading B, and it raises what
    `raise_for_status` raises for its status. Accurate for small singular
    values, which is what the shifted-matrix consumers need.
    The one caller of `_jacobi`. An item with a NaN or Inf entry (status
    NONFINITE_ENTRY), or with a nonzero column whose squared norm underflows
    below TINY (UNDERFLOW; sigma_min is at most that column's norm, and the
    core, which works on squared norms, would return it wrong and
    converged), is refused: its columns are zeroed, so the core rotates
    nothing in it. One `_jacobi` call rotates the columns of every A_i, or
    of every [A_i; I] so that V's rows ride along; sigma is the column norms
    sorted non-increasing, and `_pin_phases` pins V's columns. Without
    vectors the core runs on the columns of A_i alone and V is None. least
    is, per item, the rotated column A_i v whose norm is sigma[..., -1],
    gathered with or without vectors; with them, v is V's last column up to
    its pinned phase.
    An item still rotating after MAX_JACOBI_SWEEPS is UNCONVERGED (residual:
    the largest coupling left, else 0), and one with a non-finite sigma
    (entries outside about 1e-145..1e154) NONFINITE_SIGMA.
    bound, if given, is one float per item, of shape () for one matrix
    (else DimensionError): the core stops after the first rotation step
    that leaves a live item with a column norm below its bound (see
    `_jacobi`). A refused item's zeroed columns read norm 0, which says
    nothing about it, so its bound is taken as 0, below which no norm
    falls. The items still rotating when the core stops are STOPPED: their
    sigma is their column norms, whose smallest is an upper bound on
    sigma_min, and with vectors V's smallest column v gives ||A_i v|| = that
    norm, up to round-off. A stack in which no norm falls below its bound
    gives the same bits as without one.
    floor, if given, is one float per item, shaped as bound (else
    DimensionError), and all or nothing per stack: before any sweep,
    `_floor_holds` runs one Cholesky factorization over the stack that
    proves sigma_min(A_i) > floor[i] for every item or declines. When it
    proves every item and no item is refused, every item is FLOORED: no
    rotation runs, sweeps and residual are 0, sigma is A_i's column norms as
    given (the smallest an upper bound on sigma_min, the floor a lower one),
    least the column of least norm, and V the identity, up to the order of
    sigma. Otherwise the core runs exactly as without a floor.
    Without a bound or a floor every item that is not refused or non-finite
    is OK or UNCONVERGED. sigma is NaN on every item that is neither OK,
    STOPPED, FLOORED nor UNCONVERGED. sweeps counts the sweeps an item took
    part in, its last one included, also when a bound cut it short. The A
    part takes the same arithmetic with or without vectors, alone or in any
    stack, so sigma, least, status, residual and sweeps are bit-identical
    either way, for the same bound and floor. The zero matrix has sigma 0.
    """
    stack = np.asarray(a, dtype=np.complex128)
    one = stack.ndim == 2
    if one:
        stack = stack[None]
        if bound is not None:
            bound = np.asarray(bound, dtype=np.float64)[None]
        if floor is not None:
            floor = np.asarray(floor, dtype=np.float64)[None]
    if stack.ndim != 3 or min(stack.shape) < 1 or stack.shape[1] != stack.shape[2]:
        raise DimensionError(
            f"expected a (B, n, n) stack of square matrices with B, n >= 1, got {stack.shape}"
        )
    b, n, _ = stack.shape
    nonfinite = ~np.isfinite(stack).all(axis=(1, 2))
    # x[i, j] is column j of A_i, or of [A_i; I], as _jacobi rotates it
    x = np.empty((b, n, 2 * n if vectors else n), dtype=np.complex128)
    x[..., :n] = stack.transpose(0, 2, 1)
    # a nonzero column whose squared norm, a real dot product as in _jacobi,
    # is below TINY
    f = x[..., :n].view(np.float64)
    tiny = ((np.vecdot(f, f) < TINY) & (f != 0.0).any(axis=2)).any(axis=1)
    refused = nonfinite | tiny
    if refused.any():
        x[refused, :, :n] = 0.0
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64)
        if bound.shape != (b,):
            raise DimensionError(f"expected a bound of shape ({b},), got {bound.shape}")
        bound = np.where(refused, 0.0, bound)
    if floor is not None:
        floor = np.asarray(floor, dtype=np.float64)
        if floor.shape != (b,):
            raise DimensionError(f"expected a floor of shape ({b},), got {floor.shape}")
    floored = floor is not None and not refused.any() and _floor_holds(x[..., :n], floor)
    if vectors:
        x[..., n:] = np.eye(n)
    if floored:
        converged = np.zeros(b, dtype=bool)
        residual = np.zeros(b)
        sweeps = np.zeros(b, dtype=np.int64)
        stopped = False
    else:
        x, converged, residual, sweeps, stopped = _jacobi(x, n, bound)
    norms = np.sqrt(_squared_column_norms(x[..., :n]))
    overflow = ~np.isfinite(norms).all(axis=1)
    # later assignments win, so an item gets its first failure in check order
    status = np.where(overflow, NONFINITE_SIGMA, OK)
    if floored:
        status[~overflow] = FLOORED
    elif stopped:
        status[~converged & ~overflow] = STOPPED
    else:
        status[~converged] = UNCONVERGED
    status[tiny] = UNDERFLOW
    status[nonfinite] = NONFINITE_ENTRY
    bad = refused | overflow
    if bad.any():
        norms[bad] = np.nan
    order = np.argsort(-norms, axis=1, kind="stable")
    items = np.arange(b)[:, None]
    v = None
    if vectors:
        # cols[b, i] is column i of item b's V
        cols = x[items, order, n:]
        v = _pin_phases(cols).transpose(0, 2, 1)
    sigma = norms[items, order]
    least = x[items[:, 0], order[:, -1], :n]
    if one:
        raise_for_status(status, residual)
        return SvdResult(
            sigma[0], None if v is None else v[0], least[0], status[0], residual[0], sweeps[0]
        )
    return SvdResult(sigma, v, least, status, residual, sweeps)


def rank_with_tol(a, tol: float) -> int:
    """Number of singular values strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    sigma = svd(a, vectors=False).sigma
    return int(np.sum(sigma > tol))


# ---------------------------------------------------------------------------
# Modified Gram-Schmidt
# ---------------------------------------------------------------------------


def gram_schmidt_orthonormalize(vectors):
    """Orthonormalize a sequence of vectors by modified Gram-Schmidt.

    Two MGS passes per vector for numerical orthogonality. Raises
    DependenceError naming the first vector whose projected residual falls
    to 10*EPS*max(count, length) times the largest input norm or below.
    """
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if not vecs:
        return []
    dim = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != dim:
            raise DimensionError(f"vector {i} has length {v.shape[0]}, expected {dim}")
        if not np.isfinite(v).all():
            raise NonFiniteError(f"vector {i} contains NaN or Inf")
    tol = max(len(vecs), dim) * EPS * 10.0 * max(frob(v) for v in vecs)
    out: list[np.ndarray] = []
    for i, v in enumerate(vecs):
        w = v.copy()
        for _ in range(2):
            for u in out:
                w = w - (u.conj() @ w) * u
        nrm = frob(w)
        if nrm <= tol:
            raise DependenceError(
                f"vector {i} is numerically dependent on its predecessors "
                f"(residual norm {nrm:.3e})",
                index=i,
            )
        out.append(_pin_phases(w / nrm))
    return out
