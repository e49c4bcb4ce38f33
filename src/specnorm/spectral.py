"""Spectral-distance fields d(z) and s(z) and the Weyl inequality check.

d(z) is the distance from z to the (clustered) spectrum; s(z) is the smallest
singular value of the shifted matrix zI - A. The one-sided bound s(z) <= d(z)
holds for every square matrix, with equality everywhere exactly when the
matrix is normal.

Every stack of shifted matrices that goes to the Jacobi kernel's one entry
point, kernels.svd, comes from shifted_smallest, the one function that
evaluates s(z) at a set of shifts, for certify, gap and both scans, and
always for values only. `_shifted_stacks` builds each as the columns
zB - AB = (zI - A)B for a basis B with AB formed once per matrix; the kernel
returns each item's column (zB - AB)v of least norm, from which certify
recovers its witness vector against the Schur triangle. B is the
Schur factor Q when the caller passes an Analysis whose Q meets
||Q*Q - I||_F <= TOL_CERT*n (the bound of certify's Normal gate, which
reads the same residual). Since (zI - A)Q = Q(zI - T) and T is nearly
diagonal for a normal or near-normal matrix, those columns start out nearly
orthogonal and the Jacobi needs few sweeps. Anything else, a raw matrix in
particular, gets B = I: the columns of zI - A themselves, with no Schur
form run. The columns are formed from A, not T, so s(z) does not depend on
the computed eigenvalues, and Q only rotates: the singular values move by
at most ||zI - A||_2 ||Q*Q - I||_2.
shifted_smallest passes a caller's per-shift bound and floor on to
kernels.svd and reports kernels.svd's status per shift; it raises for none.
Each caller decides what a status means: certify and
shifted_smallest_singular raise for a failing one through
kernels.raise_for_status, and the scans mark or count it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DimensionError
from .kernels import _cabs, as_square, frob

# round-off slack of the Weyl bounds check; scaled by Analysis.scale
KAPPA_WEYL = 1e-9
CLUSTER_TOL = 1e-7
# certify's residual bounds for the Schur factor Q, ||Q*Q - I||_F <= TOL_CERT*n
# and ||offdiag(Q*AQ)||_F <= TOL_CERT*scale; the first also decides whether Q
# is the basis of the shifted columns
TOL_CERT = 1e-8
# complex entries per stack of shifted matrices in one kernels.svd call, n*n
# per item
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class Analysis:
    """A validated square matrix with what every entry point derives from it.

    a is the matrix after as_square, anorm its Frobenius norm, and scale,
    max(1, ||A||_F), the one factor every default absolute tolerance scales
    by and the only place ||A||_F is floored. schur is computed on first use
    and kept: the spectrum, the certificate and a scan of one Analysis share
    one Schur form, and a Schur failure raises where the form is first
    needed. unitarity is ||Q*Q - I||_F of its factor
    Q, computed once. basis is what the shifted stacks of this Analysis are
    built from: (Q, AQ) when unitarity <= TOL_CERT*n, else (None, A), where
    None stands for B = I; Q only rotates, so the singular values of
    zQ - AQ are those of zI - A up to ||zI - A||_2 ||Q*Q - I||_2. Build it
    with analyze.
    """

    a: np.ndarray
    anorm: float

    @property
    def scale(self) -> float:
        return max(1.0, self.anorm)

    @cached_property
    def schur(self) -> kernels.SchurResult:
        return kernels.schur(self.a)

    @cached_property
    def unitarity(self) -> float:
        q = self.schur.q
        return frob(q.conj().T @ q - np.eye(len(q)))

    @cached_property
    def basis(self) -> tuple[np.ndarray | None, np.ndarray]:
        if self.unitarity <= TOL_CERT * len(self.a):
            q = self.schur.q
            return q, self.a @ q
        return None, self.a


def analyze(a) -> Analysis:
    """The Analysis of a matrix; an Analysis is returned as it is."""
    if isinstance(a, Analysis):
        return a
    a = as_square(a)
    return Analysis(a, frob(a))


def check_tolerance(name: str, tol: float | None) -> None:
    """Raise ValueError unless tol is None or finite and >= 0."""
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")


@dataclass
class Spectrum:
    """Eigenvalue multiset together with clustered distinct eigenvalues.

    clusters holds (representative, algebraic multiplicity) pairs; the
    representatives play the role of the distinct eigenvalues. scale and
    cluster_tol are the tolerance scale and the threshold it was clustered at.
    """

    all_eigenvalues: np.ndarray
    clusters: list[tuple[complex, int]]
    scale: float
    cluster_tol: float

    @property
    def representatives(self) -> np.ndarray:
        return np.array([lam for lam, _ in self.clusters], dtype=np.complex128)

    @property
    def multiplicities(self) -> list[int]:
        return [m for _, m in self.clusters]

    def __post_init__(self):
        total = sum(m for _, m in self.clusters)
        if total != len(self.all_eigenvalues):
            raise ValueError(
                f"cluster multiplicities sum to {total}, "
                f"expected {len(self.all_eigenvalues)}"
            )


def cluster_spectrum(raw, scale: float, cluster_tol: float | None = None) -> Spectrum:
    """Single-linkage clustering of raw eigenvalues at threshold cluster_tol.

    Representatives are the means of their clusters (multiplicity-weighted,
    since every raw eigenvalue participates once). Representative pairs that
    end up within the threshold are merged until separation holds. The
    default cluster_tol is CLUSTER_TOL*scale; scale gets no floor here, and
    callers pass Analysis.scale. A NaN, infinite or negative cluster_tol
    raises ValueError.
    """
    raw = np.asarray(raw, dtype=np.complex128).reshape(-1)
    if raw.size == 0:
        raise ValueError("raw eigenvalue list must be nonempty")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    check_tolerance("cluster_tol", cluster_tol)
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL * scale
    vals = raw.tolist()
    # the connected components of the graph joining values within
    # cluster_tol, each grown from the smallest index not yet reached, so
    # they come in order of their smallest member
    groups = []
    unvisited = list(range(raw.size))
    while unvisited:
        members = [unvisited.pop(0)]
        # the loop also visits the members appended while it runs
        for k in members:
            near = [j for j in unvisited if _cabs(vals[k] - vals[j]) <= cluster_tol]
            unvisited = [j for j in unvisited if j not in near]
            members += near
        groups.append(sorted(members))
    # np.mean of one value v is (v + 0j) / 1 bit for bit: a sum from zero,
    # which turns a -0.0 part into 0.0, then a complex division by the count;
    # the members go in ascending order, which fixes the order of the sum
    clusters = [
        ((vals[idx[0]] + 0j) / 1 if len(idx) == 1 else complex(np.mean(raw[idx])), len(idx))
        for idx in groups
    ]
    # merge representatives that landed within the threshold of each other
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                li, mi = clusters[i]
                lj, mj = clusters[j]
                if _cabs(li - lj) <= cluster_tol:
                    rep = (li * mi + lj * mj) / (mi + mj)
                    clusters[i] = (complex(rep), mi + mj)
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return Spectrum(raw.copy(), clusters, float(scale), cluster_tol)


def spectrum_of(a, cluster_tol: float | None = None) -> Spectrum:
    """Cluster the Schur eigenvalues of a square matrix or an Analysis.

    An Analysis keeps its Schur form, so clustering it again, at any
    tolerance, runs no second Schur form.
    """
    an = analyze(a)
    return cluster_spectrum(an.schur.eigenvalues, an.scale, cluster_tol)


def dist_to_spectrum(z: complex, spectrum: Spectrum) -> tuple[float, int]:
    """min_k |z - lambda_k| over cluster representatives, with the argmin.

    Ties break to the lowest cluster index.
    """
    reps = spectrum.representatives
    dists = np.abs(reps - complex(z))
    idx = int(np.argmin(dists))
    return float(dists[idx]), idx


def dist_to_spectrum_batch(zs: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """d(z) at every z of a 1-D array, with the arithmetic of dist_to_spectrum."""
    return np.abs(spectrum.representatives[None, :] - zs[:, None]).min(axis=1)


def _basis(a) -> tuple[np.ndarray | None, np.ndarray]:
    """(B, AB) of a matrix or an Analysis, B None for the identity (module docstring)."""
    if isinstance(a, Analysis):
        return a.basis
    return None, as_square(a)


def _shifted_stacks(b, ab: np.ndarray, zs: np.ndarray):
    """Stacks of zB - AB over a 1-D array of shifts, each with its slice of zs.

    B None is the identity. Each stack holds at most about STACK_ENTRIES
    complex entries, so memory stays bounded on large grids.
    """
    n = ab.shape[0]
    rot = np.eye(n, dtype=np.complex128) if b is None else b
    step = max(1, STACK_ENTRIES // (n * n))
    for lo in range(0, zs.size, step):
        sl = slice(lo, lo + step)
        yield sl, zs[sl, None, None] * rot - ab


class Smallest(NamedTuple):
    """What shifted_smallest returns: one entry per z (w with a trailing n)."""

    s: np.ndarray
    w: np.ndarray
    status: np.ndarray
    residual: np.ndarray
    sweeps: np.ndarray


def shifted_smallest(a, zs, bound=None, floor=None) -> Smallest:
    """s(z) = sigma_n(zI - A) at every z of a 1-D array, with its Jacobi's output.

    a is a matrix or an Analysis; zs of another dimension raises
    DimensionError. The stacks of zB - AB go to kernels.svd for values
    only, each item counting n*n toward STACK_ENTRIES; without a bound no
    value depends on how the shifts are chunked. w is the column of least
    norm, (zB - AB)v = (zI - A)Bv for a smallest right singular vector v of
    the item; a caller holding B's factorization can recover a minimizing
    direction from it. status, residual and sweeps are kernels.svd's per
    z, and nothing is raised for a status: the caller reads it, or hands
    status and residual to kernels.raise_for_status, which raises for the
    first failing z. A z that is refused or has a non-finite singular value
    has s NaN.
    bound, shaped like zs (else DimensionError), goes to kernels.svd per
    stack: once a step reads a column norm below its bound in a z of a
    stack still rotating, and the full test confirms it, the stack stops,
    each z it cut short is STOPPED, and its s, the norm of w, is an upper
    bound on s(z), not s(z) itself. The stop carries across stacks: every
    stack after one with a STOPPED z runs with bound inf, so it stops
    before its first rotation, each z it holds STOPPED (but those refused,
    non-finite or FLOORED), with s its least column norm. So with a bound,
    which z are STOPPED depends on the chunking. floor, shaped
    like zs (else DimensionError), goes to kernels.svd per stack too: when
    its one Cholesky proves sigma_n(zB - AB) above the floor of every z of a
    stack, no sweep runs there and each of its z is FLOORED, with s the
    least column norm of zB - AB, an upper bound. Otherwise the stack runs
    as without a floor.
    """
    b, ab = _basis(a)
    n = ab.shape[0]
    zs = np.asarray(zs, dtype=np.complex128)
    if zs.ndim != 1:
        raise DimensionError(f"expected a 1-D array of shifts, got shape {zs.shape}")
    bound = _per_shift("bound", bound, zs)
    floor = _per_shift("floor", floor, zs)
    s = np.empty(zs.size)
    w = np.empty((zs.size, n), dtype=np.complex128)
    status = np.empty(zs.size, dtype=np.int64)
    residual = np.empty(zs.size)
    sweeps = np.empty(zs.size, dtype=np.int64)
    for sl, stack in _shifted_stacks(b, ab, zs):
        res = kernels.svd(
            stack, None if bound is None else bound[sl], False,
            None if floor is None else floor[sl],
        )
        s[sl] = res.sigma[:, -1]
        w[sl] = res.least
        status[sl] = res.status
        residual[sl] = res.residual
        sweeps[sl] = res.sweeps
        if bound is not None and np.count_nonzero(res.status == kernels.STOPPED):
            # a later stack stops before its first rotation
            bound = np.full(zs.shape, np.inf)
    return Smallest(s, w, status, residual, sweeps)


def _per_shift(name: str, values, zs: np.ndarray) -> np.ndarray | None:
    """values as a float64 array shaped like zs, else DimensionError; None stays None."""
    if values is None:
        return None
    values = np.asarray(values, dtype=np.float64)
    if values.shape != zs.shape:
        raise DimensionError(f"expected a {name} of shape {zs.shape}, got {values.shape}")
    return values


def shifted_smallest_singular(a, z):
    """s(z) = sigma_n(zI - A) at a scalar z (a float) or a 1-D array of z (an array).

    a is a matrix or an Analysis; the values are shifted_smallest's, and the
    first z whose status fails raises what kernels.raise_for_status raises.
    """
    z = np.asarray(z, dtype=np.complex128)
    res = shifted_smallest(a, z.reshape(-1))
    kernels.raise_for_status(res.status, res.residual)
    return res.s.reshape(z.shape)[()]


def gap(a, z: complex, spectrum: Spectrum) -> float:
    """d(z) - s(z); nonnegative up to round-off for every square matrix."""
    d, _ = dist_to_spectrum(z, spectrum)
    s = shifted_smallest_singular(a, z)
    return d - s


@dataclass
class WeylReport:
    sigma_1: float
    sigma_n: float
    abs_lambda_max: float
    abs_lambda_min: float
    upper_ok: bool
    lower_ok: bool


def weyl_bounds_check(m, kappa_weyl: float | None = None) -> WeylReport:
    """Check sigma_1 >= |lambda_1| and |lambda_n| >= sigma_n.

    kappa_weyl is the absolute slack of both checks (None: KAPPA_WEYL times
    Analysis.scale); a NaN, infinite or negative one raises ValueError.
    """
    an = analyze(m)
    check_tolerance("kappa_weyl", kappa_weyl)
    if kappa_weyl is None:
        kappa_weyl = KAPPA_WEYL * an.scale
    sigma = kernels.svd(an.a, vectors=False).sigma
    eigs = an.schur.eigenvalues
    mods = np.sort(np.abs(eigs))[::-1]
    report = WeylReport(
        sigma_1=float(sigma[0]),
        sigma_n=float(sigma[-1]),
        abs_lambda_max=float(mods[0]),
        abs_lambda_min=float(mods[-1]),
        upper_ok=bool(float(sigma[0]) >= float(mods[0]) - kappa_weyl),
        lower_ok=bool(float(mods[-1]) >= float(sigma[-1]) - kappa_weyl),
    )
    return report
