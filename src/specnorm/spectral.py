"""Spectral-distance fields d(z) and s(z) and the Weyl inequality check.

d(z) is the distance from z to the (clustered) spectrum; s(z) is the smallest
singular value of the shifted matrix zI - A. The one-sided bound s(z) <= d(z)
holds for every square matrix, with equality everywhere exactly when the
matrix is normal.

Every stack of shifted matrices that goes to the Jacobi kernel's one entry
point, kernels.jacobi_svd (directly, or through kernels.svd with V or values
only), is built here, by `_shifted_stacks`, as the columns
zB - AB = (zI - A)B for a basis B with AB formed once per matrix; a
minimizing right singular vector v of the stack item maps back to x = Bv for
zI - A, and a values-only stack returns instead the column (zB - AB)v of
least norm. B is the Schur factor Q when the
caller passes an Analysis whose Q meets ||Q*Q - I||_F <= TOL_CERT*n (the
bound of certify's Normal gate, which reads the same residual). Since
(zI - A)Q = Q(zI - T) and T is nearly diagonal for a normal or near-normal
matrix, those columns start out nearly orthogonal and the Jacobi needs few
sweeps. Anything else, a raw matrix in particular, gets B = I: the columns of
zI - A themselves, with no Schur form run. The columns are formed from A,
not T, so s(z) does not depend on the computed eigenvalues, and Q only
rotates: the singular values move by at most ||zI - A||_2 ||Q*Q - I||_2.
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
# complex entries per stack of shifted matrices in one kernels.jacobi_svd call
# (direct, or through kernels.svd): n*n per item of a values-only stack,
# 2*n*n per item of one that carries V
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


def _shifted_stacks(b, ab: np.ndarray, zs: np.ndarray, entries_per_item: int):
    """Stacks of zB - AB over a 1-D array of shifts, each with its slice of zs.

    B None is the identity. Each stack holds at most about STACK_ENTRIES
    complex entries, counting entries_per_item per n*n, so memory stays
    bounded on large grids.
    """
    n = ab.shape[0]
    rot = np.eye(n, dtype=np.complex128) if b is None else b
    step = max(1, STACK_ENTRIES // (entries_per_item * n * n))
    for lo in range(0, zs.size, step):
        sl = slice(lo, lo + step)
        yield sl, zs[sl, None, None] * rot - ab


class SmallestPair(NamedTuple):
    """What shifted_smallest_pair returns, each shaped like its z (x with a trailing n)."""

    s: np.ndarray | float
    x: np.ndarray
    converged: np.ndarray | bool
    sweeps: np.ndarray | int


class SmallestColumn(NamedTuple):
    """What shifted_smallest_column returns, each shaped like its z (w with a trailing n)."""

    s: np.ndarray | float
    w: np.ndarray
    converged: np.ndarray | bool
    sweeps: np.ndarray | int


def _smallest(a, z, bound, vectors: bool) -> tuple:
    """s, x (with vectors) or w (without), converged and sweeps per z, each shaped like z.

    The stacks of zB - AB go to kernels.svd, which runs on their [zB - AB; I]
    columns with vectors, so that an item counts 2*n*n toward STACK_ENTRIES,
    and on the columns of zB - AB alone without, n*n. The A part of every
    item takes the same arithmetic either way, so s, w, converged and sweeps
    agree bit for bit wherever the stacks split alike.
    """
    b, ab = _basis(a)
    n = ab.shape[0]
    z = np.asarray(z, dtype=np.complex128)
    zs = z.reshape(-1)
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64)
        if bound.shape != z.shape:
            raise DimensionError(f"expected a bound of shape {z.shape}, got {bound.shape}")
        bound = bound.reshape(-1)
    s = np.empty(zs.size)
    vec = np.empty((zs.size, n), dtype=np.complex128)
    converged = np.empty(zs.size, dtype=bool)
    sweeps = np.empty(zs.size, dtype=np.int64)
    for sl, stack in _shifted_stacks(b, ab, zs, 2 if vectors else 1):
        # kernels.svd, not jacobi_svd: perfbench's ceiling replays svd calls
        res = kernels.svd(stack, None if bound is None else bound[sl], vectors)
        s[sl] = res.sigma[:, -1]
        if not vectors:
            vec[sl] = res.least
        elif b is None:
            vec[sl] = res.v[:, :, -1]
        else:
            vec[sl] = np.vecdot(b.conj(), res.v[:, None, :, -1])
        converged[sl] = res.converged
        sweeps[sl] = res.sweeps
    return tuple(
        out.reshape(z.shape + out.shape[1:])[()] for out in (s, vec, converged, sweeps)
    )


def shifted_smallest_pair(a, z, bound=None) -> SmallestPair:
    """s(z) = sigma_n(zI - A) and a unit right singular vector x(z) for it.

    z is a scalar, giving s as a float and x of shape (n,), or a 1-D array
    of p shifts, giving s of shape (p,) and x of shape (p, n); a is a matrix
    or an Analysis. ||(zI - A)x|| = s(z), so x is a minimizing direction.
    The smallest right singular vector v of each stack item (see `_smallest`)
    maps back as x = Bv, each entry one np.vecdot of a row of B with v, so
    neither s nor x depends on how the shifts are chunked (a batched v @ B.T
    can round differently by batch size). converged and sweeps are
    kernels.svd's per z.
    bound, shaped like z (else DimensionError), is passed on to kernels.svd
    per stack: once a z of a stack still rotating has a column norm below
    its bound, the stack stops, and each z it cut short is not converged.
    Its s is then ||(zI - A)x|| for the unit x returned, an upper bound on
    s(z), not s(z) itself. Without a bound every z converges.
    The first failing z, in order, raises what kernels.svd raises for it.
    """
    return SmallestPair(*_smallest(a, z, bound, True))


def shifted_smallest_column(a, z, bound=None) -> SmallestColumn:
    """shifted_smallest_pair's s, converged and sweeps without V, and w for x.

    The stacks run for values only, so an item counts n*n toward
    STACK_ENTRIES. w is the rotated column of zB - AB whose norm is s: w =
    (zB - AB)v = (zI - A)Bv for the v that shifted_smallest_pair would map
    to x, which a caller holding B's factorization can recover from w. Where
    the stacks split as shifted_smallest_pair's do, s, converged and sweeps
    are its bits, also under a bound, and so are the raises.
    """
    return SmallestColumn(*_smallest(a, z, bound, False))


def shifted_smallest_singular(a, z):
    """s(z) = sigma_n(zI - A) at a scalar z (a float) or a 1-D array of z (an array).

    a is a matrix or an Analysis; the values are those of shifted_smallest_pair,
    from values-only stacks.
    """
    return shifted_smallest_column(a, z).s


def shifted_sigma_min_batch(a, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s(z) = sigma_n(zI - A) at every z of a 1-D array, with a converged flag per z.

    a is a matrix or an Analysis. The stacks of zB - AB go to
    kernels.jacobi_svd for values only, and a z converged when its status is
    kernels.OK. A z whose shifted matrix has a NaN or Inf entry, is refused
    as out of range or has a non-finite singular value comes back
    unconverged with s(z) NaN.
    """
    s = np.empty(zs.size)
    converged = np.empty(zs.size, dtype=bool)
    for sl, stack in _shifted_stacks(*_basis(a), zs, 1):
        res = kernels.jacobi_svd(stack, vectors=False)
        s[sl] = res.sigma[:, -1]
        converged[sl] = res.status == kernels.OK
    return s, converged


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
    # kernels.svd, not jacobi_svd: perfbench's ceiling replays svd calls
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
