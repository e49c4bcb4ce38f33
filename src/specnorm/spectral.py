"""Spectral-distance fields d(z) and s(z) and the Weyl inequality check.

d(z) is the distance from z to the (clustered) spectrum; s(z) is the smallest
singular value of the shifted matrix zI - A. The one-sided bound s(z) <= d(z)
holds for every square matrix, with equality everywhere exactly when the
matrix is normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .kernels import as_square, frob

# d(z) - s(z) may only go below zero by round-off; scaled by max(1, ||A||_F)
KAPPA_GAP = 1e-9
KAPPA_WEYL = 1e-9
CLUSTER_TOL = 1e-7
# complex entries per stack of shifted matrices in one kernels.sigma_min_batch call
STACK_ENTRIES = 1 << 16


def default_cluster_tol(scale: float) -> float:
    return CLUSTER_TOL * max(1.0, scale)


@dataclass
class Spectrum:
    """Eigenvalue multiset together with clustered distinct eigenvalues.

    clusters holds (representative, algebraic multiplicity) pairs; the
    representatives play the role of the distinct eigenvalues.
    """

    all_eigenvalues: np.ndarray
    clusters: list[tuple[complex, int]]
    source_scale: float
    cluster_tol: float = field(default=0.0)

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
    end up within the threshold are merged until separation holds.
    """
    raw = np.asarray(raw, dtype=np.complex128).reshape(-1)
    if raw.size == 0:
        raise ValueError("raw eigenvalue list must be nonempty")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(scale)
    n = raw.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(n):
        for j in range(i + 1, n):
            if abs(raw[i] - raw[j]) <= cluster_tol:
                union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    clusters = [
        (complex(np.mean(raw[idx])), len(idx)) for idx in groups.values()
    ]
    # merge representatives that landed within the threshold of each other
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                li, mi = clusters[i]
                lj, mj = clusters[j]
                if abs(li - lj) <= cluster_tol:
                    rep = (li * mi + lj * mj) / (mi + mj)
                    clusters[i] = (complex(rep), mi + mj)
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return Spectrum(raw.copy(), clusters, float(scale), float(cluster_tol))


def spectrum_of(a, cluster_tol: float | None = None) -> Spectrum:
    """Compute and cluster the spectrum of a square matrix."""
    a = as_square(a)
    eigs = kernels.schur(a).eigenvalues
    return cluster_spectrum(eigs, frob(a), cluster_tol)


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


def shifted_smallest_singular(a, z: complex) -> float:
    """s(z) = sigma_n(zI - A), formed explicitly."""
    a = as_square(a)
    n = a.shape[0]
    shifted = complex(z) * np.eye(n, dtype=np.complex128) - a
    return kernels.smallest_singular_value(shifted)


def shifted_sigma_min_batch(a: np.ndarray, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s(z) = sigma_n(zI - A) at every z of a 1-D array, with a converged flag per z.

    The shifted matrices go to kernels.sigma_min_batch in stacks of at most
    about STACK_ENTRIES complex entries, so memory stays bounded on large
    grids. A z whose shifted matrix has a NaN or Inf entry comes back
    unconverged with s(z) NaN.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    step = max(1, STACK_ENTRIES // (n * n))
    s = np.empty(zs.size)
    converged = np.empty(zs.size, dtype=bool)
    for lo in range(0, zs.size, step):
        hi = lo + step
        s[lo:hi], converged[lo:hi] = kernels.sigma_min_batch(zs[lo:hi, None, None] * eye - a)
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
    """Check sigma_1 >= |lambda_1| and |lambda_n| >= sigma_n."""
    m = as_square(m)
    if kappa_weyl is None:
        kappa_weyl = KAPPA_WEYL * max(1.0, frob(m))
    sigma = kernels.svd(m).sigma
    eigs = kernels.schur(m).eigenvalues
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
