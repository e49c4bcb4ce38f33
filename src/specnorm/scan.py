"""Complex-plane grid scans of the distance gap.

Both entry points evaluate s(z) = sigma_n(zI - A) at all their shifts with
spectral.shifted_sigma_min_batch, which runs the batched values-only Jacobi
kernel kernels.sigma_min_batch, and d(z) with spectral.dist_to_spectrum_batch,
one broadcast over the cluster representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, spectral
from .errors import ConvergenceError, NonFiniteError
from .kernels import EPS, as_square, frob

KAPPA_RATIO = 1e-9

FLAG_OK = "ok"
FLAG_AT_EIGENVALUE = "at_eigenvalue"
FLAG_FAILED = "failed"


@dataclass
class GridSample:
    z: complex
    s: float
    d: float
    ratio: float
    flag: str


@dataclass
class GridScan:
    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int
    samples: list[GridSample]
    failures: int


def _at_eigenvalue_tol(a: np.ndarray, sigma1: float) -> float:
    return a.shape[0] * EPS * max(sigma1, 1.0)


def scan_grid(a, region: tuple[float, float, float, float], nx: int, ny: int) -> GridScan:
    """Sample s(z), d(z) and their ratio on a closed rectangular grid.

    Row-major ordering: the imaginary axis is the slow index. Every node's
    s(z) comes from one batched values-only Jacobi (kernels.sigma_min_batch)
    over the stack of shifted matrices. Nodes too close to an eigenvalue are
    flagged and their ratio pinned to 1 to avoid 0/0; a node whose Jacobi
    did not converge is marked failed and the scan continues.
    """
    a = as_square(a)
    re_min, re_max, im_min, im_max = map(float, region)
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    if re_max < re_min or im_max < im_min:
        raise ValueError("region bounds must be ordered")
    spectrum = spectral.spectrum_of(a)
    sigma1 = float(kernels.svd(a).sigma[0])
    eig_tol = _at_eigenvalue_tol(a, sigma1)
    res = np.linspace(re_min, re_max, nx) if nx > 1 else np.array([re_min])
    ims = np.linspace(im_min, im_max, ny) if ny > 1 else np.array([im_min])
    grid = np.empty((ny, nx), dtype=np.complex128)
    grid.real = res[None, :]
    grid.imag = ims[:, None]
    zs = grid.ravel()
    ds = spectral.dist_to_spectrum_batch(zs, spectrum)
    ss, converged = spectral.shifted_sigma_min_batch(a, zs)
    samples = []
    for z, s, d, ok in zip(zs.tolist(), ss.tolist(), ds.tolist(), converged.tolist()):
        if not ok:
            samples.append(GridSample(z, float("nan"), d, float("nan"), FLAG_FAILED))
        elif d <= eig_tol:
            samples.append(GridSample(z, s, d, 1.0, FLAG_AT_EIGENVALUE))
        else:
            samples.append(GridSample(z, s, d, s / d, FLAG_OK))
    failures = int(np.count_nonzero(~converged))
    return GridScan(re_min, re_max, im_min, im_max, nx, ny, samples, failures)


@dataclass
class CorollaryReport:
    """Randomized equality check over a disc around the spectrum centroid."""

    n_samples: int
    radius: float
    center: complex
    max_abs_gap: float
    worst_z: complex


def check_corollary(a, n_samples: int = 200, seed: int = 0) -> CorollaryReport:
    """Sample |d(z) - s(z)| at random z in a disc of radius 2*||A||_F.

    The disc is centered at the centroid of the distinct eigenvalues, where
    the equality is most discriminating. All z are drawn first (r, then
    theta, per sample) and s(z) comes from one batched values-only Jacobi
    (kernels.sigma_min_batch). A shifted matrix with a NaN or Inf entry
    raises NonFiniteError; a shift on which the Jacobi did not converge
    raises ConvergenceError.
    """
    a = as_square(a)
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    spectrum = spectral.spectrum_of(a)
    center = complex(np.mean(spectrum.representatives))
    radius = 2.0 * max(frob(a), 1.0)
    rng = np.random.default_rng(seed)
    zs = np.empty(n_samples, dtype=np.complex128)
    for i in range(n_samples):
        r = radius * np.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        zs[i] = center + r * np.exp(1j * theta)
    ss, converged = spectral.shifted_sigma_min_batch(a, zs)
    if np.isnan(ss).any():
        raise NonFiniteError("shifted matrix zI - A contains NaN or Inf entries")
    if not converged.all():
        bad = int(np.count_nonzero(~converged))
        raise ConvergenceError(
            f"Jacobi sigma_min did not converge after {kernels.MAX_JACOBI_SWEEPS} "
            f"sweeps at {bad} of {n_samples} shifts",
            iterations=kernels.MAX_JACOBI_SWEEPS,
        )
    max_gap = -1.0
    worst = center
    if n_samples:
        gaps = np.abs(spectral.dist_to_spectrum_batch(zs, spectrum) - ss)
        i = int(np.argmax(gaps))
        max_gap = float(gaps[i])
        worst = complex(zs[i])
    return CorollaryReport(
        n_samples=n_samples,
        radius=float(radius),
        center=center,
        max_abs_gap=float(max_gap),
        worst_z=complex(worst),
    )
