"""Complex-plane grid scans of the distance gap.

Both entry points evaluate s(z) = sigma_n(zI - A) at all their shifts with
spectral.shifted_smallest, which runs the Jacobi kernel's one entry point
kernels.svd on stacks of shifts for values only and reports a status per
shift, and d(z) with spectral.dist_to_spectrum_batch, one broadcast over
the cluster representatives. A shift whose status is not kernels.OK is a
failed node of scan_grid, and an error of check_corollary. Both accept a
matrix or a spectral.Analysis, and take the spectrum from its one Schur
form and their tolerance scale from Analysis.scale; neither factors the
matrix any other way. They pass the Analysis on, so the Jacobi runs on the
columns of zQ - AQ = (zI - A)Q, Q the Schur factor, whenever Q meets
certify's unitarity bound (spectral's module docstring): nearly orthogonal
for a normal or near-normal matrix, so few sweeps, and the singular values
of zI - A up to ||zI - A||_2 ||Q*Q - I||_2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, spectral
from .errors import ConvergenceError, NonFiniteError
from .kernels import EPS

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


def scan_grid(a, region: tuple[float, float, float, float], nx: int, ny: int) -> GridScan:
    """Sample s(z), d(z) and their ratio on a closed rectangular grid.

    Row-major ordering: the imaginary axis is the slow index. Every node's
    s(z) comes from one batched values-only Jacobi (kernels.svd, through
    spectral.shifted_smallest) over the stack of Schur-rotated shifted
    matrices zQ - AQ. Nodes within n*EPS*scale (spectral.Analysis.scale)
    of an eigenvalue are flagged and their ratio pinned to 1 to avoid 0/0;
    a node whose status is not kernels.OK (its Jacobi did not converge, or
    its s(z) is not finite) is marked failed and the scan continues.
    """
    an = spectral.analyze(a)
    a = an.a
    re_min, re_max, im_min, im_max = map(float, region)
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    if not np.isfinite([re_min, re_max, im_min, im_max]).all():
        raise ValueError("region bounds must be finite")
    if re_max < re_min or im_max < im_min:
        raise ValueError("region bounds must be ordered")
    spectrum = spectral.spectrum_of(an)
    eig_tol = a.shape[0] * EPS * an.scale
    res = np.linspace(re_min, re_max, nx) if nx > 1 else np.array([re_min])
    ims = np.linspace(im_min, im_max, ny) if ny > 1 else np.array([im_min])
    grid = np.empty((ny, nx), dtype=np.complex128)
    grid.real = res[None, :]
    grid.imag = ims[:, None]
    zs = grid.ravel()
    ds = spectral.dist_to_spectrum_batch(zs, spectrum)
    smallest = spectral.shifted_smallest(an, zs)
    converged = smallest.status == kernels.OK
    samples = []
    for z, s, d, ok in zip(zs.tolist(), smallest.s.tolist(), ds.tolist(), converged.tolist()):
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
    """Sample |d(z) - s(z)| at random z in a disc of radius 2*scale.

    scale is spectral.Analysis.scale. The disc is centered at the centroid
    of the distinct eigenvalues, where the equality is most discriminating;
    the eigenvalues are clustered at the default tolerance, also when a is
    an Analysis whose Schur form a certify with another cluster_tol has
    already computed. All z come from one draw of 2*n_samples uniforms u,
    read in pairs: sample i lies at radius*sqrt(u[2i]) and angle
    2*pi*u[2i+1], the values that drawing r, then theta, per sample gives.
    s(z) comes from one batched values-only Jacobi (kernels.svd, through
    spectral.shifted_smallest) over the stack of zQ - AQ. A shift whose
    s(z) is not finite (a NaN or Inf entry in zI - A, or a kernel overflow
    or underflow) raises NonFiniteError, checked first; any other shift
    whose status is not kernels.OK raises ConvergenceError, with the
    largest residual of those shifts (the largest coupling left).
    """
    an = spectral.analyze(a)
    a = an.a
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    spectrum = spectral.spectrum_of(an)
    center = complex(np.mean(spectrum.representatives))
    radius = 2.0 * an.scale
    u = np.random.default_rng(seed).random(2 * n_samples)
    zs = center + radius * np.sqrt(u[0::2]) * np.exp(1j * (2.0 * np.pi * u[1::2]))
    smallest = spectral.shifted_smallest(an, zs)
    if np.isnan(smallest.s).any():
        raise NonFiniteError(
            "s(z) is not finite at some shift: zI - A has NaN or Inf entries, "
            "or its entries are outside the range the Jacobi kernel squares "
            "without overflow or underflow"
        )
    bad = smallest.status != kernels.OK
    if bad.any():
        raise ConvergenceError(
            f"Jacobi sigma_min did not converge after {kernels.MAX_JACOBI_SWEEPS} "
            f"sweeps at {np.count_nonzero(bad)} of {n_samples} shifts",
            iterations=kernels.MAX_JACOBI_SWEEPS,
            residual=float(smallest.residual[bad].max()),
        )
    max_gap = -1.0
    worst = center
    if n_samples:
        gaps = np.abs(spectral.dist_to_spectrum_batch(zs, spectrum) - smallest.s)
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
