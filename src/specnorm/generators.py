"""Seeded test-matrix families.

All families are deterministic functions of (kind, n, seed, param) via
numpy's PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .kernels import frob

KINDS = ("normal", "hermitian", "unitary", "jordan", "ginibre", "near_normal")


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / np.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = kernels.householder_qr(_ginibre(rng, n))
    # fix the R-diagonal phases so the distribution is Haar; householder_qr's
    # diagonal is real only up to rounding, so this still moves Q's last bits
    d = np.diag(r).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d[np.newaxis, :]


def generate_matrix(kind: str, n: int, seed: int, param: float | None = None):
    """Deterministic test matrix of the requested family.

    kinds: normal (Q diag Q*), hermitian, unitary, jordan (single block,
    param sets the eigenvalue), ginibre, near_normal (normal plus a
    param-scaled unit-Frobenius Ginibre perturbation).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {KINDS}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        return _ginibre(rng, n)
    if kind == "hermitian":
        g = _ginibre(rng, n)
        return (g + g.conj().T) / 2.0
    if kind == "unitary":
        return _haar_unitary(rng, n)
    if kind == "jordan":
        if param is not None:
            lam = complex(param)
        else:
            lam = complex(rng.standard_normal() + 1j * rng.standard_normal())
        j = np.eye(n, dtype=np.complex128) * lam
        for i in range(n - 1):
            j[i, i + 1] = 1.0
        return j
    if kind == "normal":
        q = _haar_unitary(rng, n)
        lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return q @ np.diag(lams) @ q.conj().T
    # near_normal
    eps = 0.0 if param is None else float(param)
    if eps < 0:
        raise ValueError("near_normal requires param >= 0")
    q = _haar_unitary(rng, n)
    lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = q @ np.diag(lams) @ q.conj().T
    if eps == 0.0:
        return base
    pert = _ginibre(rng, n)
    pnorm = frob(pert)
    if pnorm > 0:
        pert = pert / pnorm
    return base + eps * frob(base) * pert
