"""Normality certification via the spectral-distance probe criterion.

One probe point is placed next to each distinct eigenvalue; if the shifted
smallest singular value equals the distance to the spectrum at every probe,
the matrix is normal. A failing probe is itself a nonnormality witness: the
test is one-sided, ||(zI - A)x|| >= s(z) for every unit x and s(z) <= d(z),
so a unit x with ||(zI - A)x|| below d(z) - tol_eq decides Nonnormal, and
certify stops the probe Jacobi as soon as one appears. The probe Jacobi runs
for values only; only the witness needs a vector, and it comes from the
witness probe's stopped column by one back substitution against the Schur
triangle T, checked against A before it is kept. The
certificate of a Normal verdict is the unitary factor Q of the Schur form
A = Q T Q* that also gave the spectrum: T is diagonal for a normal matrix, so
Q is an orthonormal eigenbasis, checked by ||Q*Q - I||_F and by
||offdiag(Q*AQ)||_F, Henrici's departure from normality. The definitional
commutator residual ||A*A - AA*||_F is always computed as an independent
cross-check.

The structural checks (semisimplicity, left eigenvectors, orthogonal
eigenspaces, an eigenbasis assembled from kernel vectors) are library
functions for testing those consequences of normality; certify does not
call them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, spectral
from .errors import ConvergenceError, IndeterminateError, NonFiniteError
from .kernels import EPS, _cabs, as_square, frob
from .spectral import TOL_CERT, Spectrum

TOL_EQ = 1e-8
TIE_MARGIN = 1e-3


@dataclass
class Probe:
    z: complex
    cluster_index: int
    radius: float


@dataclass
class ProbeEvidence:
    """The test at one probe. When converged is False, s is ||(zI - A)x|| for
    a unit x, an upper bound on sigma_n(zI - A), and gap a lower bound."""

    z: complex
    lam: complex
    d: float
    s: float
    gap: float
    passed: bool
    converged: bool = True


@dataclass
class EigspaceCluster:
    lam: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    basis: list[np.ndarray]


@dataclass
class Residuals:
    commutator: float
    unitarity: float | None = None
    diagonalization: float | None = None


@dataclass
class NormalityCertificate:
    verdict: str  # "Normal" | "Nonnormal"
    evidence: list[ProbeEvidence]
    witness: ProbeEvidence | None
    eigenbasis: np.ndarray | None
    residuals: Residuals
    config_echo: dict
    # Nonnormal only: a unit x with ||(zI - A)x|| = the witness's s >= s(z)
    # at the witness probe z, so A + (zI - A)x x* has z as an eigenvalue
    witness_vector: np.ndarray | None = None
    # the sweeps of the probe Jacobi: where it stopped at a witness, or where
    # its last item converged (the largest over its stacks, if several)
    jacobi_sweeps: int = 0


@dataclass
class CertifyConfig:
    """Absolute tolerances (finite, >= 0; None means the scaled default) and the probe angle."""

    tol_eq: float | None = None
    cluster_tol: float | None = None
    probe_angle: float = 0.0


def select_probes(spectrum: Spectrum, angle: float = 0.0) -> list[Probe]:
    """One probe per distinct eigenvalue, strictly nearest to its own cluster.

    z_k = lambda_k + r_k * e^{i*angle} with r_k = (1 - TIE_MARGIN) times half
    the distance to the nearest other representative; a lone eigenvalue gets
    radius spectrum.scale/2, half the Analysis.scale it was clustered at.

    Why one such probe per distinct eigenvalue decides normality: let x be a
    unit eigenvector of lambda_k, with lambda_k among the eigenvalues nearest
    to z != lambda_k. Then ||(zI - A)x|| = |z - lambda_k| = d(z), so
    s(z) = d(z) makes x a minimizing right singular vector of zI - A:
    (zI - A)*(zI - A)x = d(z)^2 x = conj(z - lambda_k)(z - lambda_k) x, and
    dividing by z - lambda_k gives A*x = conj(lambda_k) x. So x spans a
    reducing subspace of A; deflating it leaves the same test on its
    orthogonal complement, and one passing probe per distinct eigenvalue,
    wherever it sits as long as lambda_k stays among its nearest
    eigenvalues, forces an orthonormal eigenbasis: A is normal. This is the
    paper's finite probe set made explicit; the strict-nearest check below
    guards its condition.
    """
    reps = [lam for lam, _ in spectrum.clusters]
    p = len(reps)
    direction = np.exp(1j * angle)
    probes = []
    for k in range(p):
        if p == 1:
            radius = spectrum.scale / 2.0
        else:
            delta = min(_cabs(reps[j] - reps[k]) for j in range(p) if j != k)
            radius = (1.0 - TIE_MARGIN) * delta / 2.0
        z = complex(reps[k] + radius * direction)
        # strict-nearest sanity check; guaranteed by construction
        others = [_cabs(z - reps[j]) for j in range(p) if j != k]
        if others and _cabs(z - reps[k]) >= min(others):
            raise IndeterminateError(f"probe {z} is not strictly nearest to its eigenvalue")
        probes.append(Probe(z=z, cluster_index=k, radius=float(radius)))
    return probes


def probe_evidence(
    z: complex, lam: complex, s: float, tol_eq: float, converged: bool = True
) -> ProbeEvidence:
    """Evidence at probe z of eigenvalue lambda, given s = sigma_n(zI - A).

    d = |z - lambda|, and the probe passes when d - s <= tol_eq. Unconverged,
    s is an upper bound on sigma_n(zI - A).
    """
    d = _cabs(complex(z) - complex(lam))
    g = d - s
    return ProbeEvidence(
        z=complex(z), lam=complex(lam), d=float(d), s=float(s),
        gap=float(g), passed=bool(g <= tol_eq), converged=bool(converged),
    )


def witness_bound(d: float, tol_eq: float) -> float:
    """A bound b such that any s < b fails the test at a probe at distance d.

    b = (d - tol_eq) - 4*EPS*d. With u = EPS/2 and rounding to nearest, the
    two subtractions err by at most u*d each, so b < d - tol_eq - 5u*d and
    s < b gives d - s > tol_eq + 5u*d exactly. When tol_eq <= d that is more
    than twice the spacing of floats at tol_eq (at most 2u*tol_eq), so
    d - s also rounds to above tol_eq; when tol_eq > d, b < 0 and no s >= 0
    is below it. So a column norm below b fails the probe in
    probe_evidence's own arithmetic, not only in exact arithmetic, where
    d - tol_eq alone would do.
    """
    return d - tol_eq - 4.0 * EPS * d


def criterion_holds(a, probe: tuple[complex, complex], tol_eq: float) -> ProbeEvidence:
    """Test sigma_n(zI - A) = |z - lambda_k| at a single probe.

    a is a matrix or an Analysis; an Analysis is not validated again.
    """
    z, lam = probe
    return probe_evidence(z, lam, spectral.shifted_smallest_singular(a, z), tol_eq)


def left_eigvec_check(a, lam: complex, x, tol: float) -> bool:
    """True iff x is also a left eigenvector: ||x*A - lam x*|| <= tol*||A||_F."""
    a = as_square(a)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    resid = frob(x.conj() @ a - lam * x.conj())
    return resid <= tol * max(frob(a), EPS)


def semisimple_check(
    a, lam: complex, tol: float, multiplicity: int | None = None
) -> tuple[bool, int, int]:
    """Compare kernel dimensions of (lam I - A) and its square.

    Returns (is_semisimple, algebraic multiplicity m_k, geometric s_k). The
    algebraic multiplicity comes from the clustered spectrum when not given.
    """
    an = spectral.analyze(a)
    a = an.a
    n = a.shape[0]
    scale = an.scale
    b = complex(lam) * np.eye(n, dtype=np.complex128) - a
    s_k = n - kernels.rank_with_tol(b, tol * scale)
    b2 = b @ b
    sigma2 = kernels.svd(b2, vectors=False).sigma
    thresh2 = max((tol * scale) ** 2, n * EPS * float(sigma2[0]))
    k2 = n - int(np.sum(sigma2 > thresh2))
    if multiplicity is None:
        spect = spectral.spectrum_of(an)
        _, idx = spectral.dist_to_spectrum(lam, spect)
        multiplicity = spect.clusters[idx][1]
    return (s_k == k2), int(multiplicity), int(s_k)


def cross_orthogonality_check(clusters: list[EigspaceCluster], tol: float) -> bool:
    """All inter-cluster eigenvector inner products within tol of zero."""
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            for x in clusters[i].basis:
                for y in clusters[j].basis:
                    if abs(np.vdot(x, y)) > tol:
                        return False
    return True


def eigenspace_basis(a, lam: complex, s_k: int) -> list[np.ndarray]:
    """Orthonormal kernel basis of lam I - A from its smallest singular vectors."""
    a = as_square(a)
    n = a.shape[0]
    b = complex(lam) * np.eye(n, dtype=np.complex128) - a
    res = kernels.svd(b)
    return [res.v[:, n - 1 - i].copy() for i in range(s_k)]


def build_orthonormal_eigenbasis(a, clusters: list[EigspaceCluster]) -> np.ndarray:
    """Concatenate cluster bases and polish with modified Gram-Schmidt."""
    a = as_square(a)
    n = a.shape[0]
    total = sum(c.geometric_multiplicity for c in clusters)
    if total != n:
        raise IndeterminateError(
            f"eigenspace dimensions sum to {total}, expected {n}; "
            "the cluster bases cannot span the space"
        )
    vectors = [v for c in clusters for v in c.basis]
    ortho = kernels.gram_schmidt_orthonormalize(vectors)
    return np.column_stack(ortho)


def commutator_normality_oracle(a) -> float:
    """Definitional residual ||A*A - AA*||_F, independent of all spectral code."""
    a = as_square(a)
    return frob(a.conj().T @ a - a @ a.conj().T)


def offdiag_frobenius(m: np.ndarray) -> float:
    d = m - np.diag(np.diag(m))
    return frob(d)


def recheck_certificate(a, cert: NormalityCertificate) -> tuple[float, float]:
    """Independent re-verification of a Normal certificate's eigenbasis.

    Returns (||U*U - I||_F, offdiag ||U*AU||_F) computed directly from the
    attached basis, bypassing the certifier's own residual bookkeeping.
    """
    a = as_square(a)
    u = cert.eigenbasis
    if u is None:
        raise ValueError("certificate carries no eigenbasis")
    n = a.shape[0]
    unit = frob(u.conj().T @ u - np.eye(n))
    diag = offdiag_frobenius(u.conj().T @ a @ u)
    return float(unit), float(diag)


def recheck_witness(a, cert: NormalityCertificate) -> float:
    """||(zI - A)x||_2 for a Nonnormal certificate's witness probe z and vector x.

    One matrix-vector product, independent of the SVD that chose x. With
    ||x|| = 1, E = (zI - A)x x* puts z in the spectrum of A + E and
    ||E||_2 is this value, which is s(z) < d(z) up to round-off.
    """
    a = as_square(a)
    x = cert.witness_vector
    if x is None or cert.witness is None:
        raise ValueError("certificate carries no witness vector")
    return _witness_residual(a, cert.witness.z, x)


def _witness_residual(a: np.ndarray, z: complex, x: np.ndarray) -> float:
    """||(zI - A)x||_2, one matrix-vector product: recheck_witness's arithmetic."""
    return frob(z * x - a @ x)


def _back_substituted_witness(
    an: spectral.Analysis, z: complex, w: np.ndarray, bound: float
) -> np.ndarray | None:
    """The unit x of a failing probe z, from its least column w; None unless it proves the failure.

    With B = Q, w = (zQ - AQ)v for a unit v, and zQ - AQ = Q(zI - T) up to
    the Schur residual, so one back substitution v = (zI - T)^{-1} Q*w over
    T's entries as Python complex, a backward-stable solve, gives v up to
    round-off; x = Qv/||Qv||, with v's phase pinned as jacobi_svd pins V's
    columns (`_pin_phases`'s rule).
    x is kept only when `_witness_residual` is below the probe's witness
    bound. None for B = I, a zero pivot z - t_ii, a v whose norm is zero or
    not finite, or an x that misses the bound.
    """
    q, _ = an.basis
    if q is None:
        return None
    t = an.schur.t.tolist()
    v = (q.conj().T @ w).tolist()
    n = len(v)
    for i in range(n - 1, -1, -1):
        pivot = z - t[i][i]
        if pivot == 0:
            return None
        row = t[i]
        acc = v[i]
        for j in range(i + 1, n):
            acc += row[j] * v[j]
        v[i] = acc / pivot
    # ||v|| finite and nonzero keeps the numpy steps below clear of overflow
    # and of a division by zero
    mags = [_cabs(c) for c in v]
    nv = math.hypot(*mags)
    if not 0.0 < nv < math.inf:
        return None
    # _pin_phases's rule on Python scalars: on one vector its numpy calls
    # cost as much as the rest of this function
    top = 1e-12 * max(mags)
    pin = next(m / c for c, m in zip(v, mags) if m > top)
    x = q @ (np.array(v) * (pin / nv))
    x = x / frob(x)
    if not _witness_residual(an.a, z, x) < bound:
        return None
    return x


def _witness(
    an: spectral.Analysis, e: ProbeEvidence, w: np.ndarray, bound: float, tol_eq: float
) -> tuple[ProbeEvidence, np.ndarray]:
    """The witness evidence and witness_vector of the failing probe e.

    x comes from `_back_substituted_witness` and e stands as it is. Where
    that gives None, the probe runs alone through
    spectral.shifted_smallest_pair with V and its bound, and s, converged
    and x all come from that one run, so ||(zI - A)x|| is again its s. That
    run continues past the sweep at which the stack stopped whenever another
    probe stopped it; should it then pass, certify raises IndeterminateError
    rather than name a witness that is not one.
    """
    x = _back_substituted_witness(an, e.z, w, bound)
    if x is not None:
        return e, x
    alone = spectral.shifted_smallest_pair(an, e.z, bound=bound)
    e = probe_evidence(e.z, e.lam, alone.s, tol_eq, alone.converged)
    if e.passed:
        raise IndeterminateError(f"probe {e.z} fails in the probe stack but passes alone")
    return e, alone.x


def _residual_gate(name: str, value: float, bound: float) -> None:
    if value > bound:
        raise IndeterminateError(
            f"probes passed but the Schur eigenbasis {name} residual "
            f"{value:.3e} exceeds its bound {bound:.3e}"
        )


def certify(a, config: CertifyConfig | None = None) -> NormalityCertificate:
    """Full probe pipeline deciding normality of a matrix or an Analysis.

    Schur -> cluster -> probe placement -> the equality test at every
    probe, from one spectral.shifted_smallest_column call over all probe
    shifts (one values-only kernels.svd stack while it fits in
    spectral.STACK_ENTRIES, at n*n entries per probe). The call carries
    each probe's witness_bound, so the Jacobi stops after the first sweep
    that leaves a probe still rotating with a column norm below it: that
    probe fails, whatever more sweeps would give, because a column norm is
    ||(zI - A)x|| for a unit x and so at least s(z). The probes still
    rotating then are not converged; their s is an upper bound and their gap
    a lower bound. A stack with no such column runs to convergence exactly
    as without bounds. When probes fail, the lowest-index one at the sweep
    where the stack stopped (which can differ from the first failing probe
    of a converged stack) is the witness, and jacobi_sweeps records that
    sweep. The stack carries no V: the witness_vector x is recovered from
    the witness's column of least norm w = (zQ - AQ)v by one back
    substitution, v = (zI - T)^{-1} Q*w and x = Qv/||Qv||, and kept once
    ||(zI - A)x|| is below the witness bound. Where it is not (the columns
    were those of zI - A, a pivot of zI - T is zero, or x misses the bound),
    the witness probe runs again alone with V through
    spectral.shifted_smallest_pair, and its s and x both come from that run.
    Either way ||(zI - A)x|| = s, up to round-off.
    On a clean pass every probe has converged, and the Schur vectors are
    attached as the eigenbasis once they meet the residual bounds
    ||U*U - I||_F <= TOL_CERT*n and ||offdiag(U*AU)||_F <= TOL_CERT*scale.
    The unitarity residual is the Analysis's own, computed once: it also
    decides the basis of the probe stack. When it meets its bound, the
    probe columns are those of (zI - A)Q = zQ - AQ, nearly orthogonal for a
    normal or near-normal matrix, so the Jacobi needs few sweeps; otherwise
    they are the columns of zI - A.
    The unitarity gate is checked first, so the off-diagonal residual reads
    the same AQ and no certify forms it twice.
    Either way they are formed from A, and Q only rotates: s moves by at
    most ||zI - A||_2 ||Q*Q - I||_2, and recheck_witness checks x against A
    itself. Kernel non-convergence or a residual over its bound raises
    IndeterminateError rather than guessing, and so does a witness probe
    that fails in the stack but passes when run alone. A NaN, infinite or
    negative tolerance, or a non-finite probe angle, raises ValueError. A
    finite matrix whose ||A||_F overflows, so that no default tolerance is
    finite, raises NonFiniteError once its Schur form has converged.
    """
    an = spectral.analyze(a)
    a = an.a
    if config is None:
        config = CertifyConfig()
    spectral.check_tolerance("tol_eq", config.tol_eq)
    spectral.check_tolerance("cluster_tol", config.cluster_tol)
    if not math.isfinite(config.probe_angle):
        raise ValueError(f"probe_angle must be finite, got {config.probe_angle!r}")
    n = a.shape[0]
    tol_eq = config.tol_eq if config.tol_eq is not None else TOL_EQ * an.scale
    try:
        spectrum = spectral.spectrum_of(an, config.cluster_tol)
        if not math.isfinite(an.scale):
            raise NonFiniteError(
                "||A||_F overflows float64, so the tolerances scaled by it "
                "are not finite"
            )
        probes = select_probes(spectrum, config.probe_angle)
        lams = [spectrum.clusters[p.cluster_index][0] for p in probes]
        # d as probe_evidence computes it
        bound = [witness_bound(_cabs(p.z - lam), tol_eq) for p, lam in zip(probes, lams)]
        stack = spectral.shifted_smallest_column(
            an, np.array([p.z for p in probes]), bound=np.array(bound)
        )
        evidence = [
            probe_evidence(p.z, lam, s_k, tol_eq, ok)
            for p, lam, s_k, ok in zip(probes, lams, stack.s.tolist(), stack.converged.tolist())
        ]
        failing = [k for k, e in enumerate(evidence) if not e.passed]
        witness = witness_vector = u = None
        if failing:
            k = failing[0]
            witness, witness_vector = _witness(an, evidence[k], stack.w[k], bound[k], tol_eq)
            evidence[k] = witness
    except ConvergenceError as exc:
        raise IndeterminateError(f"kernel did not converge: {exc}") from exc
    config_echo = {
        "tol_eq": tol_eq,
        "cluster_tol": spectrum.cluster_tol,
        "probe_angle": config.probe_angle,
        "tie_margin": TIE_MARGIN,
        "tol_cert": TOL_CERT,
    }
    residuals = Residuals(commutator=commutator_normality_oracle(a))
    if not failing:
        residuals.unitarity = an.unitarity
        _residual_gate("unitarity", residuals.unitarity, TOL_CERT * n)
        # Q passed the bound that makes (Q, AQ) the Analysis's basis
        u, au = an.basis
        residuals.diagonalization = offdiag_frobenius(u.conj().T @ au)
        _residual_gate("off-diagonal", residuals.diagonalization, TOL_CERT * an.scale)
    return NormalityCertificate(
        verdict="Nonnormal" if failing else "Normal",
        evidence=evidence,
        witness=witness,
        eigenbasis=u,
        residuals=residuals,
        config_echo=config_echo,
        witness_vector=witness_vector,
        jacobi_sweeps=max(stack.sweeps.tolist()),
    )


def matrix_hash(a) -> str:
    """SHA-256 of the row-major complex128 bytes, prefixed by the shape."""
    a = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    h = hashlib.sha256()
    h.update(f"{a.shape[0]}x{a.shape[1]}:".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def certificate_to_dict(cert: NormalityCertificate, a) -> dict:
    """JSON-ready certificate document."""

    def ev(e: ProbeEvidence) -> dict:
        return {
            "z": [e.z.real, e.z.imag],
            "lambda": [e.lam.real, e.lam.imag],
            "d": e.d,
            "s": e.s,
            "gap": e.gap,
            "passed": e.passed,
            "converged": e.converged,
        }

    doc = {
        "verdict": cert.verdict,
        "probes": [ev(e) for e in cert.evidence],
        "witness": ev(cert.witness) if cert.witness is not None else None,
        "residuals": {
            "commutator": cert.residuals.commutator,
            "unitarity": cert.residuals.unitarity,
            "diagonalization": cert.residuals.diagonalization,
        },
        "tolerances": cert.config_echo,
        "jacobi_sweeps": cert.jacobi_sweeps,
        "matrix_hash": matrix_hash(a),
    }
    if cert.eigenbasis is not None:
        doc["eigenbasis"] = [
            [[z.real, z.imag] for z in row] for row in cert.eigenbasis
        ]
    if cert.verdict == "Nonnormal" and cert.witness_vector is not None:
        doc["witness_vector"] = [[z.real, z.imag] for z in cert.witness_vector]
    return doc
