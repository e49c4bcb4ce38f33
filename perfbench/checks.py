"""Output checks, each held to a tolerance the repository already states.

Criterion numbers refer to the acceptance suite, tests/test_acceptance.py.
Every check returns the ways in which an output is wrong; an empty list
means it passed. The checks read the program's outputs, never its internals, apart
from recheck_certificate and the commutator oracle, which the acceptance
suite itself uses as independent re-verification.
"""

from __future__ import annotations

import json

import numpy as np

from specnorm.certifier import commutator_normality_oracle, recheck_certificate
from specnorm.kernels import frob

GAP_FLOOR = 1e-9  # criterion 2: d - s >= -1e-9 * max(1, ||A||_F)
NORMAL_GAP = 1e-8  # criterion 3: |d - s| <= 1e-8 * max(1, ||A||_F) on normal inputs
ORACLE_TOL = 1e-8  # criterion 5: Normal iff ||A*A - AA*||_F <= 1e-8 * ||A||_F^2
UNITARITY_TOL = 1e-8  # criterion 6: ||U*U - I||_F <= 1e-8 * n
OFFDIAG_TOL = 1e-8  # criterion 6: ||offdiag(U*AU)||_F <= 1e-8 * ||A||_F


def check_certificate(a: np.ndarray, expect: str, cert, doc: dict) -> list[str]:
    """A Normal/Nonnormal certificate and its JSON document."""
    problems = []
    verdict = cert.verdict
    if doc.get("verdict") != verdict:
        problems.append(f"document verdict {doc.get('verdict')!r} != {verdict!r}")
    if verdict not in ("Normal", "Nonnormal"):
        return problems + [f"unknown verdict {verdict!r}"]
    if expect == "normal" and verdict != "Normal":
        problems.append(f"normal-by-construction input gave {verdict}")
    if expect == "nonnormal" and verdict != "Nonnormal":
        problems.append(f"nonnormal-by-construction input gave {verdict}")
    oracle_normal = commutator_normality_oracle(a) <= ORACLE_TOL * frob(a) ** 2
    if oracle_normal != (verdict == "Normal"):
        problems.append(f"verdict {verdict} disagrees with the commutator oracle")
    tol_eq = doc["tolerances"]["tol_eq"]
    probes = doc["probes"]
    if not probes:
        problems.append("certificate has no probes")
    for p in probes:
        if p["passed"] != (p["gap"] <= tol_eq):
            problems.append(f"probe at {p['z']} marked passed={p['passed']} with gap {p['gap']}")
    if verdict == "Normal":
        if not all(p["passed"] for p in probes):
            problems.append("Normal verdict with a failing probe")
        if cert.eigenbasis is None or "eigenbasis" not in doc:
            return problems + ["Normal verdict without an eigenbasis"]
        n = a.shape[0]
        unit, offdiag = recheck_certificate(a, cert)
        if not unit <= UNITARITY_TOL * n:
            problems.append(f"eigenbasis unitarity {unit:.3e} > {UNITARITY_TOL * n:.1e}")
        if not offdiag <= OFFDIAG_TOL * frob(a):
            problems.append(f"eigenbasis off-diagonal {offdiag:.3e} > "
                            f"{OFFDIAG_TOL * frob(a):.3e}")
        listed = np.array([[complex(*z) for z in row] for row in doc["eigenbasis"]])
        if not np.array_equal(listed, cert.eigenbasis):
            problems.append("document eigenbasis differs from the certificate's")
    else:
        witness = doc.get("witness")
        if witness is None:
            problems.append("Nonnormal verdict without a witness")
        elif not witness["gap"] > tol_eq:
            problems.append(f"witness gap {witness['gap']} does not exceed tol_eq {tol_eq}")
    return problems


def parse_scan_csv(text: str) -> tuple[list[tuple], int]:
    """Rows (re, im, s, d, ratio, flag) and the failure count of a CSV scan."""
    lines = text.splitlines()
    if not lines or lines[0] != "re,im,s,d,ratio,flag":
        raise ValueError("scan CSV lacks its header")
    rows = []
    for line in lines[1:]:
        re_, im, s, d, ratio, flag = line.split(",")
        rows.append((float(re_), float(im), float(s), float(d), float(ratio), flag))
    return rows, sum(1 for r in rows if r[5] == "failed")


def parse_scan_json(text: str) -> tuple[list[tuple], int]:
    doc = json.loads(text)
    rows = [(smp["z"][0], smp["z"][1], smp["s"], smp["d"], smp["ratio"], smp["flag"])
            for smp in doc["samples"]]
    return rows, int(doc["failures"])


def check_scan(code: int, rows: list[tuple], failures: int, a: np.ndarray, normal: bool,
               region: tuple, grid: tuple[int, int]) -> list[str]:
    """Grid layout, criterion 2 on every ok node, criterion 3 on normal inputs.

    Nodes flagged failed carry no value to check; the caller counts them.
    """
    problems = []
    if code != 0:
        problems.append(f"scan exited {code}")
    if failures != sum(1 for r in rows if r[5] == "failed"):
        problems.append(f"scan reports {failures} failures but flags another number")
    re_min, re_max, im_min, im_max = region
    nx, ny = grid
    expected = [(re, im) for im in np.linspace(im_min, im_max, ny)
                for re in np.linspace(re_min, re_max, nx)]
    if [(r[0], r[1]) for r in rows] != [(float(x), float(y)) for x, y in expected]:
        problems.append(f"scan nodes differ from the {nx}x{ny} row-major grid")
    scale = max(1.0, frob(a))
    for re_, im, s, d, ratio, flag in rows:
        if flag == "ok":
            if not d - s >= -GAP_FLOOR * scale:
                problems.append(f"node {re_}{im:+}j: d - s = {d - s:.3e} below "
                                f"{-GAP_FLOOR * scale:.3e}")
            if ratio != s / d:
                problems.append(f"node {re_}{im:+}j: ratio {ratio} != s/d")
        elif flag == "at_eigenvalue":
            if ratio != 1.0:
                problems.append(f"node {re_}{im:+}j at an eigenvalue has ratio {ratio}")
        elif flag == "failed":
            continue
        else:
            problems.append(f"node {re_}{im:+}j has flag {flag!r}")
            continue
        if normal and not abs(d - s) <= NORMAL_GAP * scale:
            problems.append(f"normal input, node {re_}{im:+}j: |d - s| = {abs(d - s):.3e}")
    return problems


def check_corollary(code: int, doc: dict, expect: str, samples: int) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"check-corollary exited {code}")
    if doc.get("consistent") is not True:
        problems.append("check-corollary is not consistent")
    if doc.get("n_samples") != samples:
        problems.append(f"check-corollary drew {doc.get('n_samples')} samples, not {samples}")
    want = "Normal" if expect == "normal" else "Nonnormal"
    if doc.get("verdict") != want:
        problems.append(f"check-corollary verdict {doc.get('verdict')!r}, expected {want}")
    if want == "Normal" and not doc["max_abs_gap"] <= doc["tol_eq"]:
        problems.append(f"normal input with max |gap| {doc['max_abs_gap']:.3e}")
    return problems


def check_weyl(code: int, doc: dict) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"weyl exited {code}")
    if doc.get("upper_ok") is not True or doc.get("lower_ok") is not True:
        problems.append(f"Weyl bounds not met: upper_ok={doc.get('upper_ok')}, "
                        f"lower_ok={doc.get('lower_ok')}")
    return problems


def changed_passes(blobs: list[bytes]) -> list[int]:
    """Indices of passes whose output bytes differ from the first pass."""
    return [i for i, b in enumerate(blobs) if b != blobs[0]]
