"""Print which verdicts move under maps that keep normality, and the verdicts of known hard inputs.

Run from anywhere, with the checkout to audit:

    python3 tests/audit_invariance.py

Normality is invariant under A^T, A*, UAU* (U unitary), -A, iA + 3I,
A + 1000I and e^{0.3i}A, and so should every verdict be. The script prints:

- per map, the verdicts that moved against the unmapped matrix's, as counts
  of "from -> to", separately for the 864 matrices of digest_outputs.py and
  for the near_normal n=6 band (eps 1e-8 to 1e-3, seeds 0-19). U is
  generate_matrix("unitary", n, 9000 + i), i the input's index, the 864
  first;
- one sha256 over every verdict of those certifies, in order, to compare
  two checkouts;
- the scale table: J_2 and ginibre n=4 seed 1, each times s for s from
  1e-300 to 1e300;
- the verdict of each of three reproducers of known wrong verdicts, with the
  right one;
- over every certify of the maps: the Nonnormal certificates whose
  recheck_witness equals the witness's s bit for bit, the certifies that
  made more than one kernels.svd call, and the witnesses that took
  inverse-iteration steps, by step count.

A verdict is certify's, or "Indeterminate" for IndeterminateError, or the
name of any other error. The file name does not match pytest's test_*.py,
so pytest does not collect it.
"""

from __future__ import annotations

import cmath
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from digest_outputs import certify_inputs  # noqa: E402
from specnorm import certifier, kernels  # noqa: E402
from specnorm.errors import IndeterminateError, SpecnormError  # noqa: E402
from specnorm.generators import generate_matrix  # noqa: E402

BAND_EPS = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
SCALES = (1e-300, 1e-160, 1e-20, 1e-9, 1e-6, 1.0, 1e154, 1e155, 1e300)
ROTATION = cmath.exp(0.3j)
J2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def maps(a: np.ndarray, i: int) -> list[tuple[str, np.ndarray]]:
    """The seven maps of input i, each with its name."""
    n = len(a)
    u = generate_matrix("unitary", n, 9000 + i)
    eye = np.eye(n)
    return [
        ("A^T", a.T),
        ("A*", a.conj().T),
        ("UAU*", u @ a @ u.conj().T),
        ("-A", -a),
        ("iA+3I", 1j * a + 3.0 * eye),
        ("A+1000I", a + 1000.0 * eye),
        ("e^{0.3i}A", ROTATION * a),
    ]


class Counts:
    """What every mapped certify adds up to, read off its certificate and its calls."""

    def __init__(self):
        self.nonnormal = self.rechecked = self.reruns = 0
        self.steps = Counter()
        self.svd_calls = 0
        svd = kernels.svd

        def counted(*args, **kwargs):
            self.svd_calls += 1
            return svd(*args, **kwargs)

        kernels.svd = counted
        # a checkout whose witness takes no inverse-iteration step has none
        witness = getattr(certifier, "_schur_witness", None)
        if witness is not None:
            def stepped(*args):
                found = witness(*args)
                if found is not None and found[2]:
                    self.steps[found[2]] += 1
                return found

            certifier._schur_witness = stepped

    def verdict(self, a: np.ndarray) -> str:
        self.svd_calls = 0
        verdict, cert = certified(a)
        self.reruns += self.svd_calls > 1
        if verdict == "Nonnormal":
            self.nonnormal += 1
            self.rechecked += certifier.recheck_witness(a, cert) == cert.witness.s
        return verdict


def certified(a: np.ndarray) -> tuple[str, certifier.NormalityCertificate | None]:
    """The verdict of a, with its certificate when certify returns one."""
    try:
        cert = certifier.certify(a)
    except IndeterminateError:
        return "Indeterminate", None
    except SpecnormError as exc:
        return type(exc).__name__, None
    return cert.verdict, cert


def moved_text(moves: Counter) -> str:
    if not moves:
        return "none"
    return ", ".join(f"{count} {old} -> {new}" for (old, new), count in sorted(moves.items()))


def main() -> int:
    counts = Counts()
    sets = {"864": certify_inputs()}
    sets["band"] = [generate_matrix("near_normal", 6, seed, eps)
                    for eps in BAND_EPS for seed in range(20)]
    digest = hashlib.sha256()
    moved = {}
    index = 0
    for set_name, inputs in sets.items():
        for a in inputs:
            base = counts.verdict(a)
            digest.update(f"{base}\n".encode())
            for name, b in maps(a, index):
                got = counts.verdict(b)
                digest.update(f"{name} {got}\n".encode())
                moved.setdefault(name, {}).setdefault(set_name, Counter())
                if got != base:
                    moved[name][set_name][base, got] += 1
            index += 1
    print("verdicts that moved, per map:")
    for name, per_set in moved.items():
        for set_name, moves in per_set.items():
            print(f"  {name:10s} {set_name:5s} {moved_text(moves)}")
    print(f"verdicts: {8 * index} certifies, sha256 {digest.hexdigest()}")
    print("scale table, verdict of the matrix times s:")
    with np.errstate(all="ignore"):
        for label, a in (("J_2", J2), ("ginibre n=4 seed 1", generate_matrix("ginibre", 4, 1))):
            cells = ", ".join(f"{s:g} {certified(a * s)[0]}" for s in SCALES)
            print(f"  {label}: {cells}")
    print("reproducers:")
    reproducers = (
        ("diag(0, 5e-8, 1)", np.diag([0.0, 5e-8, 1.0]), "Normal"),
        ("J_4 + 1e8*I", np.eye(4, k=1) + 1e8 * np.eye(4), "Nonnormal"),
        ("unitary(4, 2) + 1e6*I", generate_matrix("unitary", 4, 2) + 1e6 * np.eye(4), "Normal"),
    )
    for label, a, right in reproducers:
        print(f"  {label}: {certified(a)[0]} (right: {right})")
    steps = ", ".join(f"{count} took {k}" for k, count in sorted(counts.steps.items()))
    print(f"witnesses: {counts.rechecked} of {counts.nonnormal} Nonnormal recheck to s bit "
          f"for bit; {counts.reruns} certifies made more than one svd call; witnesses "
          f"that took inverse-iteration steps: {steps or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
