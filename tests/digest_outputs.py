"""Print digests of the package's outputs, to show that a change keeps them byte for byte.

Run from anywhere, with the checkout to digest:

    python3 tests/digest_outputs.py

It prints three lines, to compare between two checkouts:

- certify: the verdict counts and one sha256 over the certify documents
  (certificate_to_dict through io.dump_json) and the Indeterminate or
  refusal messages of 864 matrices: the 300-matrix corpus of
  test_acceptance.py and both certify mixes of perfbench/workloads.py at
  seeds 201, 301 and 501;
- scan_cli: one sha256 over the scan_cli operations of perfbench/workloads.py
  at seeds 1-3: exit code, stdout, stderr and output file of each, with the
  scratch directory written as <dir>;
- raised: one sha256 over the type, message, iterations and residual of what
  svd, certify, gap and check_corollary raise on a fixed set of failing
  inputs.

Every certify and CLI operation runs through perfbench/run.py's `call`, the
scan_cli ones built by its `build_ops`, as the benchmark runs them. Nothing
under perfbench/ is changed. The file name does not match pytest's
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py
import workloads  # noqa: E402  perfbench/workloads.py
from specnorm import io, kernels  # noqa: E402
from specnorm.certifier import certify  # noqa: E402
from specnorm.errors import SpecnormError  # noqa: E402
from specnorm.generators import generate_matrix  # noqa: E402
from specnorm.scan import check_corollary  # noqa: E402
from specnorm.spectral import gap, spectrum_of  # noqa: E402
from test_acceptance import corpus_matrix  # noqa: E402

CERTIFY_SEEDS = (201, 301, 501)
SCAN_SEEDS = (1, 2, 3)
VERDICTS = {"indeterminate": "Indeterminate", "refused": "refused"}


def certify_digest() -> tuple[Counter, str]:
    """Verdict counts and one sha256 over every certify outcome, in order."""
    inputs = [corpus_matrix(i, max_n=8)[0] for i in range(300)]
    for seed in CERTIFY_SEEDS:
        for workload in ("certify_normal", "certify_nonnormal"):
            inputs += [generate_matrix(s.kind, s.n, s.seed, s.param)
                       for s in workloads.matrices(workload, seed)]
    counts = Counter()
    digest = hashlib.sha256()
    for a in inputs:
        payload = run.call(run.Op("certify", None, a, "certify"))
        if payload[0] == "cert":
            verdict, text = payload[1].verdict, io.dump_json(payload[2])
        else:
            verdict, text = VERDICTS[payload[0]], payload[1]
        counts[verdict] += 1
        digest.update(f"{verdict}\n{text}\n".encode())
    return counts, digest.hexdigest()


def scan_digest() -> tuple[int, str]:
    """The operation count and one sha256 over every scan_cli operation's output."""
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SCAN_SEEDS:
            inputs, outputs = Path(tmp, f"inputs{seed}"), Path(tmp, f"outputs{seed}")
            inputs.mkdir()
            outputs.mkdir()
            specs = workloads.matrices("scan_cli", seed)
            for spec in specs:
                a = generate_matrix(spec.kind, spec.n, spec.seed, spec.param)
                io.write_matrix(inputs / spec.file, a)
            for op in run.build_ops(specs, inputs, outputs):
                _, code, out, err = run.call(op)
                written = op.out_path.read_text(encoding="utf-8") \
                    if op.out_path.exists() else "<none>"
                text = f"{code}\n{out}\n{err}\n{written}\n"
                digest.update(text.replace(tmp, "<dir>").encode())
                count += 1
    return count, digest.hexdigest()


def raised_cases():
    """(name, call, sweep budget or None) per case: refused, non-finite and unconverged inputs."""
    ginibre = 0.5 * np.eye(6) - generate_matrix("ginibre", 6, 2)
    nan = np.eye(3, dtype=complex)
    nan[0, 2] = np.nan
    j2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    tiny = np.diag([2.0, 1e-170])
    return [
        ("svd nan", lambda: kernels.svd(nan), None),
        ("svd underflow", lambda: kernels.svd(1e-170 * np.eye(3)), None),
        ("svd overflow", lambda: kernels.svd(generate_matrix("ginibre", 4, 1) * 1e155), None),
        ("svd shape", lambda: kernels.svd(np.ones((2, 3))), None),
        ("svd bound shape", lambda: kernels.svd(np.stack([np.eye(3)] * 3), np.zeros(2)), None),
        ("svd unconverged", lambda: kernels.svd(ginibre), 1),
        ("svd unconverged values", lambda: kernels.svd(ginibre, vectors=False), 1),
        ("certify unconverged", lambda: certify(generate_matrix("near_normal", 3, 5, 1e-4)), 1),
        ("certify overflow", lambda: certify(j2 * 1e300), None),
        ("gap underflow", lambda: gap(tiny, 1e-171, spectrum_of(tiny)), None),
        ("gap unconverged", lambda: gap(ginibre, 0.3 + 0.1j, spectrum_of(ginibre)), 1),
        ("corollary nonfinite", lambda: check_corollary(j2 * 1e200), None),
        ("corollary unconverged", lambda: check_corollary(generate_matrix("ginibre", 6, 2)), 1),
    ]


def raised_digest() -> tuple[int, str]:
    """The case count and one sha256 over what each case raises."""
    digest = hashlib.sha256()
    budget = kernels.MAX_JACOBI_SWEEPS
    cases = raised_cases()
    for name, call, sweeps in cases:
        kernels.MAX_JACOBI_SWEEPS = sweeps or budget
        try:
            with np.errstate(all="ignore"):
                call()
            text = "no error"
        except SpecnormError as exc:
            text = (f"{type(exc).__name__}: {exc} iterations={getattr(exc, 'iterations', None)}"
                    f" residual={getattr(exc, 'residual', None)!r}")
        finally:
            kernels.MAX_JACOBI_SWEEPS = budget
        digest.update(f"{name}\n{text}\n".encode())
    return len(cases), digest.hexdigest()


def main() -> int:
    counts, certified = certify_digest()
    total = sum(counts.values())
    verdicts = " / ".join(f"{counts[v]} {v}" for v in sorted(counts))
    print(f"certify: {total} matrices, {verdicts}, sha256 {certified}")
    ops, scanned = scan_digest()
    print(f"scan_cli: {ops} ops at seeds {SCAN_SEEDS[0]}-{SCAN_SEEDS[-1]}, sha256 {scanned}")
    cases, raised = raised_digest()
    print(f"raised: {cases} cases, sha256 {raised}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
