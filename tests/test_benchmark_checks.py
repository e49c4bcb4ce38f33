"""The benchmark's output checks, run on the certify workloads' matrices.

perfbench/checks.py holds the rules the benchmark applies to every
certificate it produces (a probe's passed flag agrees with its gap, a
witness's gap exceeds tol_eq, a Normal verdict's eigenbasis rechecks, the
verdict agrees with the commutator oracle). Running them here on one seed
of the certify_normal and certify_nonnormal mixes makes a break of those
rules fail the test suite rather than only a benchmark run. Both files are
loaded from their paths and left as they are.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from specnorm.certifier import certificate_to_dict, certify
from specnorm.errors import IndeterminateError
from specnorm.generators import generate_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 3


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = load("checks")
workloads = load("workloads")


@pytest.mark.parametrize("workload", ["certify_normal", "certify_nonnormal"])
def test_every_certificate_meets_the_benchmark_checks(workload):
    verdicts = set()
    for spec in workloads.matrices(workload, SEED):
        a = generate_matrix(spec.kind, spec.n, spec.seed, spec.param)
        try:
            cert = certify(a)
        except IndeterminateError:
            assert spec.expect == "band", spec
            continue
        doc = certificate_to_dict(cert, a)
        assert checks.check_certificate(a, spec.expect, cert, doc) == [], spec
        verdicts.add(cert.verdict)
    assert verdicts == {"Normal" if workload == "certify_normal" else "Nonnormal"}
