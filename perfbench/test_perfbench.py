"""Self-tests of the benchmark: planted faults count as failed, exact call
counts hold, and the tracer leaves the package as it found it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from specnorm import certifier, cli, generators, io as sio, kernels  # noqa: E402
from speed import SpeedLog  # noqa: E402
from tracer import Span, Tracer, traced_names  # noqa: E402


def make_ops(tmp_path, rows) -> list[run.Op]:
    """Ops for (kind, n, param, expect, commands) rows, inputs written to tmp_path."""
    specs = []
    for i, (kind, n, param, expect, commands) in enumerate(rows):
        spec = workloads.MatrixSpec(f"m{i:03d}.json", kind, n, 900 + i, param, expect,
                                    commands)
        sio.write_matrix(tmp_path / spec.file,
                         generators.generate_matrix(kind, n, spec.seed, param))
        specs.append(spec)
    out = tmp_path / "out"
    out.mkdir()
    return run.build_ops(specs, tmp_path, out)


def two_passes(ops) -> list[run.Round]:
    speed = SpeedLog()
    return [run.run_round(ops, speed), run.run_round(ops, speed)]


def failed(ops, rounds) -> list[str]:
    for rnd in rounds:
        run.settle(ops, rnd)
    run.check_all(ops, rounds)
    return [op.label for i, op in enumerate(ops) for rnd in rounds
            if rnd.results[i].problems]


@pytest.fixture(scope="module")
def seed_ops(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    ops = make_ops(tmp, [
        ("normal", 4, None, "normal", ("certify",)),
        ("ginibre", 4, None, "nonnormal", ("certify",)),
        ("near_normal", 4, 1e-6, "band", ("certify",)),
        ("normal", 4, None, "normal", ("scan_csv", "corollary", "weyl")),
        ("ginibre", 4, None, "nonnormal", ("scan_json",)),
    ])
    return ops, two_passes(ops)


def fresh(rounds) -> list[run.Round]:
    """Copies of the results with their check outcome cleared."""
    return [run.Round([run.Result(r.start, r.latency, r.blob, r.payload)
                       for r in rnd.results])
            for rnd in rounds]


def test_seed_outputs_pass(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    assert failed(ops, rounds) == []
    verdicts = [r.verdict for r in rounds[0].results]
    assert verdicts == ["Normal", "Nonnormal", "Indeterminate", None, "Normal", None, None]
    assert [r.points for r in rounds[0].results] == [4, 4, 0, 441, 200, 0, 441]


def test_flipped_verdict_is_counted_failed(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    for i in (0, 1):
        kind, cert, doc = rounds[1].results[i].payload
        flipped = "Nonnormal" if cert.verdict == "Normal" else "Normal"
        cert = certifier.NormalityCertificate(flipped, cert.evidence, cert.witness,
                                              cert.eigenbasis, cert.residuals,
                                              cert.config_echo)
        rounds[1].results[i].payload = (kind, cert, dict(doc, verdict=flipped))
    assert failed(ops, rounds) == [ops[0].label, ops[1].label]


def test_scan_node_above_distance_is_counted_failed(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    res = rounds[1].results[6]  # ginibre JSON scan: criterion 2 alone applies
    doc = json.loads(res.payload[-1])
    scale = max(1.0, kernels.frob(ops[6].a))
    node = next(s for s in doc["samples"] if s["flag"] == "ok")
    node["s"] = node["d"] + 1e-6 * scale
    node["ratio"] = node["s"] / node["d"]
    res.payload = res.payload[:-1] + (sio.dump_json(doc),)
    assert failed(ops, rounds) == [ops[6].label]
    assert any("d - s" in p for p in res.problems)


def test_perturbed_eigenbasis_column_is_counted_failed(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    kind, cert, doc = rounds[1].results[0].payload
    basis = cert.eigenbasis.copy()
    basis[:, 1] += 1e-6
    cert = certifier.NormalityCertificate(cert.verdict, cert.evidence, cert.witness,
                                          basis, cert.residuals, cert.config_echo)
    rounds[1].results[0].payload = (kind, cert, doc)
    assert failed(ops, rounds) == [ops[0].label]
    assert any("unitarity" in p for p in rounds[1].results[0].problems)


def test_changed_output_byte_is_counted_failed(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    res = rounds[1].results[5]  # weyl
    flipped = bytearray(res.blob)
    flipped[-3] ^= 1
    res.blob = bytes(flipped)
    assert failed(ops, rounds) == [ops[5].label]
    assert res.problems == ["output bytes differ from the first pass"]


def test_error_exit_is_counted_failed_but_not_wrong(tmp_path):
    ops = make_ops(tmp_path, [("normal", 3, None, "normal", ("weyl",))])
    ops[0].argv = ["weyl", "--input", str(tmp_path / "missing.json")]
    rounds = two_passes(ops)
    assert failed(ops, rounds) == [ops[0].label, ops[0].label]
    assert all(rnd.results[0].wrong == [] for rnd in rounds)


def test_failed_scan_node_is_counted_failed_but_not_wrong(seed_ops):
    ops, rounds = seed_ops
    rounds = fresh(rounds)
    for rnd in rounds:
        res = rnd.results[6]
        doc = json.loads(res.payload[-1])
        doc["samples"][0].update(s=float("nan"), ratio=float("nan"), flag="failed")
        doc["failures"] = 1
        res.payload = res.payload[:-1] + (sio.dump_json(doc),)
    assert failed(ops, rounds) == [ops[6].label, ops[6].label]
    assert [rnd.results[6].wrong for rnd in rounds] == [[], []]
    assert rounds[0].results[6].points == 440


def test_crash_is_counted_wrong(seed_ops, monkeypatch):
    ops, _ = seed_ops

    def broken(a, config=None):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(certifier, "certify", broken)
    res = run.run_op(ops[0])
    run.check(ops[0], res)
    assert res.wrong and "ZeroDivisionError" in res.wrong[0]


def normal_with_distinct_eigenvalues(n: int) -> np.ndarray:
    for seed in range(100):
        a = generators.generate_matrix("normal", n, seed)
        eig = kernels.schur(a).eigenvalues
        if min(abs(x - y) for i, x in enumerate(eig) for y in eig[i + 1:]) > 1e-3:
            return a
    raise AssertionError("no normal matrix with well-separated eigenvalues")


def test_normal_path_counts_at_n16():
    a = normal_with_distinct_eigenvalues(16)
    tracer = Tracer()
    with tracer:
        assert certifier.certify(a).verdict == "Normal"
    totals = tracer.totals()
    # probe, rank_with_tol, the SVD of b @ b and eigenspace_basis: 4 per cluster
    assert totals["kernels.svd"].calls == 64
    assert totals["certifier.criterion_holds"].calls == 16
    assert totals["kernels.schur"].calls == 1


def test_check_corollary_runs_two_schur_forms(tmp_path):
    path = tmp_path / "m.json"
    sio.write_matrix(path, generators.generate_matrix("normal", 4, 5))
    tracer = Tracer()
    with tracer:
        code = cli.main(["check-corollary", "--input", str(path), "--seed", "1",
                         "--output", str(tmp_path / "c.json")])
    assert code == 0
    assert tracer.totals()["kernels.schur"].calls == 2


def test_tracer_restores_every_function():
    import importlib

    def current():
        return {name: getattr(importlib.import_module("specnorm." + name.split(".")[0]),
                              name.split(".")[1]) for name in traced_names()}

    before = current()
    with Tracer():
        assert all(current()[k] is not v for k, v in before.items())
    assert current() == before


def test_self_time_subtracts_children(tmp_path):
    tracer = Tracer(spans=[
        Span("certifier.certify", 0.0, 10.0, -1),
        Span("kernels.svd", 1.0, 4.0, 0),
        Span("kernels.svd", 5.0, 6.0, 0),
        Span("kernels.householder_qr", 5.5, 5.75, 2),
    ])
    totals = tracer.totals()
    assert totals["certifier.certify"].self_s == 6.0
    assert totals["kernels.svd"].calls == 2
    assert totals["kernels.svd"].self_s == 3.75
    assert totals["kernels.svd"].inclusive_s == 4.0
    tracer.write(tmp_path / "spans.csv")
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "index,name,start,end,parent"
    assert rows[4] == "3,kernels.householder_qr,5.5,5.75,2"


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.layer_units()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
