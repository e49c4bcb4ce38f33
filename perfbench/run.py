"""specnorm benchmark: one workload, one run, every output checked.

    python3 perfbench/run.py --workload certify_normal --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is imported from
src/. With --trace 0 the run reports the end-to-end metrics, with --trace 1
the per-layer metrics of a traced run. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. README.md
describes the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from speed import SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
EXIT_INDETERMINATE = 2  # specnorm.cli exit codes for "no verdict" and "error"
EXIT_ERROR = 3
SETUP_TIMEOUT_S = 60
CONSTRUCTIVE = ("certifier.semisimple_check", "certifier.eigenspace_basis",
                "certifier.left_eigvec_check", "certifier.cross_orthogonality_check",
                "certifier.build_orthonormal_eigenbasis")

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_s": "ref_s", "op_p90_s": "ref_s", "ops_per_s": "1/ref_s",
    "points_per_s": "1/ref_s", "decided_frac": "ratio", "peak_rss_mb": "MB",
}
LAYER_RATIO_UNITS = {
    "io.bytes_written": "B/op", "kernels.svd.per_point": "calls/point",
    "kernels.schur.per_matrix": "calls/matrix", "certifier.constructive_share": "ratio",
    "ceiling.svd_ratio": "ratio", "ceiling.schur_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Op:
    label: str
    spec: object  # workloads.MatrixSpec
    a: object  # numpy array
    command: str  # certify, scan_csv, scan_json, corollary or weyl
    argv: list[str] | None = None
    out_path: Path | None = None


@dataclass
class Result:
    """One operation's outcome. An operation fails when its output is wrong
    (a value, verdict or byte check fails, or it crashed) or when the program
    reported that it could not finish it (Indeterminate on an input whose
    answer is known, a failed scan node, a nonzero exit with an error
    message). Only the first kind makes a run incorrect."""

    start: float
    latency: float
    blob: bytes  # output bytes compared across passes; their digest once settled
    payload: tuple
    wrong: list[str] = field(default_factory=list)
    unavailable: list[str] = field(default_factory=list)
    points: int = 0
    verdict: str | None = None
    written: int = 0  # bytes of the CLI's output file

    @property
    def problems(self) -> list[str]:
        return self.wrong + self.unavailable


@dataclass
class Round:
    results: list[Result]
    traced: bool = False


def pin_blas_threads() -> dict:
    """Pin BLAS pools to one thread before numpy loads; return what was inherited."""
    inherited = {k: os.environ.get(k) for k in BLAS_VARS}
    for k in BLAS_VARS:
        os.environ[k] = "1"
    return inherited


def machine_info(inherited: dict) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env_inherited": inherited,
        "blas_env": {k: os.environ[k] for k in BLAS_VARS},
    }


def run_setup(workload: str, seed: int, work: Path, repeats: int) -> tuple[list[float], Path]:
    """Time `repeats` fresh setup processes; fail unless they write identical inputs."""
    times = []
    dirs = []
    for i in range(repeats):
        out = work / f"setup-{i}"
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"input set-up failed:\n{proc.stderr}")
        dirs.append(out)
    first = {p.name: p.read_bytes() for p in dirs[0].iterdir()}
    for d in dirs[1:]:
        if {p.name: p.read_bytes() for p in d.iterdir()} != first:
            raise RuntimeError(f"set-up {d.name} wrote other inputs than {dirs[0].name}")
    return times, dirs[0]


def build_ops(specs, inputs: Path, outputs: Path) -> list[Op]:
    import workloads
    from specnorm import io as sio

    region = ",".join(repr(x) for x in workloads.REGION)
    grid = ",".join(str(x) for x in workloads.GRID)
    ops = []
    for spec in specs:
        path = inputs / spec.file
        a = sio.read_matrix(path)
        for command in spec.commands:
            label = f"{command} {spec.kind} n={spec.n} seed={spec.seed}"
            if command == "certify":
                ops.append(Op(label, spec, a, command))
                continue
            out = outputs / f"op{len(ops):03d}.{'csv' if command == 'scan_csv' else 'json'}"
            if command in ("scan_csv", "scan_json"):
                argv = ["scan", "--input", str(path), f"--region={region}", "--grid", grid,
                        "--format", command[5:], "--output", str(out)]
            elif command == "corollary":
                argv = ["check-corollary", "--input", str(path), "--seed", str(spec.seed),
                        "--samples", str(workloads.COROLLARY_SAMPLES), "--output", str(out)]
            else:
                argv = ["weyl", "--input", str(path), "--output", str(out)]
            ops.append(Op(label, spec, a, command, argv, out))
    return ops


def call(op: Op) -> tuple:
    """The timed part of one operation: a public entry point of the package."""
    from specnorm import certifier, cli
    from specnorm.errors import IndeterminateError, SpecnormError

    if op.command == "certify":
        try:
            cert = certifier.certify(op.a)
        except IndeterminateError as exc:
            return ("indeterminate", str(exc))
        except SpecnormError as exc:
            return ("refused", f"{type(exc).__name__}: {exc}")
        return ("cert", cert, certifier.certificate_to_dict(cert, op.a))
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(op.argv)
    return ("cli", code, out.getvalue(), err.getvalue())


def run_op(op: Op) -> Result:
    start = perf_counter()
    try:
        payload = call(op)
    except Exception:  # a crash is a failed operation; the loop goes on
        latency = perf_counter() - start
        text = traceback.format_exc()
        return Result(start, latency, text.encode(), ("error", text))
    latency = perf_counter() - start
    if payload[0] == "cert":
        blob = json.dumps(payload[2], sort_keys=True).encode()
    elif payload[0] in ("indeterminate", "refused"):
        blob = f"{payload[0]}: {payload[1]}".encode()
    else:
        text = op.out_path.read_text(encoding="utf-8") if op.out_path.exists() else ""
        op.out_path.unlink(missing_ok=True)
        payload = payload + (text,)
        _, code, stdout, stderr, _ = payload
        blob = f"{code}\n{stdout}\0{stderr}\0{text}".encode()
    return Result(start, latency, blob, payload)


def check(op: Op, res: Result) -> None:
    """Fill in the problems, points and verdict of one result from its output."""
    import checks
    import workloads

    kind = res.payload[0]
    if kind == "error":
        res.wrong = [f"crashed: {res.payload[1].strip().splitlines()[-1]}"]
        return
    if kind == "refused":
        res.unavailable = [f"refused: {res.payload[1]}"]
        return
    try:
        if op.command == "certify":
            if kind == "indeterminate":
                res.verdict = "Indeterminate"
                if op.spec.expect != "band":
                    res.unavailable = [f"{op.spec.expect}-by-construction input gave "
                                       f"Indeterminate: {res.payload[1]}"]
                return
            _, cert, doc = res.payload
            res.verdict = cert.verdict
            res.points = len(doc["probes"])
            res.wrong = checks.check_certificate(op.a, op.spec.expect, cert, doc)
            return
        _, code, _, stderr, text = res.payload
        if code in (EXIT_INDETERMINATE, EXIT_ERROR):
            if op.command == "corollary" and code == EXIT_INDETERMINATE:
                res.verdict = "Indeterminate"
            res.unavailable = [f"{op.argv[0]} exited {code}: {stderr.strip()}"]
            return
        if op.command in ("scan_csv", "scan_json"):
            parse = checks.parse_scan_csv if op.command == "scan_csv" else checks.parse_scan_json
            rows, failures = parse(text)
            res.points = sum(1 for r in rows if r[5] != "failed")
            res.wrong = checks.check_scan(code, rows, failures, op.a,
                                          op.spec.expect == "normal",
                                          workloads.REGION, workloads.GRID)
            if failures:
                res.unavailable = [f"scan reports {failures} failed nodes"]
            return
        doc = json.loads(text) if text else {}
        if op.command == "corollary":
            res.verdict = doc.get("verdict")
            res.points = int(doc.get("n_samples", 0))
            res.wrong = checks.check_corollary(code, doc, op.spec.expect,
                                               workloads.COROLLARY_SAMPLES)
        else:
            res.wrong = checks.check_weyl(code, doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        res.wrong = [f"malformed output: {exc!r}"]


def settle(ops: list[Op], rnd: Round) -> None:
    """Check one round's outputs, then keep only what the metrics and the
    cross-pass comparison need, so that memory does not grow with the number
    of rounds and peak_rss_mb does not depend on how many fit in a run."""
    for op, res in zip(ops, rnd.results):
        check(op, res)
        if res.payload[0] == "cli":
            res.written = len(res.payload[-1].encode())
        res.blob = hashlib.sha256(res.blob).digest()
        res.payload = res.payload[:1]


def check_all(ops: list[Op], rounds: list[Round]) -> None:
    """Compare each operation's settled output bytes across passes and report
    every operation that failed in some pass."""
    import checks

    for i, op in enumerate(ops):
        passes = [rnd.results[i] for rnd in rounds]
        for k in checks.changed_passes([res.blob for res in passes]):
            passes[k].wrong.append("output bytes differ from the first pass")
        for res in passes:
            if res.problems:
                print(f"FAILED {op.label}: {res.problems[0]}", file=sys.stderr)
                break


def run_round(ops: list[Op], speed: SpeedLog, tracer=None) -> Round:
    def timed(op: Op) -> Result:
        speed.maybe_calibrate()
        return run_op(op)

    if tracer is None:
        return Round([timed(op) for op in ops])
    with tracer:
        return Round([timed(op) for op in ops], traced=True)


def measure(ops: list[Op], seconds: float, speed: SpeedLog, tracer=None) -> list[Round]:
    """Closed loop over whole rounds until the next one would overrun `seconds`.

    Without a tracer every round is timed plainly; with one, rounds alternate
    plain and traced so that the tracing overhead is measured on equal work.
    Every operation runs at least twice, so its output bytes can be compared.
    """
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        if tracer is None:
            rounds.append(run_round(ops, speed))
            units = len(rounds)
        else:
            rounds.append(run_round(ops, speed))
            settle(ops, rounds[-1])
            tracer.capture = not any(r.traced for r in rounds)
            rounds.append(run_round(ops, speed, tracer))
            tracer.capture = False
            units = len(rounds) // 2
        settle(ops, rounds[-1])
        elapsed = perf_counter() - start
        if len(rounds) >= 2 and elapsed + elapsed / units > seconds:
            speed.calibrate()  # brackets the last operation
            return rounds


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops, rounds, setup_times, speed: SpeedLog) -> tuple[dict, dict]:
    results = [r for rnd in rounds for r in rnd.results]
    wall = [r.latency for r in results]
    latencies = [speed.to_reference(r.start, r.latency) for r in results]
    busy = sum(latencies)
    verified = [r for r in results if not r.problems]
    verdicts = [r.verdict for r in results
                if r.verdict in ("Normal", "Nonnormal", "Indeterminate")]
    p90 = percentile(latencies, 90)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "ops_per_s": len(verified) / busy,
        "points_per_s": sum(r.points for r in results if not r.wrong) / busy,
        "decided_frac": 1.0 - verdicts.count("Indeterminate") / max(1, len(verdicts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "samples": len(latencies),
        "beyond_p90": sum(x > p90 for x in latencies),
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "wall_p50_s": statistics.median(wall),
        "wall_p90_s": percentile(wall, 90),
        "wall_busy_s": sum(wall),
        "calibration_loop_s": statistics.median(speed.loops),
        "setup_runs_s": setup_times,
        "failed_frac": 1.0 - len(verified) / len(results),
        "indeterminate_frac": 1.0 - values["decided_frac"],
    }
    return values, info


def ceiling(tracer, name: str, reference) -> float:
    """Time of the package's kernel over numpy.linalg on the same arguments."""
    args = [(idx, arg) for fn, idx, arg in tracer.captured if fn == name]
    ours = sum(tracer.spans[idx].duration for idx, _ in args)
    reference(args[0][1])  # first call loads the LAPACK path
    theirs = 0.0
    for _, arg in args:
        start = perf_counter()
        reference(arg)
        theirs += perf_counter() - start
    return ours / theirs


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in the order they are printed."""
    from tracer import traced_names

    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    return units | LAYER_RATIO_UNITS


def per_layer(ops, specs, rounds, tracer, speed: SpeedLog) -> tuple[dict, dict]:
    import numpy as np

    from tracer import traced_names

    def busy(rnds):
        return sum(speed.to_reference(r.start, r.latency) for rnd in rnds for r in rnd.results)

    traced = [rnd for rnd in rounds if rnd.traced]
    plain = [rnd for rnd in rounds if not rnd.traced]
    n_ops = len(ops) * len(traced)
    totals = tracer.totals()
    values = {}
    for name in traced_names():
        values[f"{name}.calls"] = totals[name].calls / n_ops
        values[f"{name}.self_s"] = totals[name].self_s / n_ops
    written = sum(r.written for rnd in traced for r in rnd.results)
    values["io.bytes_written"] = written / n_ops
    points = sum(r.points for rnd in traced for r in rnd.results)
    values["kernels.svd.per_point"] = totals["kernels.svd"].calls / points
    values["kernels.schur.per_matrix"] = (totals["kernels.schur"].calls
                                          / (len(specs) * len(traced)))
    certify_s = totals["certifier.certify"].inclusive_s
    values["certifier.constructive_share"] = (
        sum(totals[n].inclusive_s for n in CONSTRUCTIVE) / certify_s if certify_s else 0.0)
    values["ceiling.svd_ratio"] = ceiling(
        tracer, "kernels.svd", lambda m: np.linalg.svd(m, full_matrices=True))
    values["ceiling.schur_ratio"] = ceiling(tracer, "kernels.schur", np.linalg.eigvals)
    values["trace.overhead_frac"] = busy(traced) / busy(plain) - 1.0
    units = layer_units()
    info = {"traced_rounds": len(traced), "plain_rounds": len(plain),
            "spans": len(tracer.spans), "ops_per_round": len(ops)}
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, info


def main(argv=None, inherited_blas: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description="specnorm benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "specnorm" / "cli.py").is_file():
        print(f"perfbench: no specnorm sources under {SRC}; run it in a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # noqa: F401  imports specnorm, so set-up children find its bytecode
    import workloads
    from speed import SpeedLog
    from tracer import Tracer

    specs = workloads.matrices(args.workload, args.seed)
    print("machine " + json.dumps(machine_info(inherited_blas or {})))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times, inputs = run_setup(args.workload, args.seed, work, repeats)
        outputs = work / "out"
        outputs.mkdir()
        ops = build_ops(specs, inputs, outputs)
        run_op(ops[0])  # warm-up: first-call imports and caches, not timed
        tracer = Tracer() if args.trace else None
        speed = SpeedLog()
        rounds = measure(ops, args.seconds, speed, tracer)
        check_all(ops, rounds)
        if args.trace:
            metrics, info = per_layer(ops, specs, rounds, tracer, speed)
            spans = ROOT / ".perfbench_work" / "spans" / f"{args.workload}-{args.seed}.csv"
            tracer.write(spans)
            info["spans_file"] = str(spans.relative_to(ROOT))
        else:
            values, info = end_to_end(ops, rounds, setup_times, speed)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(len(rnd.results) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd.results if r.problems)
    wrong = sum(1 for rnd in rounds for r in rnd.results if r.wrong)
    print("run " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, **info}))
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:  # can be 0, so printed here and kept out of the JSON metrics
        for name in ("failed_frac", "indeterminate_frac"):
            print(f"{name:44s} {info[name]:.6g} ratio")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(inherited_blas=pin_blas_threads()))
