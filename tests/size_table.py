"""Print the wall time of certify, scan_grid and check_corollary by kind and size.

Run from anywhere, with the checkout to time:

    python3 tests/size_table.py

For each kind (normal, ginibre, jordan, near_normal with eps 1e-3) and each
n in 4, 8, 16, 32, 64, it times, in process and in ms, the min of REPEATS
runs of:

- schur: kernels.schur alone, the one Schur form the other three run;
- certify: certifier.certify, an Indeterminate verdict included;
- scan_grid: scan.scan_grid on a GRID[0] x GRID[1] grid over REGION;
- check_corollary: scan.check_corollary with COROLLARY_SAMPLES samples.

Each row also gives certify's verdict. Every matrix is
generate_matrix(kind, n, SEED, eps). BLAS is pinned to one thread before
numpy loads, as perfbench/run.py pins it. The last line gives the total
runtime (about 20 s on a 2-core x86_64 host). The file name does not
match pytest's test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specnorm import kernels  # noqa: E402
from specnorm.certifier import certify  # noqa: E402
from specnorm.errors import IndeterminateError  # noqa: E402
from specnorm.generators import generate_matrix  # noqa: E402
from specnorm.scan import check_corollary, scan_grid  # noqa: E402

KINDS = (("normal", None), ("ginibre", None), ("jordan", None), ("near_normal", 1e-3))
SIZES = (4, 8, 16, 32, 64)
SEED = 1
REPEATS = 5
REGION = (-2.0, 2.0, -2.0, 2.0)
GRID = (5, 5)
COROLLARY_SAMPLES = 25


def best_ms(call) -> float:
    """The min over REPEATS runs of call's wall time, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def verdict(a) -> str:
    try:
        return certify(a).verdict
    except IndeterminateError:
        return "Indeterminate"


def main() -> int:
    start = time.perf_counter()
    print(f"min of {REPEATS} runs, ms; seed {SEED}; scan_grid {GRID[0]}x{GRID[1]} "
          f"over {REGION}; check_corollary {COROLLARY_SAMPLES} samples")
    print(f"{'kind':<12} {'n':>3} {'schur':>9} {'certify':>9} {'scan_grid':>10} "
          f"{'corollary':>10}  verdict")
    for kind, eps in KINDS:
        for n in SIZES:
            a = generate_matrix(kind, n, SEED, eps)
            times = [best_ms(lambda: kernels.schur(a)), best_ms(lambda: verdict(a)),
                     best_ms(lambda: scan_grid(a, REGION, *GRID)),
                     best_ms(lambda: check_corollary(a, COROLLARY_SAMPLES))]
            print(f"{kind:<12} {n:>3} {times[0]:>9.3f} {times[1]:>9.3f} {times[2]:>10.3f} "
                  f"{times[3]:>10.3f}  {verdict(a)}", flush=True)
    print(f"total {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
