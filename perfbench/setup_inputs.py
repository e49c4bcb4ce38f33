"""Generate and write one workload's input matrices.

Run as a fresh interpreter by run.py, which times the whole process: its
wall time is the cold start of the command-line tool (importing numpy and
specnorm.cli) plus input generation, reported as setup_s.

    python3 perfbench/setup_inputs.py --workload scan_cli --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the matrix files")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  part of the measured cold start
    import specnorm.cli  # noqa: F401  part of the measured cold start
    from specnorm import generators, io

    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for spec in workloads.matrices(args.workload, args.seed):
        a = generators.generate_matrix(spec.kind, spec.n, spec.seed, spec.param)
        meta = {"kind": spec.kind, "n": spec.n, "seed": spec.seed}
        if spec.param is not None:
            meta["param"] = spec.param
        io.write_matrix(out / spec.file, a, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
