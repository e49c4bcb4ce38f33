"""The benchmark's three workloads: the matrices each one generates from the
workload seed, and the operations it runs on them.

Every workload is a single-client closed loop over a fixed list of
operations (one "round"); rounds repeat until the run time is spent, so the
mix of sizes and kinds is the same in every run and only the random matrices
change with the seed. README.md says why each mix was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("certify_normal", "certify_nonnormal", "scan_cli")

# (kind, generator param). Each group fixes what the output checks expect.
NORMAL_KINDS = (("normal", None), ("hermitian", None), ("unitary", None),
                ("near_normal", 0.0))
# inside the Indeterminate band of ROADMAP open item 4 at every n used here
BAND_KINDS = (("near_normal", 1e-6), ("near_normal", 1e-5))
NONNORMAL_KINDS = (("ginibre", None), ("jordan", None), ("near_normal", 1e-3))

# (n, matrices per kind, kinds). Counts are set so that the median falls
# near the middle of one group of like operations (the n=4 Normal certifies;
# the n=4 ginibre and near_normal ones) and the 90th percentile inside another
# (the n=8 Normal certifies; the n=8 ginibre and near_normal ones), not on the
# edge between two groups of different cost, where the seed would decide which
# side they land on. Groups of 16 to 50 distinct matrices keep the seed's
# effect on those order statistics small.
CERTIFY_NORMAL_MIX = (
    (4, 12, NORMAL_KINDS + BAND_KINDS),
    (8, 4, NORMAL_KINDS),
    (8, 1, BAND_KINDS),
    (16, 1, (("normal", None), ("near_normal", 1e-6))),
)
CERTIFY_NONNORMAL_MIX = (
    (4, 20, NONNORMAL_KINDS),
    (8, 10, NONNORMAL_KINDS),
    (16, 2, NONNORMAL_KINDS),
)
# (kind, n, commands). A 21x21 scan at n=8 costs 4-5 s, which would leave a
# single round per run, so scans stop at n=6 and n=8 gets the cheaper
# commands. There are as many operations cheaper than the ten n=4 scans
# (corollaries at n=4, three weyl) as dearer ones, so the median falls in
# the middle of the scans.
SCAN_CLI_MIX = (
    ("normal", 4, ("scan_csv", "corollary", "weyl")),
    ("ginibre", 4, ("scan_json", "corollary")),
    ("normal", 4, ("scan_json", "corollary")),
    ("ginibre", 4, ("scan_csv", "corollary")),
    ("normal", 4, ("scan_csv",)),
    ("ginibre", 4, ("scan_json",)),
    ("normal", 4, ("scan_json",)),
    ("ginibre", 4, ("scan_csv",)),
    ("normal", 4, ("scan_csv",)),
    ("ginibre", 4, ("scan_json",)),
    ("normal", 6, ("scan_csv", "corollary")),
    ("ginibre", 6, ("scan_json", "corollary", "weyl")),
    ("normal", 8, ("corollary", "weyl")),
    ("ginibre", 8, ("corollary",)),
)

REGION = (-2.0, 2.0, -2.0, 2.0)
GRID = (21, 21)
COROLLARY_SAMPLES = 200


@dataclass(frozen=True)
class MatrixSpec:
    """One generated input matrix and the commands run on it."""

    file: str
    kind: str
    n: int
    seed: int
    param: float | None
    expect: str  # "normal", "nonnormal" or "band" (any verdict allowed)
    commands: tuple[str, ...]


def _expect(kind: str, param: float | None) -> str:
    if (kind, param) in NORMAL_KINDS:
        return "normal"
    if (kind, param) in BAND_KINDS:
        return "band"
    return "nonnormal"


def matrices(workload: str, seed: int) -> list[MatrixSpec]:
    """The workload's input matrices, a pure function of (workload, seed)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rows = []
    if workload in ("certify_normal", "certify_nonnormal"):
        mix = CERTIFY_NORMAL_MIX if workload == "certify_normal" else CERTIFY_NONNORMAL_MIX
        for n, copies, kinds in mix:
            for _ in range(copies):
                for kind, param in kinds:
                    rows.append((kind, n, param, ("certify",)))
    elif workload == "scan_cli":
        for kind, n, commands in SCAN_CLI_MIX:
            rows.append((kind, n, None, commands))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [
        MatrixSpec(f"m{i:03d}.json", kind, n, seed * 1000 + i, param,
                   _expect(kind, param), commands)
        for i, (kind, n, param, commands) in enumerate(rows)
    ]
