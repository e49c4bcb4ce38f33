"""Command-line front end.

Subcommands: certify, scan, weyl, gen, check-corollary. Exit codes:
0 = Normal/success, 1 = Nonnormal, 2 = Indeterminate, 3 = usage or I/O error.
Diagnostics go to stderr; machine-readable output to stdout or --output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import certifier, generators, io, scan as scanmod, spectral
from .errors import IndeterminateError, SpecnormError

EXIT_NORMAL = 0
EXIT_NONNORMAL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3


def _add_matrix_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="matrix JSON file")
    p.add_argument("--kind", choices=generators.KINDS, help="generate instead of reading")
    p.add_argument("--n", type=int, help="generated matrix size")
    p.add_argument("--seed", type=int, default=None, help="generator seed")
    p.add_argument("--eps", type=float, default=None,
                   help="family parameter (near_normal epsilon, jordan eigenvalue)")


def _add_certify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-eq", type=float, default=None, dest="tol_eq")
    p.add_argument("--cluster-tol", type=float, default=None, dest="cluster_tol")
    p.add_argument("--probe-angle", type=float, default=0.0, dest="probe_angle")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPECNORM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SpecnormError(f"SPECNORM_SEED is not an integer: {env!r}") from exc
    return 0


def _load_matrix(args):
    if args.input:
        return io.read_matrix(args.input)
    if args.kind is None or args.n is None:
        raise SpecnormError("provide either --input or both --kind and --n")
    return generators.generate_matrix(args.kind, args.n, _resolve_seed(args), args.eps)


def _certify_config(args) -> certifier.CertifyConfig:
    return certifier.CertifyConfig(
        tol_eq=args.tol_eq,
        cluster_tol=args.cluster_tol,
        probe_angle=args.probe_angle,
    )


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_certify(args) -> int:
    a = _load_matrix(args)
    cert = certifier.certify(a, _certify_config(args))
    print(cert.verdict)
    _emit(io.dump_json(certifier.certificate_to_dict(cert, a)), args.output)
    return EXIT_NORMAL if cert.verdict == "Normal" else EXIT_NONNORMAL


def cmd_scan(args) -> int:
    a = _load_matrix(args)
    region = tuple(float(x) for x in args.region.split(","))
    if len(region) != 4:
        raise SpecnormError("--region expects re_min,re_max,im_min,im_max")
    grid = tuple(int(x) for x in args.grid.split(","))
    if len(grid) != 2:
        raise SpecnormError("--grid expects NX,NY")
    result = scanmod.scan_grid(a, region, grid[0], grid[1])
    if args.format == "csv":
        _emit(io.scan_csv(result), args.output)
    else:
        _emit(io.scan_json(result), args.output)
    return EXIT_NORMAL


def cmd_weyl(args) -> int:
    a = _load_matrix(args)
    report = spectral.weyl_bounds_check(a)
    _emit(io.dump_json(dataclasses.asdict(report)), args.output)
    return EXIT_NORMAL


def cmd_gen(args) -> int:
    if args.kind is None or args.n is None:
        raise SpecnormError("gen requires --kind and --n")
    seed = _resolve_seed(args)
    a = generators.generate_matrix(args.kind, args.n, seed, args.eps)
    meta = {"kind": args.kind, "n": args.n, "seed": seed}
    if args.eps is not None:
        meta["param"] = args.eps
    text = io.dump_json(io.matrix_to_dict(a, meta))
    _emit(text, args.output)
    return EXIT_NORMAL


def cmd_check_corollary(args) -> int:
    # one Analysis, so certify and the corollary scan share one Schur form
    an = spectral.analyze(_load_matrix(args))
    cert = certifier.certify(an, _certify_config(args))
    tol_eq = cert.config_echo["tol_eq"]
    report = scanmod.check_corollary(an, n_samples=args.samples, seed=_resolve_seed(args))
    consistent = not (cert.verdict == "Normal" and report.max_abs_gap > tol_eq)
    doc = {
        "verdict": cert.verdict,
        "n_samples": report.n_samples,
        "disc_center": [report.center.real, report.center.imag],
        "disc_radius": report.radius,
        "max_abs_gap": report.max_abs_gap,
        "worst_z": [report.worst_z.real, report.worst_z.imag],
        "tol_eq": tol_eq,
        "consistent": consistent,
    }
    _emit(io.dump_json(doc), args.output)
    if not consistent:
        print("check-corollary: scan contradicts Normal verdict", file=sys.stderr)
        return EXIT_NONNORMAL
    return EXIT_NORMAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # cached: parsing leaves the parser unchanged, so every `main` call shares one
    parser = argparse.ArgumentParser(
        prog="specnorm",
        description="Decide matrix normality via the spectral-distance criterion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="probe-based normality certificate")
    _add_matrix_source(p)
    p.add_argument("--output", help="certificate JSON path")
    _add_certify_options(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", help="grid scan of s(z), d(z), ratio")
    _add_matrix_source(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--region", default="-2,2,-2,2",
                   help="re_min,re_max,im_min,im_max")
    p.add_argument("--grid", default="21,21", help="NX,NY")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("weyl", help="Weyl singular-value/eigenvalue bounds")
    _add_matrix_source(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("gen", help="write a seeded test matrix")
    _add_matrix_source(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-corollary", help="randomized equality cross-check")
    _add_matrix_source(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--samples", type=int, default=200)
    _add_certify_options(p)
    p.set_defaults(func=cmd_check_corollary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        # every kernel refuses a non-finite result by itself, so numpy's
        # floating-point warnings would only add lines to the one message
        with np.errstate(all="ignore"):
            return args.func(args)
    except IndeterminateError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (SpecnormError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
