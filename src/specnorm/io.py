"""Matrix, scan, and certificate file formats.

Matrices travel as JSON with (re, im) pairs; Python's shortest round-trip
float formatting preserves every bit through a write/read cycle. A grid
scan is written as CSV (scan_csv) or JSON (scan_json); both format every
sample directly, and scan_json's bytes are those of dump_json on the scan
document.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SpecnormError
from .kernels import as_square
from .scan import GridScan


class MatrixFormatError(SpecnormError):
    """Malformed matrix file."""


def matrix_to_dict(a, meta: dict | None = None) -> dict:
    a = as_square(a)
    doc = {
        "n": int(a.shape[0]),
        "entries": [[[z.real, z.imag] for z in row] for row in a],
    }
    if meta:
        doc["meta"] = meta
    return doc


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matrix_from_dict(doc: dict) -> np.ndarray:
    try:
        n = doc["n"]
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"matrix document missing n/entries: {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool):
        raise MatrixFormatError(f"n: expected the row count as a JSON integer, got {n!r}")
    if not isinstance(entries, (list, tuple)):
        raise MatrixFormatError("entries: expected a list of rows")
    if len(entries) != n:
        raise MatrixFormatError(f"expected {n} rows, found {len(entries)}")
    a = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(entries):
        if not isinstance(row, (list, tuple)):
            raise MatrixFormatError(f"row {i}: expected a list of entries")
        if len(row) != n:
            raise MatrixFormatError(f"row {i}: expected {n} entries, found {len(row)}")
        for j, pair in enumerate(row):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2 \
                    or not all(_is_real(x) for x in pair):
                raise MatrixFormatError(
                    f"row {i}, col {j}: expected a [re, im] pair of real numbers"
                )
            try:
                a[i, j] = complex(float(pair[0]), float(pair[1]))
            except OverflowError as exc:
                raise MatrixFormatError(f"row {i}, col {j}: {exc}") from exc
    return as_square(a)


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_matrix(path, a, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(matrix_to_dict(a, meta)))


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    return matrix_from_dict(doc)


def scan_csv(scan: GridScan) -> str:
    lines = ["re,im,s,d,ratio,flag"]
    for smp in scan.samples:
        lines.append(
            f"{smp.z.real!r},{smp.z.imag!r},{smp.s!r},{smp.d!r},{smp.ratio!r},{smp.flag}"
        )
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    """x as json.dumps writes a float: its repr, or NaN, Infinity, -Infinity."""
    if x - x == 0.0:
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def scan_json(scan: GridScan) -> str:
    """The scan document, byte for byte as dump_json writes it.

    Keys are sorted and indented by two spaces, as json.dumps(doc,
    sort_keys=True, indent=2) does, but each sample is one format string,
    not a pass of the json module's pure-Python indenting encoder.
    """
    f = _json_float
    flags = {flag: json.dumps(flag) for flag in {smp.flag for smp in scan.samples}}
    samples = ",\n".join(
        f'    {{\n      "d": {f(smp.d)},\n      "flag": {flags[smp.flag]},\n'
        f'      "ratio": {f(smp.ratio)},\n      "s": {f(smp.s)},\n'
        f'      "z": [\n        {f(smp.z.real)},\n        {f(smp.z.imag)}\n      ]\n    }}'
        for smp in scan.samples
    )
    samples = f"[\n{samples}\n  ]" if samples else "[]"
    region = ",\n    ".join(f(x) for x in (scan.re_min, scan.re_max, scan.im_min, scan.im_max))
    return (
        f'{{\n  "failures": {scan.failures:d},\n  "nx": {scan.nx:d},\n'
        f'  "ny": {scan.ny:d},\n  "region": [\n    {region}\n  ],\n'
        f'  "samples": {samples}\n}}\n'
    )
