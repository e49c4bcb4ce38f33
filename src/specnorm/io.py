"""Matrix, scan, and certificate file formats.

Matrices travel as JSON with (re, im) pairs; Python's shortest round-trip
float formatting preserves every bit through a write/read cycle. A grid
scan is written as CSV (scan_csv) or JSON (scan_json); both format its
samples directly, a column of floats at a time and each grid coordinate
once, and scan_json's bytes are those of dump_json on the scan document.
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


def _axes(scan: GridScan) -> tuple[list[float], list[float]] | None:
    """The grid's nx real and ny imaginary coordinates, or None.

    They are the real parts of the first row of samples and the imaginary
    parts of the first column, returned when every sample's z is, bit for
    bit, the node of the row-major nx-by-ny grid they span (as scan_grid
    makes it).
    """
    nx, ny = scan.nx, scan.ny
    if not scan.samples or len(scan.samples) != nx * ny:
        return None
    z = np.array([smp.z for smp in scan.samples], dtype=np.complex128).reshape(ny, nx)
    re = np.ascontiguousarray(z.real)
    im = np.ascontiguousarray(z.imag)
    # compared as bits, so that -0.0 and NaN read as themselves
    if (re.view(np.int64) != re[:1].view(np.int64)).any() or (
        im.view(np.int64) != im[:, :1].view(np.int64)
    ).any():
        return None
    return re[0].tolist(), im[:, 0].tolist()


def _coordinates(scan: GridScan, column) -> tuple[list[str], list[str]]:
    """Every sample's z.real and z.imag, formatted by column (a list of floats to a list of str).

    On a grid (`_axes`), each of its nx + ny coordinates is formatted once.
    """
    axes = _axes(scan)
    if axes is None:
        return (
            column([smp.z.real for smp in scan.samples]),
            column([smp.z.imag for smp in scan.samples]),
        )
    re, im = (column(values) for values in axes)
    return re * scan.ny, [x for x in im for _ in range(scan.nx)]


def _repr_column(values: list) -> list[str]:
    return list(map(repr, values))


def scan_csv(scan: GridScan) -> str:
    re, im = _coordinates(scan, _repr_column)
    lines = ["re,im,s,d,ratio,flag"]
    lines += [
        f"{x},{y},{smp.s!r},{smp.d!r},{smp.ratio!r},{smp.flag}"
        for x, y, smp in zip(re, im, scan.samples)
    ]
    return "\n".join(lines) + "\n"


def _json_float(x: float) -> str:
    """x as json.dumps writes a float: its repr, or NaN, Infinity, -Infinity."""
    if x - x == 0.0:
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _json_column(values: list) -> list[str]:
    """Each of a list of floats as `_json_float` writes it, finiteness tested once for the list."""
    if np.isfinite(values).all():
        return list(map(float.__repr__, values))
    return list(map(_json_float, values))


def scan_json(scan: GridScan) -> str:
    """The scan document, byte for byte as dump_json writes it.

    Keys are sorted and indented by two spaces, as json.dumps(doc,
    sort_keys=True, indent=2) does, but each sample is one format string,
    not a pass of the json module's pure-Python indenting encoder. Each
    column of floats is formatted at once, and each grid coordinate once.
    """
    re, im = _coordinates(scan, _json_column)
    s, d, ratio = (
        _json_column([getattr(smp, name) for smp in scan.samples]) for name in ("s", "d", "ratio")
    )
    flags = {flag: json.dumps(flag) for flag in {smp.flag for smp in scan.samples}}
    samples = ",\n".join(
        f'    {{\n      "d": {d_k},\n      "flag": {flags[smp.flag]},\n'
        f'      "ratio": {ratio_k},\n      "s": {s_k},\n'
        f'      "z": [\n        {x},\n        {y}\n      ]\n    }}'
        for smp, s_k, d_k, ratio_k, x, y in zip(scan.samples, s, d, ratio, re, im)
    )
    samples = f"[\n{samples}\n  ]" if samples else "[]"
    region = ",\n    ".join(
        map(_json_float, (scan.re_min, scan.re_max, scan.im_min, scan.im_max))
    )
    return (
        f'{{\n  "failures": {scan.failures:d},\n  "nx": {scan.nx:d},\n'
        f'  "ny": {scan.ny:d},\n  "region": [\n    {region}\n  ],\n'
        f'  "samples": {samples}\n}}\n'
    )
