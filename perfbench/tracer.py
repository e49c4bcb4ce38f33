"""Span tracer that times calls into specnorm's public functions from outside.

Each traced function is replaced, by setattr on its module object, with a
wrapper that records a span (name, start, end, parent). The package calls its
own functions through module globals or module attributes (certifier calls
kernels.svd, kernels.svd calls householder_qr), so those internal calls are
caught as well as the benchmark's own. Spans stay in memory until the run
ends, when run.py writes them out; nothing inside the package is changed on
disk.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> public functions timed as layers
TRACED = {
    "kernels": ("hessenberg", "schur", "svd", "householder_qr", "rank_with_tol",
                "gram_schmidt_orthonormalize"),
    "spectral": ("cluster_spectrum", "spectrum_of", "shifted_smallest_singular",
                 "dist_to_spectrum", "gap", "weyl_bounds_check"),
    "certifier": ("certify", "select_probes", "criterion_holds",
                  "commutator_normality_oracle", "semisimple_check", "eigenspace_basis",
                  "left_eigvec_check", "cross_orthogonality_check",
                  "build_orthonormal_eigenbasis", "certificate_to_dict"),
    "scan": ("scan_grid", "check_corollary"),
    "io": ("read_matrix", "dump_json", "scan_csv"),
    "cli": ("main",),
}

# functions whose first argument is kept for the numpy.linalg ceiling replay
CAPTURED = ("kernels.svd", "kernels.schur")


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top level

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    # time of calls not nested in a call of the same function
    inclusive_s: float = 0.0


@dataclass
class Tracer:
    """Install with `with tracer:`; spans accumulate across installs."""

    spans: list[Span] = field(default_factory=list)
    capture: bool = False
    # (function name, span index, copy of the first argument)
    captured: list[tuple[str, int, np.ndarray]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        captured = self.captured
        keep_arg = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            if keep_arg and self.capture:
                captured.append((name, idx, np.array(args[0], dtype=np.complex128)))
            spans.append(Span(name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span = spans[idx]
                span.start = start
                span.end = end

        return wrapper

    def __enter__(self) -> Tracer:
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module(f"specnorm.{mod_name}")
            for fn_name in fns:
                original = getattr(mod, fn_name)
                self._saved.append((mod, fn_name, original))
                setattr(mod, fn_name, self._wrap(f"{mod_name}.{fn_name}", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, fn_name, original = self._saved.pop()
            setattr(mod, fn_name, original)
        self._stack.clear()

    def write(self, path: Path) -> None:
        """Write every span as a CSV row: index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write("index,name,start,end,parent\n")
            for i, span in enumerate(self.spans):
                f.write(f"{i},{span.name},{span.start!r},{span.end!r},{span.parent}\n")

    def totals(self) -> dict[str, LayerTotals]:
        """Calls, self time and inclusive time per traced function.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        out = {name: LayerTotals() for name in traced_names()}
        for i, span in enumerate(self.spans):
            t = out[span.name]
            t.calls += 1
            t.self_s += span.duration - child_time[i]
            if span.parent < 0 or self.spans[span.parent].name != span.name:
                t.inclusive_s += span.duration
        return out
