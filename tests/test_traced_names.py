"""The benchmark tracer names package functions; each must still exist."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def traced_names():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracer").traced_names()
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    # the tracer wraps each of these by getattr/setattr and fails on a missing one
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"specnorm.{module}"), function))
