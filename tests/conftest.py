import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def endpoint_solves(monkeypatch):
    """List that records one entry per endpoint root solve.

    Wraps segment._extremal_canonical, which extremal_scale looks up at call
    time. The module comes from import_module: the attribute lpq2.classify
    is the function of that name, not the module, so attribute access on
    the package cannot be trusted to give a module.
    """
    segment = importlib.import_module("lpq2.segment")
    solve = segment._extremal_canonical
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(segment, "_extremal_canonical", counted)
    return calls
