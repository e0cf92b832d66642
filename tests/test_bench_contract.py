"""The traced benchmark wraps program functions by module attribute name.

perfbench/tracing.py replaces each listed attribute for the length of a run;
an attribute that a refactor renames or moves would make the tracer fail.
This checks the names without changing perfbench.
"""
import importlib

import pytest

from perfbench.tracing import TARGETS


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, _, _ in TARGETS])
def test_traced_target_resolves(owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj)[cls]
    assert attr in vars(obj)
    assert callable(getattr(obj, attr))
