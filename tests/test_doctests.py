"""Run the usage examples embedded in library docstrings.

Keeps every ``>>>`` example in the public API honest — they are the
first thing a downstream user copies.
"""

import doctest

import pytest

import repro.core.atomset
import repro.core.intervals
import repro.core.prefix
import repro.structures.ptreap

MODULES = [
    repro.core.intervals,
    repro.core.prefix,
    repro.structures.ptreap,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tests = doctest.testmod(module, verbose=False).failed, \
        doctest.testmod(module, verbose=False).attempted
    assert tests > 0, f"{module.__name__} has no doctests to run"
    assert failures == 0
