"""The traced benchmark pass finds its targets by name.

``bench/tracer.py::TARGETS`` is a by-name table of ``(module, attribute)``
pairs the tracer swaps for timing wrappers; a rename in ``src/`` breaks
``python3 bench/run.py --trace 1`` without failing anything else.  This
test resolves every entry so tier-1 sees the break first.
"""

import importlib
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("tracer").TARGETS
    finally:
        sys.path.remove(str(BENCH_DIR))
        sys.modules.pop("tracer", None)


def test_every_tracer_target_resolves(targets):
    assert targets
    for target in targets:
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            assert hasattr(owner, part), \
                f"{target.module}.{target.attr} no longer resolves"
            owner = getattr(owner, part)
        assert callable(owner), f"{target.module}.{target.attr}"


def test_walk_entries_are_distinct_functions(targets):
    """The tracer rebinds module-level functions by object identity and
    reads walk counters off each entry's own return value, so the two walk
    entries must not be aliases of one another."""
    entries = [getattr(importlib.import_module(target.module), target.attr)
               for target in targets
               if target.span in ("frontier_walk", "beam_walk")]
    assert len(entries) == 2
    assert entries[0] is not entries[1]
