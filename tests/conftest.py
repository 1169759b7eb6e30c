"""Fixtures shared by the test modules."""

import pytest

from ecnprobe import report, simnet, tunnels


def empty_stores(patch: pytest.MonkeyPatch) -> None:
    """Give the process empty stores through ``patch``, whose undo puts the process's own back: each Store with
    its own build and limit, the plan store with no records counted, and no exchange numbers.  A Hypothesis test,
    which takes no function-scoped fixture, calls this inside ``pytest.MonkeyPatch.context()``."""
    for module, name in ((tunnels, "_CUSTOM_TABLES"), (simnet, "_TRACE_PIECES"), (report, "_SECTIONS")):
        store = getattr(module, name)
        patch.setattr(module, name, tunnels.Store(store.build, store.limit))
    for name, value in (("_PLANS", {}), ("_planned_records", 0), ("_NUMBERS", [])):
        patch.setattr(simnet, name, value)


@pytest.fixture
def fresh_stores(monkeypatch):
    """Empty process-wide stores for the test, whatever ran before it."""
    empty_stores(monkeypatch)
