"""The committed golden I/O ledger still matches, count for count.

The file is regenerated only by ``python -m tests.golden_ledger``; this
test never writes it.
"""

from __future__ import annotations

import json

import pytest

from tests import golden_ledger


@pytest.fixture(scope="module")
def ledgers():
    committed = json.loads(golden_ledger.GOLDEN_PATH.read_text("utf-8"))
    # Round-trip through JSON so tuples and lists compare alike.
    fresh = json.loads(golden_ledger.dumps(golden_ledger.compute()))
    return committed, fresh


def test_inputs_unchanged(ledgers):
    committed, fresh = ledgers
    for key in ("corpus", "workload", "entry"):
        assert fresh[key] == committed[key]


def test_every_registered_algorithm_is_pinned(ledgers):
    committed, fresh = ledgers
    assert sorted(fresh["static"]) == sorted(committed["static"])


@pytest.mark.parametrize("tau", ["0.6", "0.8", "0.9"])
def test_static_ledger_matches(ledgers, tau):
    committed, fresh = ledgers
    for name, per_tau in committed["static"].items():
        for i, (want, got) in enumerate(
            zip(per_tau[tau], fresh["static"][name][tau])
        ):
            assert got == want, f"{name} tau={tau} query {i}"


def test_updatable_ledger_matches(ledgers):
    committed, fresh = ledgers
    want, got = committed["updatable"], fresh["updatable"]
    assert got["tau"] == want["tau"]
    assert got["inserts"] == want["inserts"]
    for checkpoint, per_algorithm in want["after_inserts"].items():
        for name, entries in per_algorithm.items():
            assert got["after_inserts"][checkpoint][name] == entries, (
                f"{name} after {checkpoint} inserts"
            )
