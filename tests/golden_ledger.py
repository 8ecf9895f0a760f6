"""The golden I/O ledger: exact ``IOStats`` counts and answers, pinned.

Elements read per query is the quantity the paper's Figures 7-9 report.
This module computes, for a fixed corpus and workload, every registered
algorithm's exact ledger snapshot and answer ids at each threshold, plus
an :class:`~repro.core.updatable.UpdatableSearcher` case searched after
a fixed number of inserts.  ``tests/test_golden_ledger.py`` compares a
fresh computation against the committed file; a refactor that changes
what an algorithm reads then fails loudly instead of silently moving
the paper's figures.

Regenerate the file (only when the measured quantity is meant to move,
with a CHANGES.md entry saying why)::

    PYTHONPATH=src python -m tests.golden_ledger
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from repro import SetSimilaritySearcher, UpdatableSearcher
from repro.algorithms import algorithm_names
from repro.core.tokenize import QGramTokenizer
from repro.data.synthetic import generate_word_database
from repro.data.workloads import make_workload

GOLDEN_PATH = Path(__file__).resolve().parent / "fixtures" / "golden_ledger.json"

CORPUS = {"num_records": 4000, "vocabulary_size": 2000, "seed": 2008}
WORKLOAD = {"bucket": (11, 15), "count": 40, "modifications": 0, "seed": 77}
TAUS = (0.6, 0.8, 0.9)

# The updatable case: its base index has no hash index or id lists, so
# only the sequential-access algorithms run on it.
UPDATABLE_ALGORITHMS = ("sf", "inra", "hybrid", "nra")
UPDATABLE_TAU = 0.8
UPDATABLE_CHECKPOINTS = (0, 1, 10, 50)
INSERTS = {"bucket": (11, 15), "count": 50, "modifications": 1, "seed": 5}


def _entry(result) -> List[Any]:
    return [
        sorted(r.set_id for r in result.results),
        result.stats.snapshot(),
    ]


def compute() -> Dict[str, Any]:
    """The ledger as a JSON-ready dict (deterministic for a given tree)."""
    collection, words = generate_word_database(**CORPUS)
    tokenizer = QGramTokenizer(q=3)
    queries = [
        tokenizer.tokens(text)
        for text in make_workload(collection, **WORKLOAD).queries
    ]

    searcher = SetSimilaritySearcher(collection)
    static: Dict[str, Dict[str, List[Any]]] = {}
    for name in algorithm_names():
        static[name] = {
            str(tau): [
                _entry(searcher.search(tokens, tau, name))
                for tokens in queries
            ]
            for tau in TAUS
        }

    inserts = [
        tokenizer.tokens(text)
        for text in make_workload(collection, **INSERTS).queries
    ]
    # Half the fixed queries come from the base workload, half are
    # inserted words, so later checkpoints find answers in the delta.
    fixed = queries[:10] + inserts[:10]
    updatable = UpdatableSearcher(
        [list(rec.tokens) for rec in collection], payloads=words
    )
    checkpoints: Dict[str, Dict[str, List[Any]]] = {}
    done = 0
    for checkpoint in UPDATABLE_CHECKPOINTS:
        while done < checkpoint:
            updatable.add(inserts[done])
            done += 1
        checkpoints[str(checkpoint)] = {
            name: [
                _entry(updatable.search(tokens, UPDATABLE_TAU, name))
                for tokens in fixed
            ]
            for name in UPDATABLE_ALGORITHMS
        }
    return {
        "corpus": CORPUS,
        "workload": {**WORKLOAD, "bucket": list(WORKLOAD["bucket"])},
        "entry": ["answer ids", "IOStats.snapshot()"],
        "static": static,
        "updatable": {
            "tau": UPDATABLE_TAU,
            "inserts": {**INSERTS, "bucket": list(INSERTS["bucket"])},
            "after_inserts": checkpoints,
        },
    }


def _format(value: Any, indent: str = "") -> str:
    """Objects one key a line; each ledger entry compact on one line."""
    compact = {"sort_keys": True, "separators": (",", ":")}
    inner = indent + " "
    if isinstance(value, dict):
        items = [
            f"{inner}{json.dumps(key)}: {_format(value[key], inner)}"
            for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, list) and value and isinstance(value[0], list):
        items = [inner + json.dumps(item, **compact) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value, **compact)


def dumps(ledger: Dict[str, Any]) -> str:
    return _format(ledger) + "\n"


def main() -> None:
    GOLDEN_PATH.write_text(dumps(compute()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
