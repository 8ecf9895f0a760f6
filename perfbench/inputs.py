"""Seeded inputs: the word corpus and the query streams.

Everything here is a pure function of the seed, and none of it is timed
as set-up: the benchmark hands the system only the finished word list
and the finished query texts.

:func:`generate_records` yields exactly the record sequence of
:func:`repro.data.synthetic.generate_records`, but precomputes the Zipf
``cum_weights`` once.  The library version passes ``weights=`` to
``random.choices``, which rebuilds the cumulative table on every record:
O(records x vocabulary), about 9 s at 20,000 records.
"""

from __future__ import annotations

import itertools
import random
from typing import List, Sequence, Tuple

from repro.core.collection import SetCollection
from repro.core.tokenize import QGramTokenizer
from repro.data.errors import apply_modifications
from repro.data.synthetic import WordGenerator, distinct_words, zipf_weights
from repro.data.workloads import bucket_words

TOKENIZER = QGramTokenizer(q=3)


def generate_records(
    num_records: int,
    vocabulary_size: int,
    seed: int,
    words_per_record: Tuple[int, int] = (2, 4),
    zipf_exponent: float = 1.0,
) -> List[str]:
    """IMDB-like records; same output as the library generator."""
    rng = random.Random(seed)
    vocab = WordGenerator(seed).vocabulary(vocabulary_size)
    cum_weights = list(
        itertools.accumulate(zipf_weights(vocabulary_size, zipf_exponent))
    )
    lo, hi = words_per_record
    records = []
    for _ in range(num_records):
        k = rng.randint(lo, hi)
        records.append(
            " ".join(rng.choices(vocab, cum_weights=cum_weights, k=k))
        )
    return records


def word_list(num_records: int, seed: int) -> List[str]:
    """The distinct words of a generated record table (the database)."""
    records = generate_records(
        num_records, vocabulary_size=max(num_records // 2, 500), seed=seed
    )
    return distinct_words(records)


def word_collection(words: Sequence[str]) -> SetCollection:
    """Un-indexed q-gram sets of the words, used to pick query sources."""
    return SetCollection.from_strings(list(words), TOKENIZER)


def distinct_queries(
    collection: SetCollection,
    buckets: Sequence[Tuple[int, int]],
    count: int,
    rng: random.Random,
) -> List[str]:
    """``count`` distinct corpus words, drawn round-robin from the
    paper's gram-count buckets (Section VIII-A), unmodified: the paper's
    default workload, where every query has an exact match."""
    by_bucket = bucket_words(collection)
    pools = [by_bucket[b] for b in buckets]
    seen = set()
    out: List[str] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count:
            raise ValueError("corpus too small for the requested queries")
        pool = pools[len(out) % len(pools)]
        word = collection.payload(rng.choice(pool))
        if word in seen:
            continue
        seen.add(word)
        out.append(word)
    return out


def zipf_stream(
    pool: Sequence, length: int, rng: random.Random,
    exponent: float = 1.0,
) -> List:
    """``length`` Zipf-skewed draws from ``pool``, ranked in pool order
    (the pool is already in random order)."""
    cum_weights = list(
        itertools.accumulate(zipf_weights(len(pool), exponent))
    )
    return rng.choices(list(pool), cum_weights=cum_weights, k=length)


def new_words(
    words: Sequence[str], count: int, rng: random.Random
) -> List[str]:
    """``count`` perturbed words absent from ``words`` and from each other
    (the durable workload's inserts)."""
    taken = set(words)
    out: List[str] = []
    while len(out) < count:
        text = apply_modifications(rng.choice(words), 2, rng)
        if text in taken or not TOKENIZER.tokens(text):
            continue
        taken.add(text)
        out.append(text)
    return out
