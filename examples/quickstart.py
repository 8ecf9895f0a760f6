#!/usr/bin/env python3
"""Quickstart: set similarity selection in five minutes.

Builds a small string collection, runs threshold and top-k queries through
the high-level API, shows the seven algorithms agreeing on the answers
while doing very different amounts of work, and serves a batch of queries
through the service layer (caching + coalescing + HTTP).

Run:  python examples/quickstart.py
"""

import json
import urllib.request

from repro import (
    QGramTokenizer,
    SetCollection,
    SetSimilaritySearcher,
    SimilarityService,
    StringMatcher,
    algorithm_names,
)
from repro.service import ServiceHTTPServer

ADDRESSES = [
    "12 Main St., Main",
    "12 Main St., Maine",
    "12 Main Street, Maine",
    "17 Elm Avenue, Springfield",
    "17 Elm Ave, Springfield",
    "1600 Pennsylvania Avenue",
    "221B Baker Street, London",
    "221 Baker St, London",
    "4 Privet Drive, Little Whinging",
]


def string_matching() -> None:
    print("=== String matching (the paper's data-cleaning use case) ===")
    matcher = StringMatcher(ADDRESSES)

    query = "12 Main St., Mane"  # typo for 'Maine'
    print(f"\nquery: {query!r}, threshold 0.5")
    for text, score in matcher.match(query, threshold=0.5):
        print(f"  {score:.3f}  {text}")

    print(f"\ntop-3 for {query!r} (top-k extension):")
    for text, score in matcher.best_matches(query, k=3):
        print(f"  {score:.3f}  {text}")


def token_sets_and_algorithms() -> None:
    print("\n=== Token-set API: one index, seven algorithms ===")
    sets = [
        ["data", "cleaning", "matters"],
        ["data", "cleaning"],
        ["query", "processing"],
        ["set", "similarity", "query", "processing"],
        ["data", "quality", "matters"],
    ]
    collection = SetCollection.from_token_sets(sets)
    searcher = SetSimilaritySearcher(collection)

    query = ["data", "cleaning", "quality"]
    print(f"\nquery tokens: {query}, threshold 0.4")
    for name in algorithm_names():
        result = searcher.search(query, threshold=0.4, algorithm=name)
        answers = ", ".join(
            f"set{r.set_id}({r.score:.2f})" for r in result.results
        )
        print(
            f"  {name:>10}: [{answers}]  "
            f"elements read: {result.stats.elements_read:>3}  "
            f"pruning: {result.pruning_power:5.1%}"
        )

    print("\nSame answers everywhere; the improved algorithms (inra, ita,")
    print("sf, hybrid) read far fewer list elements — that is the paper.")


def service_and_http() -> None:
    print("\n=== Service layer: batches, caching, HTTP ===")
    tokenizer = QGramTokenizer()
    collection = SetCollection.from_strings(ADDRESSES, tokenizer)
    searcher = SetSimilaritySearcher(collection)

    with SimilarityService(searcher, tokenizer=tokenizer) as service:
        queries = [
            "12 Main St., Mane",
            "221B Baker St",
            "12 Main St., Mane",  # repeated: coalesced within the batch
        ]
        batch = service.search_batch(
            [tokenizer.tokens(q) for q in queries], 0.5
        )
        for text, res in zip(queries, batch):
            best = res.results[0] if res.results else None
            answer = (
                f"{service.payload(best.set_id)!r} ({best.score:.2f})"
                if best else "no match"
            )
            flags = "cached" if res.cached else (
                "coalesced" if res.coalesced else "executed"
            )
            print(f"  {text!r:28} -> {answer:38} [{flags}]")

        # A second identical query is a result-cache hit: no index access.
        again = service.search(tokenizer.tokens(queries[0]), 0.5)
        print(f"  repeat query cached: {again.cached}")

        # The same service behind the stdlib HTTP endpoint (repro serve).
        with ServiceHTTPServer(service, port=0) as server:
            body = json.dumps(
                {"text": "17 Elm Av, Springfield", "threshold": 0.5}
            ).encode()
            with urllib.request.urlopen(
                urllib.request.Request(server.url + "/search", data=body)
            ) as resp:
                payload = json.loads(resp.read())
        top = payload["results"][0]
        print(
            f"  HTTP /search -> {top['payload']!r} "
            f"({top['score']:.2f}); degraded={payload['degraded']}"
        )


def main() -> None:
    string_matching()
    token_sets_and_algorithms()
    service_and_http()


if __name__ == "__main__":
    main()
