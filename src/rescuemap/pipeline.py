"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

A run makes two passes. The classify pass streams the input one record at a
time, keeps only the classified-positive requests, and extracts and completes
each one's address. The geocode pass then resolves those addresses. A
``Gazetteer`` lookup never waits, so it runs on the calling thread and no
thread starts; so does every lookup with ``sequential=True``. Otherwise the
queries are grouped by normalized address and each address is one task on a
``concurrent.futures.ThreadPoolExecutor`` of GEOCODE_WORKERS threads, so
that many backend requests overlap. A task geocodes its address's queries in
input order, as the inline pass does, so both return the same results, and
stores them in their input slots. With classification done, the calling
thread only waits on the tasks, so a worker whose request returns gets the
GIL back at once.

The trade-off: no lookup starts before the input ends. A file replay, this
tool's traffic, gets faster. A slow live source (``--input -``) starts
geocoding only at end of input, and then waits about
misses x latency / GEOCODE_WORKERS more.
"""
from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable

from .address import FullAddress, complete_address, detect_address, extract_full_address
from .features import is_rescue_request
# Not called here: benchmark/run.py --trace 1 wraps them by name on this module.
from .features import classify, extract_features  # noqa: F401
from .geocode import Gazetteer, Geocoder, GeocodeResult, GeocodeStatus, normalize_query
from .ingest import (
    IngestStats,
    StreamConfig,
    Tweet,
    passes_stream_filter,
    read_stream,
    to_local_time,
)
from .lexicons import LexiconConfig
from .output import RescueRequest

# Backend lookups in flight at once through the pool. Measured on the
# benchmark's geocode_latency workload (2 ms fake service, nproc 2): medians
# of 3.15k records/s with 16 workers against 2.57k with 8 (7 runs each).
GEOCODE_WORKERS = 16

# Submitted address tasks not yet waited on, at most. Pool-mode
# geocode_latency replay (824 distinct addresses, 2 ms service, nproc 2,
# medians of 20 runs, measured when a task was one lookup):
# 202.3 ms at 16, 183.7 at 32, 181.9 at 256, 183.7 with no bound. A large
# backlog leaves slack when one slow task holds up the wait.
GEOCODE_BACKLOG = 256


@dataclass
class RunSummary:
    """Counts at every stage of one pipeline run."""

    read: int = 0
    malformed: int = 0
    duplicates: int = 0
    stream_passed: int = 0
    stream_rejected: int = 0
    classified_positive: int = 0
    geocoded_ok: int = 0
    geocode_failed: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _geocode_pooled(queries: list[str], geocoder: Geocoder) -> list[GeocodeResult]:
    """Geocode ``queries`` in order with one GEOCODE_WORKERS pool task per address.

    The queries are grouped by normalized key. Each group's task geocodes its
    queries in input order, as the inline pass does, and stores each result
    in its query's slot of the returned list: a repeat after ``ok`` or
    ``not_found`` is a cache hit, and a repeat after an error is looked up
    again. No two tasks hold the same key, so no two write the same slot. At
    most GEOCODE_BACKLOG submitted tasks are waited on at once; at the bound
    the calling thread waits for the oldest first.
    """
    # Imported here: concurrent.futures pulls in logging, and `import
    # rescuemap` stays lean without it.
    from concurrent.futures import ThreadPoolExecutor

    groups: dict[str, list[int]] = {}  # key -> indices of its queries, in input order
    for index, query in enumerate(queries):
        groups.setdefault(normalize_query(query), []).append(index)

    results: list = [None] * len(queries)

    def lookup(indices: list[int]) -> None:
        for index in indices:
            results[index] = geocoder.geocode(queries[index])

    waiting: deque = deque()  # the Future of each submitted task, oldest first
    with ThreadPoolExecutor(GEOCODE_WORKERS, thread_name_prefix="rescuemap-geocode") as pool:
        try:
            for indices in groups.values():
                if len(waiting) >= GEOCODE_BACKLOG:
                    waiting.popleft().result()
                waiting.append(pool.submit(lookup, indices))
            while waiting:
                waiting.popleft().result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


def run_pipeline(
    lines: Iterable[str | bytes],
    *,
    stream_cfg: StreamConfig,
    lex: LexiconConfig,
    geocoder: Geocoder,
    sequential: bool = True,
) -> tuple[list[RescueRequest], RunSummary]:
    """Run the full pipeline over NDJSON lines (str or UTF-8 bytes).

    Returns the rescue requests in input order plus the per-stage counts.
    The whole input is classified first, then the positives are geocoded.
    ``sequential=False`` (the CLI's call) sends each distinct address as one
    task to a pool of GEOCODE_WORKERS threads, unless the backend is a
    ``Gazetteer``, whose lookups never wait; on an error or interrupt, tasks
    not yet started are dropped, started ones finish, and the error is
    re-raised. Otherwise each positive is geocoded on the calling thread and
    no thread starts. That is the default, since a caller's own backend may
    not be thread-safe. Output is byte-identical either way.
    """
    summary = RunSummary()
    stats = IngestStats()
    found: list[tuple[Tweet, FullAddress]] = []
    for tweet in read_stream(lines, stats):
        if not passes_stream_filter(tweet, stream_cfg):
            summary.stream_rejected += 1
            continue
        summary.stream_passed += 1
        matches = detect_address(tweet.text)
        # The rule needs an address: skip the lexicon without one; extraction then finds it.
        if matches and is_rescue_request(tweet.text, lex):
            address = extract_full_address(tweet.text, matches=matches)
            found.append((tweet, complete_address(address, tweet.hashtags)))
    summary.read = stats.parsed
    summary.malformed = stats.malformed
    summary.duplicates = stats.duplicates
    summary.classified_positive = len(found)

    queries = [address.completed for _, address in found]
    if sequential or isinstance(geocoder.backend, Gazetteer):
        results = [geocoder.geocode(query) for query in queries]
    else:
        results = _geocode_pooled(queries, geocoder)

    requests = [
        RescueRequest(
            tweet=tweet,
            address=address,
            geocode=result,
            local_time=to_local_time(tweet.created_at_utc),
        )
        for (tweet, address), result in zip(found, results)
    ]
    summary.geocoded_ok = sum(r.geocode.status is GeocodeStatus.OK for r in requests)
    summary.geocode_failed = len(requests) - summary.geocoded_ok
    return requests, summary
