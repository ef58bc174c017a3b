"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

A run makes two passes. The classify pass streams the input one record at a
time, keeps only the classified-positive requests, and extracts and completes
each one's address. The geocode pass then resolves those addresses. A
``Gazetteer`` lookup never waits, so it runs on the calling thread and no
thread starts; so does every lookup with ``sequential=True``. Otherwise the
queries are grouped by normalized address, and up to GEOCODE_WORKERS plain
threads pop the groups off one shared deque until it is empty, so that many
backend requests overlap. A thread geocodes its group's queries in input
order, as the inline pass does, so both return the same results, and stores
them in their input slots. With classification done, the calling thread only
joins the threads, so a worker whose request returns gets the GIL back at
once. Plain threads, not an executor: no Future is made per group, and the
caller wakes once per thread, not once per group.

The trade-off: no lookup starts before the input ends. A file replay, this
tool's traffic, gets faster. A slow live source (``--input -``) starts
geocoding only at end of input, and then waits about
misses x latency / GEOCODE_WORKERS more.
"""
from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable

from .address import FullAddress, complete_address, detect_address, extract_full_address
from .features import is_rescue_request
# Not called here: benchmark/run.py --trace 1 wraps classify and extract_features
# by name on this module.
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

# Backend lookups in flight at once through the pool, at most. Measured on the
# benchmark's geocode_latency workload (2 ms fake service, nproc 2, Python
# 3.11.7, 5 s runs): 6.8k records/s at 16 threads, 11.1k at 32, 13.9k at 48,
# 14.8k at 64, 14.3k at 96 and 14.0k at 128. Past 64 the pass waits on the
# GIL, not on the service. A live service is spared by http.min_interval,
# not by this count.
GEOCODE_WORKERS = 64


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
    """Geocode ``queries`` in order on up to GEOCODE_WORKERS threads.

    The queries are grouped by normalized key, and each thread pops groups
    until none is left. A group's queries are geocoded in input order, as the
    inline pass does, and each result goes to its query's slot of the
    returned list: a repeat after ``ok`` or ``not_found`` is a cache hit, and
    a repeat after an error is looked up again. No two groups hold the same
    key, so no two threads write the same slot. On an error in a worker, or
    an interrupt while the caller joins, groups not yet started are dropped,
    started ones finish, and the first error is re-raised.
    """
    groups: dict[str, list[int]] = {}  # key -> indices of its queries, in input order
    for index, query in enumerate(queries):
        groups.setdefault(normalize_query(query), []).append(index)

    results: list = [None] * len(queries)
    pending = deque(groups.values())  # deque.popleft and clear are thread-safe
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            while True:
                try:
                    indices = pending.popleft()
                except IndexError:
                    return
                for index in indices:
                    results[index] = geocoder.geocode(queries[index])
        except BaseException as exc:
            pending.clear()
            errors.append(exc)

    started: list[threading.Thread] = []
    try:
        for n in range(min(GEOCODE_WORKERS, len(groups))):
            thread = threading.Thread(target=drain, name=f"rescuemap-geocode_{n}")
            thread.start()
            started.append(thread)
        for thread in started:
            thread.join()
    except BaseException:
        pending.clear()
        for thread in started:
            thread.join()
        raise
    if errors:
        raise errors[0]
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
    ``sequential=False`` (the CLI's call) has up to GEOCODE_WORKERS threads,
    one per distinct address at most, look the addresses up, unless the
    backend is a ``Gazetteer``, whose lookups never wait; on an error or
    interrupt, addresses not yet started are dropped, started ones finish,
    every thread is joined, and the first error is re-raised. Otherwise each
    positive is geocoded on the calling thread and no thread starts. That is
    the default, since a caller's own backend may not be thread-safe. Output
    is byte-identical either way.
    """
    summary = RunSummary()
    stats = IngestStats()
    found: list[tuple[Tweet, FullAddress]] = []
    for tweet in read_stream(lines, stats):
        if not passes_stream_filter(tweet, stream_cfg):
            summary.stream_rejected += 1
            continue
        summary.stream_passed += 1
        match = detect_address(tweet.text)
        # The rule needs an address: skip the lexicon without one, and parse
        # the address's components only for a rescue request.
        if match is not None and is_rescue_request(tweet.text, lex):
            found.append((tweet, complete_address(extract_full_address(match), tweet.hashtags)))
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
