"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

A run makes two passes. The classify pass streams the input one record at a
time, keeps only the classified-positive requests, and extracts and completes
each one's address. The geocode pass then resolves those addresses in input
order. In concurrent mode (the CLI's default) it answers cache hits on the
calling thread and submits each cache miss to a
``concurrent.futures.ThreadPoolExecutor`` of GEOCODE_WORKERS threads, so that
many backend requests overlap; a miss whose address already has a lookup in
flight shares that lookup instead of sending another. With classification
done, the calling thread only collects results, so a worker whose request
returns gets the GIL back at once. Output is byte-identical to sequential
mode, which geocodes on the calling thread and starts no thread.

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
from .geocode import Geocoder, GeocodeResult, GeocodeStatus, coalesced, normalize_query
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

# Backend lookups in flight at once in concurrent mode. Measured on the
# benchmark's geocode_latency workload (2 ms fake service, nproc 2): medians
# of 3.15k records/s with 16 workers against 2.57k with 8 (7 runs each).
GEOCODE_WORKERS = 16

# Submitted lookups waiting to be collected, at most. Pool-mode geocode_latency
# replay (824 distinct addresses, 2 ms service, nproc 2, medians of 20 runs):
# 202.3 ms at 16, 183.7 at 32, 181.9 at 256, 183.7 with no bound. A large
# backlog leaves slack when one slow lookup holds up collection.
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
    """Geocode ``queries`` in order, sending cache misses to GEOCODE_WORKERS threads.

    A miss whose normalized key has a lookup still running shares that
    lookup's Future and gets what ``Geocoder.geocode`` gives a waiter; once
    that lookup is done, a repeat is looked up again, so errors are retried.
    At most GEOCODE_BACKLOG submitted lookups wait to be collected; at the
    bound the oldest is collected first.
    """
    # Imported here: concurrent.futures pulls in logging, and `import
    # rescuemap` stays lean without it.
    from concurrent.futures import Future, ThreadPoolExecutor

    results: list = []  # a GeocodeResult, or the Future of a lookup not yet collected
    waiting: deque[tuple[int, str]] = deque()  # (index, key) of submitted lookups, oldest first
    running: dict[str, Future] = {}  # key -> its submitted lookup, until collected
    shared: list[int] = []  # indices holding another index's Future

    def collect_oldest() -> None:
        index, key = waiting.popleft()
        future = results[index]
        results[index] = future.result()
        if running.get(key) is future:
            del running[key]

    with ThreadPoolExecutor(GEOCODE_WORKERS, thread_name_prefix="rescuemap-geocode") as pool:
        try:
            for query in queries:
                result = geocoder.cached(query)
                if result is None:
                    key = normalize_query(query)
                    result = running.get(key)
                    if result is not None and not result.done():
                        shared.append(len(results))
                    else:
                        if len(waiting) >= GEOCODE_BACKLOG:
                            collect_oldest()
                        result = running[key] = pool.submit(geocoder.geocode, query)
                        waiting.append((len(results), key))
                results.append(result)
            while waiting:
                collect_oldest()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    for index in shared:  # every submitted lookup is collected, so these are done
        results[index] = coalesced(results[index].result(), queries[index])
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
    Both modes classify the whole input first, then geocode the positives.
    ``sequential=True`` geocodes each positive on the calling thread, one
    lookup at a time, and starts no thread. ``sequential=False`` answers
    cache hits inline and submits each miss to a pool of GEOCODE_WORKERS
    threads, so up to that many backend requests overlap; a repeat of an
    address whose lookup is still running shares it. On an error or
    interrupt, lookups not yet started are dropped, running ones finish, and
    the error is re-raised. Output is byte-identical either way.
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
    if sequential:
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
