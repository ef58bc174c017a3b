"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

The pipeline streams: records are processed one at a time and only
classified-positive requests are retained. Geocoding is the wait: in
concurrent mode (the CLI's default) the calling thread parses, classifies and
answers geocode cache hits, and submits each cache miss to a
``concurrent.futures.ThreadPoolExecutor`` of GEOCODE_WORKERS threads, so
that many backend requests overlap. Both modes run the same loop; results
are joined in input order and are byte-identical to sequential mode.
"""
from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .address import FullAddress, complete_address, extract_full_address
from .features import Verdict, classify, detect_address, extract_features
from .geocode import Geocoder, GeocodeStatus
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

# Backend lookups in flight at once in concurrent mode. Measured against a
# 2 ms fake service: 16 workers were no faster, 4 reached about half the rate.
GEOCODE_WORKERS = 8


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


def _classified_positives(
    lines: Iterable[str | bytes],
    stream_cfg: StreamConfig,
    lex: LexiconConfig,
    summary: RunSummary,
) -> Iterator[tuple[Tweet, list]]:
    """Yield (tweet, address matches) for every positive record."""
    stats = IngestStats()
    for tweet in read_stream(lines, stats):
        if not passes_stream_filter(tweet, stream_cfg):
            summary.stream_rejected += 1
            continue
        summary.stream_passed += 1
        matches = detect_address(tweet.text)
        if not matches:  # the logic rule requires an address; skip the lexicon
            continue
        features = extract_features(tweet.text, lex, address_matches=matches)
        if classify(features) is Verdict.RESCUE_REQUEST:
            summary.classified_positive += 1
            yield tweet, matches
    summary.read = stats.parsed
    summary.malformed = stats.malformed
    summary.duplicates = stats.duplicates


def run_pipeline(
    lines: Iterable[str | bytes],
    *,
    stream_cfg: StreamConfig,
    lex: LexiconConfig,
    geocoder: Geocoder,
    sequential: bool = True,
    queue_size: int = 256,
) -> tuple[list[RescueRequest], RunSummary]:
    """Run the full pipeline over NDJSON lines (str or UTF-8 bytes).

    Returns the rescue requests in input order plus the per-stage counts.
    ``sequential=True`` geocodes each positive inline, one lookup at a time,
    and starts no thread. ``sequential=False`` answers cache hits inline and
    submits each miss to a pool of GEOCODE_WORKERS threads, so up to that
    many backend requests overlap; ``queue_size`` (at least 1) bounds the
    lookups waiting to be collected, and the oldest is collected first when
    the bound is reached. On an error or interrupt, lookups not yet started
    are dropped, running ones finish, and the error is re-raised. Output is
    byte-identical either way.
    """
    if queue_size < 1:
        raise ValueError(f"queue_size must be at least 1, got {queue_size}")
    # Imported here: concurrent.futures pulls in logging, and `import
    # rescuemap` stays lean without it.
    from concurrent.futures import ThreadPoolExecutor

    summary = RunSummary()
    found: list[tuple[Tweet, FullAddress]] = []
    results: list = []  # a GeocodeResult, or the Future of a lookup not yet collected
    waiting: deque[int] = deque()  # indices of uncollected Futures, oldest first
    with ThreadPoolExecutor(GEOCODE_WORKERS, thread_name_prefix="rescuemap-geocode") as pool:
        try:
            for tweet, matches in _classified_positives(lines, stream_cfg, lex, summary):
                address = extract_full_address(tweet.text, matches=matches)
                if address is None:  # cannot happen; classify requires an address
                    raise RuntimeError(f"positive tweet {tweet.id} lost its address match")
                address = complete_address(address, tweet.hashtags)
                found.append((tweet, address))
                query = address.completed
                if sequential:
                    result = geocoder.geocode(query)
                elif (result := geocoder.cached(query)) is None:
                    if len(waiting) >= queue_size:
                        oldest = waiting.popleft()
                        results[oldest] = results[oldest].result()
                    waiting.append(len(results))
                    result = pool.submit(geocoder.geocode, query)
                results.append(result)
            for index in waiting:
                results[index] = results[index].result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

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
