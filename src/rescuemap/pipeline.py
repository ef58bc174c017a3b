"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

The pipeline streams: records are processed one at a time and only
classified-positive requests are retained. Geocoding is the wait: in
concurrent mode (the CLI's default) the calling thread parses, classifies and
answers geocode cache hits, while a fixed pool of GEOCODE_WORKERS threads
sends the cache misses, so that many backend requests overlap. Results are
joined in input order and are byte-identical to sequential mode.
"""
from __future__ import annotations

import queue
import threading
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .address import FullAddress, complete_address, extract_full_address
from .features import Verdict, classify, detect_address, extract_features
from .geocode import GeocodeResult, Geocoder, GeocodeStatus
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


def _full_address(tweet: Tweet, matches: list) -> FullAddress:
    address = extract_full_address(tweet.text, matches=matches)
    if address is None:  # cannot happen for positives; classify requires an address
        raise RuntimeError(f"positive tweet {tweet.id} lost its address match")
    return complete_address(address, tweet.hashtags)


def _rescue_request(tweet: Tweet, address: FullAddress, result: GeocodeResult) -> RescueRequest:
    return RescueRequest(
        tweet=tweet,
        address=address,
        geocode=result,
        local_time=to_local_time(tweet.created_at_utc),
    )


def _geocode_pooled(
    positives: Iterable[tuple[Tweet, list]],
    geocoder: Geocoder,
    queue_size: int,
) -> list[RescueRequest]:
    """Geocode cache hits inline and misses on GEOCODE_WORKERS threads, in input order.

    At most ``queue_size`` positives wait on a lookup; the calling thread
    collects finished lookups before it reads further input.
    """
    todo: queue.SimpleQueue = queue.SimpleQueue()  # (slot, query), or None to stop
    done: queue.SimpleQueue = queue.SimpleQueue()  # (slot, result or exception)

    def work() -> None:
        while (job := todo.get()) is not None:
            slot, query = job
            try:
                done.put((slot, geocoder.geocode(query)))
            except BaseException as exc:  # re-raised by the calling thread
                done.put((slot, exc))

    workers = [
        threading.Thread(target=work, name=f"rescuemap-geocode-{i}", daemon=True)
        for i in range(GEOCODE_WORKERS)
    ]
    for worker in workers:
        worker.start()
    requests: list = []
    waiting: dict[int, tuple[Tweet, FullAddress]] = {}

    def collect_one() -> None:
        slot, result = done.get()
        if isinstance(result, BaseException):
            raise result
        requests[slot] = _rescue_request(*waiting.pop(slot), result)

    try:
        for tweet, matches in positives:
            address = _full_address(tweet, matches)
            result = geocoder.cached(address.completed)
            if result is not None:
                requests.append(_rescue_request(tweet, address, result))
                continue
            if len(waiting) >= queue_size:
                collect_one()
            slot = len(requests)
            requests.append(None)
            waiting[slot] = (tweet, address)
            todo.put((slot, address.completed))
        while waiting:
            collect_one()
    finally:
        # On an error, lookups not yet started are dropped; running ones finish.
        try:
            while True:
                todo.get_nowait()
        except queue.Empty:
            pass
        for _ in workers:
            todo.put(None)
        for worker in workers:
            worker.join()
    return requests


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
    ``sequential=True`` geocodes each positive inline, one lookup at a time.
    ``sequential=False`` answers cache hits inline and sends misses to
    GEOCODE_WORKERS threads, so up to that many backend requests overlap;
    ``queue_size`` (at least 1) bounds the positives waiting on a lookup.
    Output is byte-identical either way.
    """
    if queue_size < 1:
        raise ValueError(f"queue_size must be at least 1, got {queue_size}")
    summary = RunSummary()
    positives = _classified_positives(lines, stream_cfg, lex, summary)
    if sequential:
        requests = []
        for tweet, matches in positives:
            address = _full_address(tweet, matches)
            result = geocoder.geocode(address.completed)
            requests.append(_rescue_request(tweet, address, result))
    else:
        requests = _geocode_pooled(positives, geocoder, queue_size)

    for request in requests:
        if request.geocode.status is GeocodeStatus.OK:
            summary.geocoded_ok += 1
        else:
            summary.geocode_failed += 1
    return requests, summary
