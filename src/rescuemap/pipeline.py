"""End-to-end driver: ingest -> stream filter -> classify -> extract -> geocode.

The pipeline streams: records are processed one at a time and only
classified-positive requests are retained. A concurrent mode runs text
processing in a producer thread connected to the geocoding consumer by a
bounded queue; results are identical to sequential mode.
"""
from __future__ import annotations

import queue
import threading
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

from .address import complete_address, extract_full_address
from .features import FeatureVector, Verdict, classify, detect_address, extract_features
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
) -> Iterator[tuple[Tweet, FeatureVector, list]]:
    """Yield (tweet, features, address matches) for every positive record."""
    stats = IngestStats()
    for tweet in read_stream(lines, stats):
        summary.read = stats.parsed
        summary.malformed = stats.malformed
        summary.duplicates = stats.duplicates
        if not passes_stream_filter(tweet, stream_cfg):
            summary.stream_rejected += 1
            continue
        summary.stream_passed += 1
        matches = detect_address(tweet.text)
        features = extract_features(tweet.text, lex, address_matches=matches)
        if classify(features) is Verdict.RESCUE_REQUEST:
            summary.classified_positive += 1
            yield tweet, features, matches
    summary.read = stats.parsed
    summary.malformed = stats.malformed
    summary.duplicates = stats.duplicates


def _geocode_request(tweet, features, matches, geocoder: Geocoder) -> RescueRequest:
    address = extract_full_address(tweet.text, matches=matches)
    if address is None:  # cannot happen for positives; classify requires an address
        raise RuntimeError(f"positive tweet {tweet.id} lost its address match")
    address = complete_address(address, tweet.hashtags)
    result = geocoder.geocode(address.completed)
    return RescueRequest(
        tweet=tweet,
        features=features,
        address=address,
        geocode=result,
        local_time=to_local_time(tweet.created_at_utc),
    )


_DONE = object()


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
    ``sequential=False`` moves parsing/classification to a producer thread
    behind a bounded queue; output is byte-identical either way.
    """
    summary = RunSummary()
    requests: list[RescueRequest] = []

    if sequential:
        for tweet, features, matches in _classified_positives(lines, stream_cfg, lex, summary):
            requests.append(_geocode_request(tweet, features, matches, geocoder))
    else:
        work: queue.Queue = queue.Queue(maxsize=queue_size)
        failure: list[BaseException] = []

        def produce() -> None:
            try:
                for item in _classified_positives(lines, stream_cfg, lex, summary):
                    work.put(item)
            except BaseException as exc:  # surfaced in the consumer
                failure.append(exc)
            finally:
                work.put(_DONE)

        producer = threading.Thread(target=produce, name="rescuemap-ingest", daemon=True)
        producer.start()
        while True:
            item = work.get()
            if item is _DONE:
                break
            tweet, features, matches = item
            requests.append(_geocode_request(tweet, features, matches, geocoder))
        producer.join()
        if failure:
            raise failure[0]

    for request in requests:
        if request.geocode.status is GeocodeStatus.OK:
            summary.geocoded_ok += 1
        else:
            summary.geocode_failed += 1
    return requests, summary
