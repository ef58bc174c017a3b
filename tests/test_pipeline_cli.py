from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescuemap import (
    GeocodeResult,
    GeocodeStatus,
    Gazetteer,
    Geocoder,
    HttpBackend,
    StreamConfig,
    Verdict,
    classify,
    extract_features,
    load_labelled,
    normalize_query,
    to_geojson,
    to_map_document,
)
from rescuemap import cli, pipeline
from rescuemap.cli import _CONFIG_KEYS, _HTTP_CONFIG_KEYS, main
from rescuemap.geocode import API_KEY_ENV_VAR
from rescuemap.pipeline import GEOCODE_WORKERS, run_pipeline

SRC = Path(__file__).resolve().parents[1] / "src"
SERVICE_URL = "https://geocoder.invalid/json?address={query}&key={key}"
ZERO_RESULTS = json.dumps({"status": "ZERO_RESULTS", "results": []})


def rescue_line(tweet_id: str, number: int) -> str:
    return json.dumps({
        "id": tweet_id,
        "text": f"Need rescue! stuck at {number} Clay Rd, Houston, TX #Harvey",
        "created_at": "2017-08-27T14:03:00Z",
    })


def queried_number(url: str) -> int:
    """The house number of the address a geocoding request asks for."""
    address = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)["address"][0]
    return int(address.split()[0])


def geocode_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("rescuemap-geocode")]


class FlakyService:
    """A fake maps API: 0-3 ms per call, so lookups finish out of order.

    Answers depend only on the house number: some always give 429, some
    always 500, some ZERO_RESULTS, the rest a point.
    """

    RATE_LIMITED = {3, 11, 17}
    BROKEN = {5, 23}
    MISSING = {7, 29}

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.calls = 0

    def fetch(self, url: str, timeout: float) -> tuple[int, str]:
        with self._lock:
            self.calls += 1
            delay = self._rng.uniform(0.0, 0.003)
        time.sleep(delay)
        number = queried_number(url)
        if number in self.RATE_LIMITED:
            return 429, ""
        if number in self.BROKEN:
            return 500, ""
        if number in self.MISSING:
            return 200, ZERO_RESULTS
        location = {"lat": 29.0 + number / 1e4, "lng": -95.0 - number / 1e4}
        return 200, json.dumps(
            {"status": "OK", "results": [{"geometry": {"location": location, "location_type": "ROOFTOP"}}]}
        )


class GazetteerService:
    """A maps API for the loopback server: it answers as the gazetteer at
    ``path`` does, except 429 for ``RATE_LIMITED`` and 500 for ``BROKEN``.

    It logs the address and arrival time of every request.
    """

    RATE_LIMITED = "48368 braeswood blvd houston tx"
    BROKEN = "79494 westheimer rd katy tx"

    def __init__(self, path: Path):
        self._gazetteer = Gazetteer.load(path)
        self.requests: list[tuple[float, str]] = []

    def answer(self, path: str) -> tuple[int, dict[str, str], bytes]:
        address = urllib.parse.parse_qs(urllib.parse.urlsplit(path).query)["address"][0]
        self.requests.append((time.monotonic(), address))
        if normalize_query(address) == self.RATE_LIMITED:
            return 429, {}, b""
        if normalize_query(address) == self.BROKEN:
            return 500, {}, json.dumps({"status": "UNKNOWN_ERROR"}).encode()
        point = self._gazetteer.resolve(address).point
        if point is None:
            return 200, {}, ZERO_RESULTS.encode()
        location = {"lat": point.latitude, "lng": point.longitude}
        body = {"status": "OK", "results": [{"geometry": {"location": location, "location_type": "ROOFTOP"}}]}
        return 200, {"Content-Type": "application/json"}, json.dumps(body).encode()

    def expected_summary(self, lines: list[bytes], lex) -> dict[str, int]:
        """The summary of a replay of ``lines`` against these answers: the
        gazetteer's, with each request for a failing address moved from ok
        to failed (a failure is not cached, so each use is a request)."""
        _, summary = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex, geocoder=Geocoder(self._gazetteer)
        )
        failing = {self.RATE_LIMITED, self.BROKEN}
        uses = sum(normalize_query(address) in failing for _, address in self.requests)
        assert uses >= 2
        return {
            **summary.as_dict(),
            "geocoded_ok": summary.geocoded_ok - uses,
            "geocode_failed": summary.geocode_failed + uses,
        }


class TestRunPipeline:
    def test_sample_corpus_counts(self, sample_corpus_lines, sample_geocoder, lex):
        requests, summary = run_pipeline(
            sample_corpus_lines,
            stream_cfg=StreamConfig(),
            lex=lex,
            geocoder=sample_geocoder,
        )
        assert summary.as_dict() == {
            "read": 10,
            "malformed": 0,
            "duplicates": 0,
            "stream_passed": 10,
            "stream_rejected": 0,
            "classified_positive": 2,
            "geocoded_ok": 2,
            "geocode_failed": 0,
        }
        assert [r.id for r in requests] == ["h0001", "h0002"]
        doc = json.loads(to_geojson(requests))
        assert len(doc["features"]) == 2

    def test_empty_input(self, sample_geocoder, lex):
        requests, summary = run_pipeline(
            [], stream_cfg=StreamConfig(), lex=lex, geocoder=sample_geocoder
        )
        assert requests == []
        assert all(v == 0 for v in summary.as_dict().values())
        doc = json.loads(to_geojson(requests))
        assert doc["features"] == [] and doc["ungeocoded"] == []

    def test_missing_gazetteer_entry_counts_as_failed(self, sample_corpus_lines, lex, tmp_path):
        gazetteer = tmp_path / "partial.tsv"
        gazetteer.write_text(
            "4055 South #Braeswood Boulevard, Houston, TX\t-95.4415\t29.6907\n",
            encoding="utf-8",
        )
        requests, summary = run_pipeline(
            sample_corpus_lines,
            stream_cfg=StreamConfig(),
            lex=lex,
            geocoder=Geocoder(Gazetteer.load(gazetteer)),
        )
        assert summary.geocoded_ok == 1
        assert summary.geocode_failed == 1
        doc = json.loads(to_geojson(requests))
        assert len(doc["features"]) == 1
        assert len(doc["ungeocoded"]) == 1

    def test_stage_count_conservation(self, data_dir, lex):
        lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()
        geocoder = Geocoder(Gazetteer.load(data_dir / "gazetteer.tsv"))
        _, summary = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex, geocoder=geocoder
        )
        assert summary.read == summary.stream_passed + summary.stream_rejected
        assert summary.classified_positive == summary.geocoded_ok + summary.geocode_failed

    def test_exposes_every_name_the_traced_benchmark_wraps(self):
        # benchmark/run.py --trace 1 replaces each of these names on this module.
        for name in (
            "read_stream", "passes_stream_filter", "detect_address", "extract_features",
            "classify", "extract_full_address", "complete_address",
        ):
            assert callable(getattr(pipeline, name, None)), name

    def test_one_detect_per_passing_record_one_extract_per_positive(self, data_dir, lex, monkeypatch):
        calls = {"detect_address": 0, "extract_full_address": 0}
        for name in calls:
            def counted(arg, _name=name, _fn=getattr(pipeline, name)):
                calls[_name] += 1
                return _fn(arg)

            monkeypatch.setattr(pipeline, name, counted)
        lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()
        geocoder = Geocoder(Gazetteer.load(data_dir / "gazetteer.tsv"))
        _, summary = run_pipeline(lines, stream_cfg=StreamConfig(), lex=lex, geocoder=geocoder)
        assert summary.as_dict() == {
            "read": 202,
            "malformed": 0,
            "duplicates": 0,
            "stream_passed": 178,
            "stream_rejected": 24,
            "classified_positive": 70,
            "geocoded_ok": 68,
            "geocode_failed": 2,
        }
        assert calls == {"detect_address": 178, "extract_full_address": 70}

    def test_concurrent_mode_matches_sequential(self, data_dir, lex, pooled_geocoder):
        lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()

        def run(sequential):
            gazetteer = data_dir / "gazetteer.tsv"
            geocoder = Geocoder(Gazetteer.load(gazetteer)) if sequential else pooled_geocoder(gazetteer)
            return run_pipeline(
                lines,
                stream_cfg=StreamConfig(),
                lex=lex,
                geocoder=geocoder,
                sequential=sequential,
            )
        sequential_requests, sequential_summary = run(True)
        concurrent_requests, concurrent_summary = run(False)
        assert to_geojson(sequential_requests) == to_geojson(concurrent_requests)
        assert sequential_summary.as_dict() == concurrent_summary.as_dict()

    def test_positives_are_exactly_the_classified_texts(self, data_dir, lex, pooled_geocoder):
        texts = [row.text for row in load_labelled(data_dir / "labelled_corpus.csv")]
        # Lexicon-positive but address-less: never rescue requests.
        texts += [
            "please help we are trapped #Harvey",
            "HELP! water rising, stuck on the roof, Hurricane Harvey",
            "#PleaseHelp 3 kids trapped near Meyerland #HoustonFlood",
        ]
        # Coordinates inside the default bounding box let every text pass the stream filter.
        lines = [
            json.dumps({
                "id": f"t{i}", "text": text, "created_at": "2017-08-27T14:03:00Z",
                "coordinates": [-95.36, 29.76],
            })
            for i, text in enumerate(texts)
        ]
        expected = [
            f"t{i}" for i, text in enumerate(texts)
            if classify(extract_features(text, lex)) is Verdict.RESCUE_REQUEST
        ]
        assert 0 < len(expected) < len(texts)

        def run(sequential: bool):
            gazetteer = data_dir / "gazetteer.tsv"
            geocoder = Geocoder(Gazetteer.load(gazetteer)) if sequential else pooled_geocoder(gazetteer)
            return run_pipeline(
                lines,
                stream_cfg=StreamConfig(),
                lex=lex,
                geocoder=geocoder,
                sequential=sequential,
            )

        sequential_requests, summary = run(True)
        concurrent_requests, concurrent_summary = run(False)
        assert [r.id for r in sequential_requests] == expected
        assert [r.id for r in concurrent_requests] == expected
        assert concurrent_summary == summary
        assert summary.read == summary.stream_passed == len(texts)
        assert summary.classified_positive == len(expected)

    def test_producer_errors_propagate_in_concurrent_mode(self, lex, sample_geocoder):
        class Boom:
            def __iter__(self):
                raise OSError("unreadable source")

        with pytest.raises(OSError):
            run_pipeline(
                Boom(),
                stream_cfg=StreamConfig(),
                lex=lex,
                geocoder=sample_geocoder,
                sequential=False,
            )

    @pytest.mark.parametrize("seed", [1, 2, 8])
    def test_geocode_pool_matches_sequential_under_random_latency(self, lex, seed):
        rng = random.Random(seed)
        lines = []
        for i in range(150):
            if i % 6 == 0:
                lines.append(json.dumps({
                    "id": f"n{i}", "text": "Heavy flooding reported downtown #Harvey",
                    "created_at": "2017-08-27T14:03:00Z",
                }))
            else:
                lines.append(rescue_line(f"r{i}", rng.randint(1, 40)))

        def run(sequential: bool):
            service = FlakyService(seed=seed)
            geocoder = Geocoder(HttpBackend(SERVICE_URL, api_key="test", fetch=service.fetch))
            requests, summary = run_pipeline(
                lines, stream_cfg=StreamConfig(), lex=lex, geocoder=geocoder, sequential=sequential
            )
            return requests, summary, service.calls

        sequential_requests, sequential_summary, sequential_calls = run(True)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers as often as possible
        try:
            pooled_requests, pooled_summary, pooled_calls = run(False)
        finally:
            sys.setswitchinterval(switch_interval)
        assert sequential_summary.classified_positive == 125
        assert 0 < sequential_summary.geocode_failed < sequential_summary.classified_positive
        assert to_geojson(pooled_requests) == to_geojson(sequential_requests)
        assert to_map_document(pooled_requests) == to_map_document(sequential_requests)
        assert pooled_summary.as_dict() == sequential_summary.as_dict()
        assert pooled_calls == sequential_calls
        # Slot by slot: a result put in another request's slot differs from the
        # sequential one there in point, status or from_cache.
        def answers(requests):
            return [(r.geocode.point, r.geocode.status, r.geocode.from_cache) for r in requests]

        assert answers(pooled_requests) == answers(sequential_requests)
        # Geocoder's rule: ok/not_found count as cached after the first lookup
        # of a key; an error, retried, never does.
        seen: set[str] = set()
        for r in pooled_requests:
            key = normalize_query(r.completed)
            cacheable = r.geocode.status in (GeocodeStatus.OK, GeocodeStatus.NOT_FOUND)
            assert r.geocode.from_cache == (cacheable and key in seen)
            seen.add(key)

    def test_geocode_pool_overlaps_backend_requests(self, lex):
        # Each lookup waits until GEOCODE_WORKERS lookups are in flight; a
        # pool that sent fewer at once would time out into backend errors.
        gate = threading.Barrier(GEOCODE_WORKERS, timeout=5.0)

        class GatedBackend:
            def resolve(self, query: str) -> GeocodeResult:
                gate.wait()
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        lines = [rescue_line(f"r{i}", 100 + i) for i in range(2 * GEOCODE_WORKERS)]
        requests, _ = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(GatedBackend()), sequential=False,
        )
        assert [r.geocode.status for r in requests] == [GeocodeStatus.NOT_FOUND] * len(lines)

    def test_geocode_pool_keeps_http_request_spacing(self, lex):
        # _pace stamps each request start with its last clock() reading.
        last_reading = threading.local()
        starts: list[float] = []

        def clock() -> float:
            last_reading.value = time.monotonic()
            return last_reading.value

        def fetch(url: str, timeout: float) -> tuple[int, str]:
            starts.append(last_reading.value)
            time.sleep(0.002)
            return 200, ZERO_RESULTS

        backend = HttpBackend(SERVICE_URL, api_key="test", min_interval=0.005, fetch=fetch, clock=clock)
        lines = [rescue_line(f"r{i}", 100 + i) for i in range(3 * GEOCODE_WORKERS)]
        run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex, geocoder=Geocoder(backend), sequential=False
        )
        starts.sort()
        assert len(starts) == len(lines)
        assert min(b - a for a, b in zip(starts, starts[1:])) >= 0.005 - 1e-9

    def test_pool_geocodes_only_after_the_source_is_exhausted(self, lex):
        events: list[str] = []

        class RecordingBackend:
            def resolve(self, query: str) -> GeocodeResult:
                events.append("lookup")
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        def source():
            for i in range(3 * GEOCODE_WORKERS):
                yield rescue_line(f"r{i}", 100 + i)
            events.append("end of input")

        requests, _ = run_pipeline(
            source(), stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(RecordingBackend()), sequential=False,
        )
        assert len(requests) == 3 * GEOCODE_WORKERS
        assert events == ["end of input"] + ["lookup"] * len(requests)

    def test_pool_looks_up_a_repeated_address_once(self, lex):
        class SlowBackend:
            calls = 0

            def resolve(self, query: str) -> GeocodeResult:
                SlowBackend.calls += 1
                time.sleep(0.02)
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        class CountingGeocoder(Geocoder):
            calls = 0

            def _lookup(self, key: str, query: str) -> GeocodeResult:
                CountingGeocoder.calls += 1
                return super()._lookup(key, query)

        lines = [rescue_line(f"r{i}", 100) for i in range(20)]
        requests, _ = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=CountingGeocoder(SlowBackend()), sequential=False,
        )
        assert SlowBackend.calls == 1
        assert CountingGeocoder.calls == 20  # one task: one lookup, then 19 cache hits
        assert [r.geocode.from_cache for r in requests] == [False] + [True] * 19

    @pytest.mark.parametrize("sequential", [True, False], ids=["sequential", "pool"])
    def test_a_repeat_of_an_error_is_looked_up_again(self, lex, sequential):
        class FailsFirstPerAddress:
            calls: list[str] = []

            def resolve(self, query: str) -> GeocodeResult:
                number = query.split()[0]
                first = number not in self.calls
                self.calls.append(number)
                time.sleep(0.02)  # the repeats of 100 are queued while its first lookup runs
                status = GeocodeStatus.RATE_LIMITED if first else GeocodeStatus.NOT_FOUND
                return GeocodeResult(point=None, status=status)

        backend = FailsFirstPerAddress()
        lines = [rescue_line(f"r{i}", n) for i, n in enumerate([100, 200, 100, 100, 100, 100])]
        requests, _ = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(backend), sequential=sequential,
        )
        rl, nf = GeocodeStatus.RATE_LIMITED, GeocodeStatus.NOT_FOUND
        assert [r.geocode.status for r in requests] == [rl, rl, nf, nf, nf, nf]
        assert [r.geocode.from_cache for r in requests] == [False, False, False, True, True, True]
        assert sorted(backend.calls) == ["100", "100", "200"]

    @pytest.mark.parametrize("sequential", [True, False], ids=["sequential", "pool"])
    def test_each_positive_is_normalized_once(self, lex, sequential):
        class NotFoundBackend:
            def resolve(self, query: str) -> GeocodeResult:
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        calls = []

        def counting_normalize_query(query: str) -> str:
            calls.append(query)
            return normalize_query(query)

        lines = [rescue_line(f"r{i}", n) for i, n in enumerate([100, 200, 100, 300, 100])]
        with mock.patch("rescuemap.geocode.normalize_query", counting_normalize_query), \
                mock.patch("rescuemap.pipeline.normalize_query", counting_normalize_query):
            requests, _ = run_pipeline(
                lines, stream_cfg=StreamConfig(), lex=lex,
                geocoder=Geocoder(NotFoundBackend()), sequential=sequential,
            )
        assert len(requests) == len(lines)
        assert sorted(calls) == sorted(r.completed for r in requests)

    def test_sequential_mode_retries_a_failing_repeated_address(self, lex):
        class FailingBackend:
            calls = 0

            def resolve(self, query: str) -> GeocodeResult:
                FailingBackend.calls += 1
                return GeocodeResult(point=None, status=GeocodeStatus.BACKEND_ERROR)

        lines = [rescue_line(f"r{i}", 100) for i in range(20)]
        _, summary = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(FailingBackend()), sequential=True,
        )
        assert summary.geocode_failed == 20
        assert FailingBackend.calls == 20

    def test_source_error_ends_the_run_before_any_lookup(self, lex):
        service_calls = []

        def fetch(url: str, timeout: float) -> tuple[int, str]:
            service_calls.append(url)
            time.sleep(0.02)
            return 200, ZERO_RESULTS

        def source():
            for i in range(200):
                yield rescue_line(f"r{i}", 100 + i)
            raise OSError("source lost mid-stream")

        geocoder = Geocoder(HttpBackend(SERVICE_URL, api_key="test", fetch=fetch))
        with pytest.raises(OSError, match="source lost"):
            run_pipeline(
                source(), stream_cfg=StreamConfig(), lex=lex, geocoder=geocoder, sequential=False
            )
        assert geocode_threads() == []
        assert service_calls == []  # geocoding starts only once the source is exhausted

    def test_backend_interrupt_in_a_worker_reaches_the_caller(self, lex):
        class Interrupt(BaseException):
            pass

        class InterruptingBackend:
            def resolve(self, query: str) -> GeocodeResult:
                if query.startswith("107 "):
                    raise Interrupt()
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        lines = [rescue_line(f"r{i}", 100 + i) for i in range(20)]
        with pytest.raises(Interrupt):
            run_pipeline(
                lines, stream_cfg=StreamConfig(), lex=lex,
                geocoder=Geocoder(InterruptingBackend()), sequential=False,
            )
        assert geocode_threads() == []

    def test_pool_starts_at_most_one_thread_per_distinct_address(self, lex, monkeypatch):
        # A surplus thread finds no address left and ends before any lookup
        # counts it, so the starts are counted too.
        started: list[str] = []
        start = threading.Thread.start

        def counting_start(thread: threading.Thread) -> None:
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        seen: list[int] = []

        class RecordingBackend:
            def resolve(self, query: str) -> GeocodeResult:
                seen.append(len(geocode_threads()))
                time.sleep(0.005)  # a later thread would start while this lookup waits
                return GeocodeResult(point=None, status=GeocodeStatus.RATE_LIMITED)

        lines = [rescue_line(f"r{i}", 100 + i % 3) for i in range(9)]
        requests, _ = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(RecordingBackend()), sequential=False,
        )
        assert len(requests) == len(seen) == 9  # errors are not cached: 9 lookups
        assert 0 < max(seen) <= 3
        assert len([name for name in started if name.startswith("rescuemap-geocode")]) == 3
        assert geocode_threads() == []

    def test_backend_interrupt_drops_the_addresses_not_yet_started(self, lex):
        class Interrupt(BaseException):
            pass

        calls: list[str] = []

        class FirstCallInterrupts:
            def resolve(self, query: str) -> GeocodeResult:
                calls.append(query)  # list.append is atomic
                if len(calls) == 1:
                    raise Interrupt()
                time.sleep(0.01)
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        distinct = 4 * GEOCODE_WORKERS
        lines = [rescue_line(f"r{i}", 100 + i) for i in range(distinct)]
        with pytest.raises(Interrupt):
            run_pipeline(
                lines, stream_cfg=StreamConfig(), lex=lex,
                geocoder=Geocoder(FirstCallInterrupts()), sequential=False,
            )
        assert 0 < len(calls) < distinct
        assert geocode_threads() == []

    def test_sequential_mode_geocodes_on_the_calling_thread_only(self, lex):
        seen: list[tuple[threading.Thread, list[threading.Thread]]] = []

        class RecordingBackend:
            def resolve(self, query: str) -> GeocodeResult:
                seen.append((threading.current_thread(), geocode_threads()))
                return GeocodeResult(point=None, status=GeocodeStatus.NOT_FOUND)

        lines = [rescue_line(f"r{i}", 100 + i) for i in range(2 * GEOCODE_WORKERS)]
        requests, _ = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(RecordingBackend()), sequential=True,
        )
        assert len(requests) == len(seen) == len(lines)
        assert seen == [(threading.current_thread(), [])] * len(lines)
        assert geocode_threads() == []

    def test_gazetteer_lookups_stay_on_the_calling_thread(self, data_dir, lex):
        threads: list[str] = []

        class RecordingGazetteer(Gazetteer):
            def resolve(self, query: str) -> GeocodeResult:
                threads.append(threading.current_thread().name)
                return super().resolve(query)

        lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()
        _, summary = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex,
            geocoder=Geocoder(RecordingGazetteer.load(data_dir / "gazetteer.tsv")), sequential=False,
        )
        assert summary.geocoded_ok > 0
        assert threads and set(threads) == {threading.current_thread().name}

    def test_lexicon_and_http_backend_leave_importlib_resources_and_string_unloaded(self):
        # Under -S, as no site hook has imported either before rescuemap runs.
        probe = "\n".join([
            "import sys, rescuemap",
            "rescuemap.default_lexicon(spanish=True)",
            "rescuemap.load_street_suffixes()",
            f"rescuemap.HttpBackend({SERVICE_URL!r}, api_key='test')",
            "print(sorted({'importlib.resources', 'string'} & sys.modules.keys()))",
        ])
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_import_leaves_concurrent_futures_unloaded(self):
        # Neither `import rescuemap`, nor a run whose gazetteer lookups stay
        # inline, nor a pooled run over HttpBackend with an injected fetch
        # imports it, urllib.request or html (whose entity table the output
        # module does without).
        data = SRC.parent / "data"
        probe = "\n".join([
            "import pathlib, sys, rescuemap",
            "lean = lambda: not {'concurrent.futures', 'urllib.request', 'html'} & sys.modules.keys()",
            "print(lean())",
            f"lines = pathlib.Path({str(data / 'replay_corpus.ndjson')!r}).read_bytes().splitlines()",
            f"geocoder = rescuemap.Geocoder(rescuemap.Gazetteer.load({str(data / 'gazetteer.tsv')!r}))",
            "run = lambda geocoder: rescuemap.run_pipeline(",
            "    lines, stream_cfg=rescuemap.StreamConfig(), lex=rescuemap.default_lexicon(),",
            "    geocoder=geocoder, sequential=False,",
            ")[1]",
            "print(run(geocoder).geocoded_ok > 0, lean())",
            f"fetch = lambda url, timeout: (200, {ZERO_RESULTS!r})",
            f"backend = rescuemap.HttpBackend({SERVICE_URL!r}, api_key='test', fetch=fetch)",
            "summary = run(rescuemap.Geocoder(backend))",
            "print(summary.geocode_failed == summary.classified_positive > 0, lean())",
        ])
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["True", "True True", "True True", ""]

    def test_default_fetch_runs_the_pool_without_requests(self, loopback, data_dir, lex):
        corpus = data_dir / "replay_corpus.ndjson"
        service = GazetteerService(data_dir / "gazetteer.tsv")
        url = loopback(service.answer) + "/json?address={query}"
        probe = "\n".join([
            "import json, pathlib, sys",
            "sys.modules['requests'] = None  # so that importing it raises ImportError",
            "import rescuemap",
            f"lines = pathlib.Path({str(corpus)!r}).read_bytes().splitlines()",
            f"geocoder = rescuemap.Geocoder(rescuemap.HttpBackend({url!r}))",
            "_, summary = rescuemap.run_pipeline(",
            "    lines, stream_cfg=rescuemap.StreamConfig(), lex=rescuemap.default_lexicon(),",
            "    geocoder=geocoder, sequential=False,",
            ")",
            "print(json.dumps(summary.as_dict()))",
        ])
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-c", probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""  # where -X dev reports a socket left unclosed
        lines = corpus.read_bytes().splitlines()
        assert json.loads(done.stdout) == service.expected_summary(lines, lex)

    def test_malformed_and_duplicate_lines_reach_the_summary(
        self, sample_corpus_lines, sample_geocoder, lex
    ):
        lines = sample_corpus_lines + ["{not json", sample_corpus_lines[0]]
        _, summary = run_pipeline(
            lines, stream_cfg=StreamConfig(), lex=lex, geocoder=sample_geocoder
        )
        assert summary.malformed == 1
        assert summary.duplicates == 1
        assert summary.read == 10


class TestCliPipeline:
    def run_cli(self, *argv) -> int:
        return main(list(argv))

    def test_pipeline_writes_outputs_and_summary(self, data_dir, tmp_path, capsys):
        out_geojson = tmp_path / "out.geojson"
        out_map = tmp_path / "map.html"
        code = self.run_cli(
            "pipeline",
            "--input", str(data_dir / "harvey_sample.ndjson"),
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
            "--out-geojson", str(out_geojson),
            "--out-map", str(out_map),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["read"] == 10
        assert summary["classified_positive"] == 2
        assert summary["geocoded_ok"] == 2
        doc = json.loads(out_geojson.read_text(encoding="utf-8"))
        assert len(doc["features"]) == 2
        assert "4055 South #Braeswood Boulevard" in out_map.read_text(encoding="utf-8")

    def test_pipeline_via_config_file(self, data_dir, tmp_path, capsys):
        config = {
            "inputs": [str(data_dir / "harvey_sample.ndjson")],
            "gazetteer": str(data_dir / "gazetteer_sample.tsv"),
            "out_geojson": str(tmp_path / "cfg.geojson"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert self.run_cli("pipeline", "--config", str(config_path)) == 0
        assert (tmp_path / "cfg.geojson").is_file()

    def test_manifest_inputs(self, data_dir, tmp_path, capsys):
        manifest = tmp_path / "corpus.manifest"
        manifest.write_text(
            f"# replay these in order\n{data_dir / 'harvey_sample.ndjson'}\n",
            encoding="utf-8",
        )
        code = self.run_cli(
            "pipeline",
            "--manifest", str(manifest),
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["read"] == 10

    def test_manifest_skips_an_indented_comment(self, data_dir, tmp_path, capsys):
        manifest = tmp_path / "corpus.manifest"
        manifest.write_text(
            f"  # missing.ndjson\n{data_dir / 'harvey_sample.ndjson'}\n", encoding="utf-8"
        )
        code = self.run_cli(
            "pipeline",
            "--manifest", str(manifest),
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["read"] == 10

    def test_non_utf8_byte_costs_only_its_line(self, data_dir, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        good = (data_dir / "harvey_sample.ndjson").read_bytes()
        source.write_bytes(
            good + b'{"id": "bad", "text": "x \xff", "created_at": "2017-08-27T12:00:00Z"}\n'
        )
        code = self.run_cli(
            "pipeline", "--input", str(source), "--gazetteer", str(data_dir / "gazetteer_sample.tsv")
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["read"] == 10
        assert summary["malformed"] == 1

    def test_utf8_encoded_surrogate_costs_only_its_line(self, data_dir, tmp_path, capsys):
        source = tmp_path / "in.ndjson"
        source.write_bytes(
            b'{"id": "p1", "text": "Need rescue at 12 Clay Rd #Harvey",'
            b' "created_at": "2017-08-27T14:03:00Z"}\n'
            b'{"id": "p2", "text": "Need rescue at 14 Clay Rd #Harvey",'
            b' "created_at": "2017-08-27T14:03:00Z", "user": {"location": "\xed\xa0\x80"}}\n'
        )
        code = self.run_cli(
            "pipeline", "--input", str(source), "--gazetteer", str(data_dir / "gazetteer.tsv")
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["read"] == 1
        assert summary["malformed"] == 1

    @pytest.mark.parametrize(
        "coordinates",
        [
            pytest.param(f"[{10**400 - 1}, 29.7]", id="pair"),
            pytest.param(f'{{"type": "Point", "coordinates": [{10**400 - 1}, 29.7]}}', id="point"),
        ],
    )
    def test_coordinate_too_large_for_a_float_costs_only_its_line(
        self, data_dir, tmp_path, capsys, coordinates
    ):
        source = tmp_path / "in.ndjson"
        bad = (
            '{"id": "bad", "text": "x", "created_at": "2017-08-27T12:00:00Z",'
            f' "coordinates": {coordinates}}}\n'
        )
        source.write_bytes((data_dir / "harvey_sample.ndjson").read_bytes() + bad.encode())
        code = self.run_cli(
            "pipeline", "--input", str(source), "--gazetteer", str(data_dir / "gazetteer_sample.tsv")
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["read"] == 10
        assert summary["malformed"] == 1

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(
                b'{"id": "p2", "text": "Need rescue at 14 Clay Rd #Harvey",'
                b' "created_at": "0001-01-01T00:30:00Z"}\n',
                id="created_at_year_1",
            ),
            pytest.param(
                b'{"id": "p2", "text": "Need rescue at 14 Clay Rd \\ud800 #Harvey",'
                b' "created_at": "2017-08-27T14:03:00Z"}\n',
                id="text_lone_surrogate",
            ),
            pytest.param(
                b'{"id": "p2\\ud800", "text": "Need rescue at 14 Clay Rd #Harvey",'
                b' "created_at": "2017-08-27T14:03:00Z"}\n',
                id="id_lone_surrogate",
            ),
        ],
    )
    def test_positive_without_an_output_form_costs_only_its_line(
        self, data_dir, tmp_path, capsys, bad
    ):
        source = tmp_path / "in.ndjson"
        source.write_bytes(
            b'{"id": "p1", "text": "Need rescue at 12 Clay Rd #Harvey",'
            b' "created_at": "2017-08-27T14:03:00Z"}\n' + bad
        )
        out_geojson, out_map = tmp_path / "out.geojson", tmp_path / "map.html"
        code = self.run_cli(
            "pipeline", "--input", str(source), "--gazetteer", str(data_dir / "gazetteer.tsv"),
            "--out-geojson", str(out_geojson), "--out-map", str(out_map),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["malformed"] == 1
        assert summary["classified_positive"] == 1
        doc = json.loads(out_geojson.read_bytes().decode("utf-8"))
        assert len(doc["features"]) + len(doc["ungeocoded"]) == 1
        assert "12 Clay Rd" in out_map.read_bytes().decode("utf-8")

    def test_missing_input_file_exits_2(self, data_dir, capsys):
        code = self.run_cli(
            "pipeline",
            "--input", "/nonexistent/corpus.ndjson",
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
        )
        assert code == 2
        assert "nonexistent" in capsys.readouterr().err

    def test_no_geocoder_selected_exits_1(self, data_dir, capsys):
        code = self.run_cli("pipeline", "--input", str(data_dir / "harvey_sample.ndjson"))
        assert code == 1

    @pytest.mark.parametrize("min_interval", [None, 0.005], ids=["unpaced", "paced"])
    def test_http_backend_end_to_end(self, loopback, data_dir, tmp_path, capsys, lex, min_interval):
        corpus = data_dir / "replay_corpus.ndjson"
        service = GazetteerService(data_dir / "gazetteer.tsv")
        http = {"url": loopback(service.answer) + "/json?address={query}"}
        if min_interval is not None:
            http["min_interval"] = min_interval
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inputs": [str(corpus)], "http": http}), encoding="utf-8")
        assert self.run_cli("pipeline", "--config", str(config)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == service.expected_summary(corpus.read_bytes().splitlines(), lex)
        if min_interval is not None:
            # Arrivals jitter by a few ms around the paced starts.
            arrivals = sorted(arrived for arrived, _ in service.requests)
            assert arrivals[-1] - arrivals[0] >= 0.5 * min_interval * (len(arrivals) - 1)

    def test_http_url_of_another_scheme_exits_1_before_any_request(
        self, loopback, data_dir, tmp_path, capsys
    ):
        service = GazetteerService(data_dir / "gazetteer.tsv")
        url = "htps" + loopback(service.answer).removeprefix("http") + "/json?address={query}"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"inputs": [str(data_dir / "replay_corpus.ndjson")], "http": {"url": url}}),
            encoding="utf-8",
        )
        assert self.run_cli("pipeline", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rescuemap: config: http.url is not an http(s) URL: {url}\n"
        assert service.requests == []

    @pytest.mark.parametrize(
        "char", ["\t", "\n", "\r", " ", "\u00e9"], ids=["tab", "newline", "return", "space", "non_ascii"]
    )
    @pytest.mark.parametrize("where", ["scheme", "query"])
    def test_http_url_with_a_space_or_control_character_exits_1_before_any_request(
        self, loopback, data_dir, tmp_path, capsys, char, where
    ):
        # urlsplit deletes a tab or newline, and http.client refuses to write a
        # non-ASCII request line, so without this check the run would exit 0
        # with every lookup a backend_error.
        service = GazetteerService(data_dir / "gazetteer.tsv")
        base = loopback(service.answer)
        if where == "scheme":
            url = "ht" + char + base.removeprefix("ht") + "/json?address={query}"
        else:
            url = base + "/json?address=" + char + "{query}"
        out = tmp_path / "out.geojson"
        config = tmp_path / "config.json"
        corpus = str(data_dir / "replay_corpus.ndjson")
        config.write_text(
            json.dumps({"inputs": [corpus], "http": {"url": url}, "out_geojson": str(out)}), encoding="utf-8"
        )
        assert self.run_cli("pipeline", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"rescuemap: config: http.url holds a space, control or non-ASCII character: {url!r}\n"
        )
        assert service.requests == []
        assert not out.exists()

    def test_geocoder_key_that_is_not_utf8_exits_1_before_any_request(
        self, loopback, data_dir, tmp_path, capsys
    ):
        service = GazetteerService(data_dir / "gazetteer.tsv")
        url = loopback(service.answer) + "/json?address={query}&key={key}"
        out = tmp_path / "out.geojson"
        config = tmp_path / "config.json"
        corpus = str(data_dir / "replay_corpus.ndjson")
        config.write_text(
            json.dumps({"inputs": [corpus], "http": {"url": url}, "out_geojson": str(out)}), encoding="utf-8"
        )
        # os.environ reads the byte 0xff, not UTF-8, as the lone surrogate U+DCFF.
        with mock.patch.dict(os.environ, {API_KEY_ENV_VAR: "key\udcff"}):
            assert self.run_cli("pipeline", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rescuemap: config: {API_KEY_ENV_VAR} is not valid UTF-8\n"
        assert service.requests == []
        assert not out.exists()

    def test_every_config_key_in_the_readme_is_accepted(self, data_dir, tmp_path, capsys):
        readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
        sentence = " ".join(readme[readme.index("The config keys are"):].split("\n\n")[0].split())
        top, http = sentence.split("; `http` holds ")
        values = {
            "inputs": [],
            "manifest": str(tmp_path / "manifest.txt"),
            "keywords": ["#HurricaneHarvey", "#Harvey", "Hurricane", "flooding"],
            "bbox": [-99.0, 27.6, -90.8, 33.5],
            "gazetteer": str(data_dir / "gazetteer.tsv"),
            "lexicons": str(tmp_path),  # no override file: every list keeps its default
            "spanish": False,
            "http": {"url": SERVICE_URL, "min_interval": 0.5},
            "out_geojson": str(tmp_path / "out.geojson"),
            "out_map": str(tmp_path / "map.html"),
        }
        assert set(re.findall(r"`(\w+)`", top)) == values.keys()
        assert set(re.findall(r"`(\w+)`", http.split(".")[0])) == values["http"].keys()
        (tmp_path / "manifest.txt").write_text(str(data_dir / "replay_corpus.ndjson"), encoding="utf-8")
        # A config names one backend: the run takes the gazetteer, and the
        # http block alone builds an HttpBackend, without a request.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({k: v for k, v in values.items() if k != "http"}), encoding="utf-8")
        assert self.run_cli("pipeline", "--config", str(config)) == 0
        assert capsys.readouterr().err == ""
        shipped = data_dir.parent / "out"
        assert (tmp_path / "out.geojson").read_bytes() == (shipped / "rescue_requests.geojson").read_bytes()
        assert (tmp_path / "map.html").read_bytes() == (shipped / "rescue_map.html").read_bytes()
        config.write_text(json.dumps({"http": values["http"]}), encoding="utf-8")
        args = cli._build_parser().parse_args(["pipeline", "--config", str(config)])
        with mock.patch("rescuemap.geocode._default_fetch", side_effect=AssertionError("no request")):
            geocoder = cli._build_geocoder(args, cli._load_config(args.config))
        assert type(geocoder.backend) is HttpBackend

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"out_gejson": "x.geojson"}, "unknown key 'out_gejson' (did you mean 'out_geojson'?)"),
            ({"spansh": True}, "unknown key 'spansh' (did you mean 'spanish'?)"),
            ({"_comment": "x"}, "unknown key '_comment'"),
            (
                {"http": {"url": SERVICE_URL, "min_intreval": 1}},
                "unknown key 'http.min_intreval' (did you mean 'http.min_interval'?)",
            ),
        ],
        ids=["out_geojson", "spanish", "underscore_is_no_comment", "http_min_interval"],
    )
    def test_misspelt_config_key_is_named_with_the_nearest_known_key(
        self, data_dir, tmp_path, capsys, fields, message
    ):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"inputs": [str(data_dir / "harvey_sample.ndjson")], **fields}), encoding="utf-8"
        )
        assert self.run_cli("pipeline", "--config", str(config)) == 1
        assert capsys.readouterr().err == f"rescuemap: config: {message}\n"

    def test_http_backend_without_url_exits_1(self, data_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"http": {"min_interval": 0.5}}), encoding="utf-8")
        code = self.run_cli(
            "pipeline",
            "--input", str(data_dir / "harvey_sample.ndjson"),
            "--config", str(config),
        )
        assert code == 1
        assert "http" in capsys.readouterr().err

    def test_gazetteer_flag_wins_over_the_config_http_block(self, data_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("rescuemap.geocode._default_fetch", mock.Mock(side_effect=AssertionError("request")))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"http": {"url": SERVICE_URL}}), encoding="utf-8")
        code = self.run_cli(
            "pipeline",
            "--config", str(config),
            "--input", str(data_dir / "harvey_sample.ndjson"),
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["geocoded_ok"], summary["geocode_failed"]) == (2, 0)

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"keywords": "Harvey"}, id="keywords_string"),
            pytest.param({"keywords": ["Harvey", 5]}, id="keywords_non_string"),
            pytest.param({"bbox": ["x", 0, 0, 1]}, id="bbox_non_numeric"),
            pytest.param({"bbox": [1, 0, 0, 1]}, id="bbox_west_not_below_east"),
            pytest.param({"bbox": ["-99", True, "-90.8", "33.5"]}, id="bbox_strings_and_bool"),
            pytest.param({"bbox": [False, False, True, True]}, id="bbox_bools"),
            pytest.param({"bbox": [-99, 27.6, -90.8, "33.5"]}, id="bbox_numeric_string"),
            pytest.param({"bbox": [-99, 27.6, 10**400, 33.5]}, id="bbox_int_too_large"),
            pytest.param({"bbox": [-99, 27.6, -90.8]}, id="bbox_three_values"),
            pytest.param({"http": {"url": SERVICE_URL, "min_interval": "fast"}}, id="min_interval"),
            pytest.param(
                {"http": {"url": SERVICE_URL, "min_interval": float("inf")}},
                id="min_interval_infinite",
            ),
            pytest.param({"http": "fast"}, id="http_not_an_object"),
            pytest.param({"http": {"url": 5}}, id="http_url_not_a_string"),
            pytest.param(
                {"http": {"url": "https://geo.invalid/json?address={adress}&key={key}"}},
                id="http_url_unknown_field",
            ),
            pytest.param(
                {"http": {"url": "https://geo.invalid/json?address={query}&key={key"}},
                id="http_url_unbalanced_brace",
            ),
            pytest.param({"inputs": "harvey_sample.ndjson"}, id="inputs_string"),
            pytest.param({"inputs": [5]}, id="inputs_non_string"),
            pytest.param({"manifest": 5}, id="manifest_not_a_string"),
            pytest.param({"spanish": "no"}, id="spanish_not_a_boolean"),
        ],
    )
    def test_bad_config_value_exits_1_with_one_line(self, data_dir, tmp_path, capsys, fields):
        config_path = tmp_path / "config.json"
        config = {"inputs": [str(data_dir / "harvey_sample.ndjson")], **fields}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert self.run_cli("pipeline", "--config", str(config_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("rescuemap: config: ", "rescuemap: geocoder: http"))
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param(None, "config: file not found: {dir}/config.json", id="missing_file"),
            pytest.param(
                "{",
                "config: {dir}/config.json: invalid JSON (Expecting property name enclosed in double quotes)",
                id="invalid_json",
            ),
            pytest.param(
                "[" * 100_000 + "]" * 100_000,
                "config: {dir}/config.json: invalid JSON (RecursionError)",
                id="nested_too_deep",
            ),
            pytest.param(
                '{"bbox": ' + "9" * 5000 + "}",
                "config: {dir}/config.json: invalid JSON (ValueError)",
                id="integer_past_int_str_digit_limit",
            ),
            pytest.param("[]", "config: {dir}/config.json: top level must be an object", id="top_level_array"),
            pytest.param(
                {"keywords": [], "bbox": None},
                "stream config: stream config needs keywords or a bounding box",
                id="no_keywords_and_no_bbox",
            ),
            pytest.param(
                {"keywords": [""], "bbox": None},
                "stream config: stream config needs keywords or a bounding box",
                id="empty_keywords_and_no_bbox",
            ),
            pytest.param(
                {"gazetteer": None},
                "geocoder: give --gazetteer PATH, or a gazetteer or an http block in the config",
                id="gazetteer_without_path",
            ),
            pytest.param(
                {"http": {"url": SERVICE_URL}},
                "geocoder: the config gives both a gazetteer and an http block; give one",
                id="gazetteer_and_http",
            ),
            pytest.param(
                {"geocoder_backend": "gazetteer"},
                "config: unknown key 'geocoder_backend'",
                id="geocoder_backend_is_gone",
            ),
            pytest.param(
                {"gazetteer": "missing.tsv"},
                "geocoder: gazetteer file not found: {dir}/missing.tsv",
                id="missing_gazetteer",
            ),
            pytest.param(
                {"inputs": [], "manifest": "missing.txt"},
                "input: manifest not found: {dir}/missing.txt",
                id="missing_manifest",
            ),
            pytest.param(
                {"inputs": []},
                "input: give --input FILE (or '-' for stdin), --manifest, or config inputs",
                id="no_input",
            ),
        ],
    )
    def test_config_that_leaves_nothing_to_run_exits_1_naming_why(
        self, data_dir, tmp_path, capsys, fields, message
    ):
        # fields: the config file's text, None for no file, or keys over a runnable config.
        config = tmp_path / "config.json"
        if isinstance(fields, str):
            config.write_text(fields, encoding="utf-8")
        elif fields is not None:
            runnable = {
                "inputs": [str(data_dir / "harvey_sample.ndjson")],
                "gazetteer": str(data_dir / "gazetteer_sample.tsv"),
            }
            config.write_text(json.dumps({**runnable, **fields}), encoding="utf-8")
        assert self.run_cli("pipeline", "--config", str(config)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rescuemap: {message.format(dir=tmp_path)}\n"

    def test_bbox_null_turns_the_box_off(self, data_dir, tmp_path, capsys):
        # Inside the Harvey box, with none of the track keywords in its text.
        record = {"id": "1", "text": "water at 12 Clay Rd", "created_at": "2017-08-27T14:03:00Z",
                  "coordinates": [-95.4, 29.7]}
        replay = tmp_path / "replay.ndjson"
        replay.write_text(json.dumps(record) + "\n", encoding="utf-8")
        config = tmp_path / "config.json"
        passed = []
        for box in ({}, {"bbox": None}):
            fields = {"inputs": [str(replay)], "gazetteer": str(data_dir / "gazetteer_sample.tsv"), **box}
            config.write_text(json.dumps(fields), encoding="utf-8")
            assert self.run_cli("pipeline", "--config", str(config)) == 0
            summary = json.loads(capsys.readouterr().out)
            passed.append((summary["stream_passed"], summary["stream_rejected"]))
        assert passed == [(1, 0), (0, 1)]

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full, which fails every write")
    def test_write_error_exits_2_with_one_line(self, data_dir, capsys):
        code = self.run_cli(
            "pipeline",
            "--input", str(data_dir / "harvey_sample.ndjson"),
            "--gazetteer", str(data_dir / "gazetteer_sample.tsv"),
            "--out-geojson", "/dev/full",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rescuemap: io error: [Errno 28] ")
        assert captured.err.count("\n") == 1
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # written in place, never replaced

    def test_stdin_input_matches_shipped_outputs(self, data_dir, tmp_path, capsys, monkeypatch):
        replay = (data_dir / "replay_corpus.ndjson").read_bytes()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(replay)))
        out_geojson, out_map = tmp_path / "out.geojson", tmp_path / "map.html"
        code = self.run_cli(
            "pipeline", "--config", str(data_dir / "pipeline_config.json"), "--input", "-",
            "--out-geojson", str(out_geojson), "--out-map", str(out_map),
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["read"] == len(replay.splitlines())
        shipped = data_dir.parent / "out"
        assert out_geojson.read_bytes() == (shipped / "rescue_requests.geojson").read_bytes()
        assert out_map.read_bytes() == (shipped / "rescue_map.html").read_bytes()

    @pytest.mark.parametrize("flag", ["--out-geojson", "--out-map"])
    @pytest.mark.parametrize(
        "target, message",
        [
            pytest.param(
                ("no", "such", "dir", "x.out"), "output directory not found", id="missing"
            ),
            pytest.param((), "output path is a directory", id="directory"),
        ],
    )
    def test_missing_output_directory_exits_2_before_reading_input(
        self, data_dir, tmp_path, capsys, monkeypatch, flag, target, message
    ):
        stdin = io.TextIOWrapper(io.BytesIO((data_dir / "replay_corpus.ndjson").read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        code = self.run_cli(
            "pipeline", "--config", str(data_dir / "pipeline_config.json"), "--input", "-",
            flag, str(tmp_path.joinpath(*target)),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rescuemap: {message}: ")
        assert captured.err.count("\n") == 1
        assert stdin.buffer.tell() == 0

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_both_outputs_named_as_one_file_exits_1_before_reading_input(
        self, data_dir, tmp_path, capsys, monkeypatch, spelling
    ):
        stdin = io.TextIOWrapper(io.BytesIO((data_dir / "replay_corpus.ndjson").read_bytes()))
        monkeypatch.setattr(sys, "stdin", stdin)
        target = tmp_path / "out.txt"
        other = {
            "same": target,
            "dotted": f"{tmp_path}/../{tmp_path.name}/./out.txt",  # pathlib would fold the dots
            "symlink": tmp_path / "link.txt",
        }[spelling]
        (tmp_path / "link.txt").symlink_to(target)
        code = self.run_cli(
            "pipeline", "--config", str(data_dir / "pipeline_config.json"), "--input", "-",
            "--out-geojson", str(target), "--out-map", str(other),
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rescuemap: output: the GeoJSON and the map name one file: {other}\n"
        assert stdin.buffer.tell() == 0
        assert not target.exists()

    def _outputs_argv(self, data_dir, out_geojson, out_map) -> list[str]:
        return [
            "pipeline", "--config", str(data_dir / "pipeline_config.json"),
            "--out-geojson", str(out_geojson), "--out-map", str(out_map),
        ]

    @pytest.mark.parametrize(
        "error", [OSError(28, "No space left on device"), KeyboardInterrupt()], ids=["oserror", "interrupt"]
    )
    def test_failed_write_keeps_both_old_outputs_and_leaves_no_temporary_file(
        self, data_dir, tmp_path, capsys, monkeypatch, error
    ):
        from rescuemap import output

        real_pieces = output._map_pieces

        def pieces_then_error(requests):
            pieces = real_pieces(requests)
            for _ in range(3):  # the document's head, the payload's start and a marker
                yield next(pieces)
            raise error

        # The GeoJSON is written completely first; the map fails partway.
        monkeypatch.setattr(output, "_map_pieces", pieces_then_error)
        out_geojson, out_map = tmp_path / "requests.geojson", tmp_path / "map.html"
        out_geojson.write_bytes(b"old geojson\n")
        out_map.write_bytes(b"old map\n")
        argv = self._outputs_argv(data_dir, out_geojson, out_map)
        if isinstance(error, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                self.run_cli(*argv)
        else:
            assert self.run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "rescuemap: io error: [Errno 28] No space left on device\n"
        assert out_geojson.read_bytes() == b"old geojson\n"
        assert out_map.read_bytes() == b"old map\n"
        assert sorted(os.listdir(tmp_path)) == ["map.html", "requests.geojson"]

    def test_symlinked_output_is_updated_through_its_link(self, data_dir, tmp_path, capsys):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "requests.geojson"
        target.write_bytes(b"old geojson\n")
        link = tmp_path / "link.geojson"
        link.symlink_to(target)
        out_map = tmp_path / "map.html"
        assert self.run_cli(*self._outputs_argv(data_dir, link, out_map)) == 0
        shipped = data_dir.parent / "out"
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (shipped / "rescue_requests.geojson").read_bytes()
        assert out_map.read_bytes() == (shipped / "rescue_map.html").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["link.geojson", "map.html", "real"]
        assert os.listdir(tmp_path / "real") == ["requests.geojson"]

    def test_fifo_output_is_written_in_place(self, data_dir, tmp_path, capsys):
        fifo = tmp_path / "map.fifo"
        os.mkfifo(fifo)
        # Held open for reading and writing, so the run's open does not wait for
        # a reader; the map (about 19 KB) fits in the pipe's 64 KB buffer.
        pipe = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
        try:
            assert self.run_cli(*self._outputs_argv(data_dir, tmp_path / "requests.geojson", fifo)) == 0
            written = b""
            with contextlib.suppress(BlockingIOError):
                while True:
                    written += os.read(pipe, 1 << 16)
        finally:
            os.close(pipe)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert written == (data_dir.parent / "out" / "rescue_map.html").read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["map.fifo", "requests.geojson"]

    @pytest.mark.parametrize("option", ["--out-geojson", "--out-map"])
    @pytest.mark.parametrize("kind", ["file", "pipe"])
    def test_output_that_is_stdout_exits_1_before_reading_input(self, kind, option, data_dir, tmp_path):
        # The summary goes to stdout: an output there would be renamed over it
        # (a file) or run into it (a pipe). Refused before stdin is read.
        source = tmp_path / "input.ndjson"
        source.write_bytes((data_dir / "replay_corpus.ndjson").read_bytes())
        argv = [
            sys.executable, "-m", "rescuemap.cli", "pipeline", "--input", "-",
            "--gazetteer", str(data_dir / "gazetteer.tsv"), option, "/dev/stdout",
        ]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with source.open("rb") as stdin:
            if kind == "file":
                summary = tmp_path / "summary.json"
                summary.write_bytes(b"known bytes\n")
                with summary.open("r+b") as stdout:  # opened without truncation
                    done = subprocess.run(
                        argv, stdin=stdin, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60
                    )
                assert summary.read_bytes() == b"known bytes\n"
            else:
                done = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=60)
                assert done.stdout == b""
            assert os.lseek(stdin.fileno(), 0, os.SEEK_CUR) == 0  # the offset the child shares
        assert done.returncode == 1
        assert done.stderr.decode().splitlines() == [
            "rescuemap: output: /dev/stdout is stdout, where the summary goes"
        ]
        assert not list(tmp_path.glob(".*.tmp"))

    def test_output_keeps_its_permission_bits_and_a_new_one_gets_the_umask(
        self, data_dir, tmp_path, capsys
    ):
        out_geojson, out_map = tmp_path / "requests.geojson", tmp_path / "map.html"
        out_geojson.write_bytes(b"old geojson\n")
        out_geojson.chmod(0o644)
        umask = os.umask(0o027)
        try:
            assert self.run_cli(*self._outputs_argv(data_dir, out_geojson, out_map)) == 0
        finally:
            os.umask(umask)
        assert out_geojson.stat().st_mode & 0o7777 == 0o644
        assert out_map.stat().st_mode & 0o7777 == 0o666 & ~0o027

    @pytest.mark.parametrize(
        "argv", [["--no-such-flag"], ["--geocoder", "http"]], ids=["no_such_flag", "geocoder_flag_is_gone"]
    )
    def test_bad_usage_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            self.run_cli("pipeline", *argv)
        assert exc_info.value.code == 1

    def test_every_flag_is_in_the_readme(self, data_dir):
        readme = (data_dir.parent / "README.md").read_text(encoding="utf-8")
        parser = cli._build_parser()
        subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        flags = {
            (command, flag)
            for command, subparser in subcommands.items()
            for action in subparser._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        assert {command for command, _ in flags} == {"pipeline", "classify", "eval"}
        undocumented = [
            (command, flag) for command, flag in sorted(flags)
            if not re.search(re.escape(flag) + r"(?![\w-])", readme)
        ]
        assert undocumented == []


class TestCliClassify:
    def test_braeswood_tweet_is_rescue_request(self, data_dir, capsys):
        code = main(["classify", "--input", str(data_dir / "harvey_sample.ndjson")])
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        by_id = {r["id"]: r for r in records}
        assert len(records) == 10
        assert by_id["h0001"]["verdict"] == "RescueRequest"
        assert by_id["h0001"]["features"]["has_address"] is True
        assert by_id["h0003"]["verdict"] == "NotRescueRequest"
        assert by_id["h0003"]["features"]["has_offer_help"] is True

    def test_raw_mode_empty_line(self, tmp_path, capsys):
        source = tmp_path / "texts.txt"
        source.write_text("\n", encoding="utf-8")
        code = main(["classify", "--raw", "--input", str(source)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["verdict"] == "NotRescueRequest"
        assert all(v is False for v in record["features"].values())

    def test_raw_mode_replaces_non_utf8_bytes(self, tmp_path, capsys):
        source = tmp_path / "texts.txt"
        source.write_bytes(b"Please help \xff at 12 Oak St\r\n")
        code = main(["classify", "--raw", "--input", str(source)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["features"]["has_ask_help"] is True

    def test_spanish_flag_flips_spanish_requests(self, tmp_path, capsys):
        source = tmp_path / "texts.txt"
        source.write_text(
            "Ayuda por favor, estamos atrapados en la azotea, 7412 Canal St\n",
            encoding="utf-8",
        )
        main(["classify", "--raw", "--input", str(source)])
        plain = json.loads(capsys.readouterr().out.splitlines()[0])
        main(["classify", "--raw", "--spanish", "--input", str(source)])
        spanish = json.loads(capsys.readouterr().out.splitlines()[0])
        assert plain["verdict"] == "NotRescueRequest"
        assert spanish["verdict"] == "RescueRequest"

    def test_raw_stdin_matches_the_same_file_by_path(self, data_dir, capsys, monkeypatch):
        source = data_dir / "harvey_sample.ndjson"
        assert main(["classify", "--raw", "--input", str(source)]) == 0
        by_path = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(source.read_bytes())))
        assert main(["classify", "--raw", "--input", "-"]) == 0
        assert capsys.readouterr().out == by_path
        assert len(by_path.splitlines()) == 10

    def test_lexicon_override_directory(self, tmp_path, capsys):
        overrides = tmp_path / "lexicons"
        overrides.mkdir()
        (overrides / "help_keywords.txt").write_text("send a helicopter\n", encoding="utf-8")
        source = tmp_path / "texts.txt"
        source.write_text("send a helicopter to 12 Oak St #Harvey\n", encoding="utf-8")
        main(["classify", "--raw", "--lexicons", str(overrides), "--input", str(source)])
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["verdict"] == "RescueRequest"
        assert record["features"]["has_ask_help"] is True


class TestCliEval:
    def test_counts_flag_matches_compute_metrics(self, capsys):
        code = main(["eval", "--counts", "228,66,23,5475"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.index("\n}") + 2])
        assert report["confusion_matrix"] == {"tp": 228, "fp": 66, "fn": 23, "tn": 5475}
        assert report["metrics"]["sensitivity"] == pytest.approx(0.9083665, abs=1e-6)
        assert report["metrics"]["f1"] == pytest.approx(0.8366972, abs=1e-6)
        assert "sensitivity" in out

    def test_shipped_corpus_totals(self, data_dir, capsys):
        code = main(["eval", "--input", str(data_dir / "labelled_corpus.csv")])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.index("\n}") + 2])
        assert report["total"] == 202
        assert report["confusion_matrix"] == {"tp": 66, "fp": 4, "fn": 8, "tn": 124}

    def test_missing_corpus_exits_2(self, capsys):
        assert main(["eval", "--input", "/nonexistent.csv"]) == 2

    def test_no_corpus_and_no_counts_exits_1(self, capsys):
        assert main(["eval"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rescuemap: eval: give a labelled corpus with --input or counts with --counts\n"

    @pytest.mark.parametrize(
        "counts",
        [
            "1,2,3", "-1,0,0,0", "0,0,0,0",
            pytest.param(f"{10**80},1,1,{10**80}", id="10**80,1,1,10**80"),
        ],
    )
    def test_bad_counts_exits_1(self, capsys, counts):
        assert main(["eval", f"--counts={counts}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rescuemap: eval: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(["--input", "/nonexistent/second.csv"], id="second_input"),
            pytest.param(["--counts", "1,2,3,4"], id="input_and_counts"),
        ],
    )
    def test_ignored_input_exits_1(self, data_dir, capsys, extra):
        assert main(["eval", "--input", str(data_dir / "labelled_corpus.csv"), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rescuemap: eval: ")
        assert captured.err.count("\n") == 1

    def test_header_only_corpus_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "labelled.csv"
        corpus.write_text("id,text,label\n", encoding="utf-8")
        assert main(["eval", "--input", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rescuemap: eval: ")
        assert captured.err.count("\n") == 1

    def test_field_past_the_csv_field_limit_exits_1_with_one_line(self, tmp_path, capsys):
        corpus = tmp_path / "labelled.csv"
        corpus.write_text(f"id,text,label\na,{'x' * 200_000},1\n", encoding="utf-8")
        assert main(["eval", "--input", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"rescuemap: {corpus}: line 2: field larger than field limit")
        assert captured.err.count("\n") == 1


NOT_UTF8 = b"caf\xe9\n"


@pytest.mark.parametrize(
    "case",
    ["lexicon_override", "config", "gazetteer", "manifest", "labelled_csv"],
)
def test_non_utf8_file_exits_1_with_one_line(case, data_dir, tmp_path, capsys):
    sample = str(data_dir / "harvey_sample.ndjson")
    gazetteer = str(data_dir / "gazetteer_sample.tsv")
    if case == "lexicon_override":
        bad = tmp_path / "help_keywords.txt"
        argv = ["classify", "--raw", "--lexicons", str(tmp_path), "--input", sample]
    elif case == "config":
        bad = tmp_path / "config.json"
        argv = ["pipeline", "--config", str(bad)]
    elif case == "gazetteer":
        bad = tmp_path / "gazetteer.tsv"
        argv = ["pipeline", "--input", sample, "--gazetteer", str(bad)]
    elif case == "manifest":
        bad = tmp_path / "manifest.txt"
        argv = ["pipeline", "--manifest", str(bad), "--gazetteer", gazetteer]
    else:
        bad = tmp_path / "labelled.csv"
        argv = ["eval", "--input", str(bad)]
    bad.write_bytes(NOT_UTF8)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rescuemap: ")
    assert captured.err.count("\n") == 1
    assert str(bad) in captured.err
    assert "UTF-8" in captured.err


@pytest.mark.parametrize(
    "case",
    ["lexicon_override", "config", "gazetteer", "manifest", "labelled_csv"],
)
def test_file_with_a_leading_bom_reads_as_without_it(case, data_dir, tmp_path, capsys):
    # Some editors start a UTF-8 file with a BOM. Without the BOM dropped, the
    # file's first phrase, row or path never matches, or the file does not parse.
    sample = str(data_dir / "harvey_sample.ndjson")
    gazetteer = str(data_dir / "gazetteer_sample.tsv")
    if case == "lexicon_override":
        path, text = tmp_path / "help_keywords.txt", "rescue\n"
        texts = tmp_path / "texts.txt"
        texts.write_text("Need rescue at 12 Main St, Houston #Harvey\n", encoding="utf-8")
        argv = ["classify", "--raw", "--lexicons", str(tmp_path), "--input", str(texts)]
    elif case == "config":
        path, text = tmp_path / "config.json", json.dumps({"inputs": [sample], "gazetteer": gazetteer})
        argv = ["pipeline", "--config", str(path)]
    elif case == "gazetteer":
        path = tmp_path / "gazetteer.tsv"
        rows = Path(gazetteer).read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(row for row in rows if not row.startswith("#"))  # a row comes first
        argv = ["pipeline", "--input", sample, "--gazetteer", str(path)]
    elif case == "manifest":
        path, text = tmp_path / "manifest.txt", f"{sample}\n"
        argv = ["pipeline", "--manifest", str(path), "--gazetteer", gazetteer]
    else:
        path = tmp_path / "labelled.csv"
        text = (data_dir / "labelled_corpus.csv").read_text(encoding="utf-8")
        argv = ["eval", "--input", str(path)]
    captured = []
    for bom in ("", "\ufeff"):
        path.write_text(bom + text, encoding="utf-8")
        assert main(argv) == 0
        captured.append(capsys.readouterr())
    assert captured[1] == captured[0]


# Any text, and near misses of the known keys: case, a letter off, a "_" prefix.
_unknown_keys = st.one_of(
    st.text(max_size=12),
    st.sampled_from(_CONFIG_KEYS + _HTTP_CONFIG_KEYS).flatmap(
        lambda key: st.sampled_from([key.upper(), key[:-1], key + "s", "_" + key, key.replace("_", "")])
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    key=_unknown_keys,
    value=st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    in_http=st.booleans(),
)
def test_unknown_config_key_exits_1_before_any_request_or_output(key, value, in_http):
    assume(key not in (_HTTP_CONFIG_KEYS if in_http else _CONFIG_KEYS))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.geojson"
        http = {"url": SERVICE_URL, "min_interval": 0}
        config = {"inputs": [str(SRC.parent / "data" / "harvey_sample.ndjson")], "out_geojson": str(out)}
        if in_http:
            http[key] = value
        else:
            config[key] = value
        config["http"] = http
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        requests = []
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch("rescuemap.geocode._default_fetch", lambda url, timeout: requests.append(url)):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["pipeline", "--config", str(path)])
        assert code == 1
        assert stdout.getvalue() == ""
        name = f"http.{key}" if in_http else key
        assert stderr.getvalue().startswith(f"rescuemap: config: unknown key {name!r}")
        assert stderr.getvalue().count("\n") == 1
        assert requests == []
        assert not out.exists()
