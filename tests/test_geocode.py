from __future__ import annotations

import collections
import json
import socket
import sys
import threading
import time
import urllib.parse
from dataclasses import FrozenInstanceError, replace
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from rescuemap import (
    Gazetteer,
    GazetteerError,
    GeocodeResult,
    GeocodeStatus,
    Geocoder,
    GeoPoint,
    HttpBackend,
    normalize_query,
)
from rescuemap import geocode

FIXTURE_ROWS = (
    "4055 South Braeswood Blvd, Houston, TX\t-95.44\t29.69\n"
    "1108 Highway 7, Texas\t-95.55\t30.12\n"
)


@pytest.fixture()
def gazetteer(tmp_path):
    path = tmp_path / "gazetteer.tsv"
    path.write_text(FIXTURE_ROWS, encoding="utf-8")
    return Gazetteer.load(path)


class TestGeoPoint:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            GeoPoint(200.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, -91.0)

    def test_result_requires_point_iff_ok(self):
        with pytest.raises(ValueError):
            GeocodeResult(point=None, status=GeocodeStatus.OK)
        with pytest.raises(ValueError):
            GeocodeResult(point=GeoPoint(0, 0), status=GeocodeStatus.NOT_FOUND)

    def test_no_instance_dict(self):
        # A per-instance __dict__ would add a dict to every point and result kept.
        body = json.dumps({"results": [{"geometry": {"location": {"lat": 29.7, "lng": -95.4}}}]})
        geocoder = Geocoder(HttpBackend("https://geo.example/?a={query}", fetch=lambda u, t: (200, body)))
        point = GeoPoint(-95.4, 29.7)
        results = [GeocodeResult(point, GeocodeStatus.OK), geocoder.geocode("1 Main St")]
        results.append(geocoder.geocode("1 Main St"))
        assert results[2].from_cache
        for value in (point, results[1].point, *results):
            assert not hasattr(value, "__dict__")


class TestGazetteer:
    def test_two_row_file(self, gazetteer):
        assert len(gazetteer) == 2

    def test_preloaded_address_resolves(self, gazetteer):
        result = gazetteer.resolve("4055 South Braeswood Blvd, Houston, TX")
        assert result.status is GeocodeStatus.OK
        assert (result.point.longitude, result.point.latitude) == (-95.44, 29.69)

    def test_unknown_address_is_not_found(self, gazetteer):
        result = gazetteer.resolve("1 Nowhere Pl, Houston, TX")
        assert result.status is GeocodeStatus.NOT_FOUND
        assert result.point is None

    def test_lookup_is_normalization_insensitive(self, gazetteer):
        result = gazetteer.resolve("4055  south braeswood blvd,  houston, tx")
        assert result.status is GeocodeStatus.OK

    def test_resolve_returns_one_shared_answer_per_row_and_for_misses(self, gazetteer):
        hit = gazetteer.resolve("4055 South Braeswood Blvd, Houston, TX")
        assert gazetteer.resolve("4055  SOUTH braeswood blvd.  houston tx") is hit
        assert gazetteer.resolve("1 Nowhere Pl") is gazetteer.resolve("2 Elsewhere Ave")

    def test_duplicate_key_is_an_error(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "1 Main St\t-95.0\t29.0\n1 MAIN ST.\t-95.1\t29.1\n", encoding="utf-8"
        )
        with pytest.raises(GazetteerError, match="row 2: duplicate"):
            Gazetteer.load(path)

    def test_table_keys_are_normalized(self):
        gazetteer = Gazetteer({"1 Main St, Houston": GeoPoint(-95.0, 29.0)})
        result = gazetteer.resolve("1 Main St, Houston")
        assert result.status is GeocodeStatus.OK
        assert (result.point.longitude, result.point.latitude) == (-95.0, 29.0)

    def test_table_keys_that_normalize_alike_are_an_error(self):
        table = {"1 Main St, Houston": GeoPoint(-95.0, 29.0), "1 MAIN ST. HOUSTON": GeoPoint(-95.1, 29.1)}
        with pytest.raises(GazetteerError, match="duplicate address '1 MAIN ST. HOUSTON'"):
            Gazetteer(table)

    def test_malformed_row_names_the_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1 Main St\t-95.0\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="row 1"):
            Gazetteer.load(path)

    def test_bad_row_after_comments_and_blanks_names_its_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "# head\n\n  # indented\n1 Main St\t-95.0\t29.0\n\n2 Main St\t-95.0\n", encoding="utf-8"
        )
        with pytest.raises(GazetteerError, match="row 6: expected 3 tab-separated columns"):
            Gazetteer.load(path)

    def test_non_numeric_coordinate_names_the_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# comment\n1 Main St\t-95.0\tnorth\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="row 2"):
            Gazetteer.load(path)


class TestNormalizeQuery:
    def test_collapses_connectors_and_case(self):
        a = normalize_query("4055 South Braeswood Blvd, Houston, TX")
        b = normalize_query("4055  SOUTH BRAESWOOD BLVD.\nHOUSTON TX")
        assert a == b

    @settings(max_examples=500, deadline=None)
    @given(
        st.text()
        | st.lists(
            st.sampled_from(["4055", "South", "braeswood", "BLVD.", ",", ".", "TX", "Ünïcode"])
            | st.text(alphabet=" \t\n\r\f\v\x1c\x85\xa0\u2028\u3000,.", max_size=3),
        ).map("".join)
    )
    def test_matches_replace_each_separator_reference(self, query):
        assert normalize_query(query) == reference_normalize_query(query)


def reference_normalize_query(query: str) -> str:
    """The key function before it left whitespace to ``str.split``."""
    for ch in ",.\t\n\r\f":
        query = query.replace(ch, " ")
    return " ".join(query.split()).casefold()


class CountingBackend:
    def __init__(self, point=GeoPoint(-95.4, 29.7), status=GeocodeStatus.OK):
        self.calls = 0
        self.point = point
        self.status = status
        self.delay = 0.0

    def resolve(self, query):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        point = self.point if self.status is GeocodeStatus.OK else None
        return GeocodeResult(point=point, status=self.status)


class TestGeocoderCache:
    def test_second_call_comes_from_cache_with_identical_point(self):
        backend = CountingBackend()
        geocoder = Geocoder(backend)
        first = geocoder.geocode("4055 Braeswood Blvd, Houston, TX")
        second = geocoder.geocode("4055 Braeswood Blvd, Houston, TX")
        assert not first.from_cache
        assert second.from_cache
        assert second.point == first.point
        assert backend.calls == 1

    def test_not_found_is_cached(self):
        backend = CountingBackend(status=GeocodeStatus.NOT_FOUND)
        geocoder = Geocoder(backend)
        geocoder.geocode("x st")
        result = geocoder.geocode("x st")
        assert result.from_cache
        assert backend.calls == 1

    def test_errors_are_not_cached(self):
        backend = CountingBackend(status=GeocodeStatus.BACKEND_ERROR)
        geocoder = Geocoder(backend)
        geocoder.geocode("x st")
        geocoder.geocode("x st")
        assert backend.calls == 2

    def test_cache_key_is_normalized(self):
        backend = CountingBackend()
        geocoder = Geocoder(backend)
        geocoder.geocode("1 Main St, Houston, TX")
        geocoder.geocode("1  MAIN ST.\tHOUSTON, TX")
        assert backend.calls == 1

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            Geocoder(CountingBackend()).geocode("")

    def test_exactly_one_backend_call_per_distinct_query(self):
        backend = CountingBackend()
        geocoder = Geocoder(backend)
        queries = [f"{100 + i} Sample St, Houston, TX" for i in range(50)]
        for i in range(1000):
            geocoder.geocode(queries[i % 50])
        assert backend.calls == 50

    def test_concurrent_same_key_coalesces_to_one_request(self):
        backend = CountingBackend()
        backend.delay = 0.05
        geocoder = Geocoder(backend)
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(geocoder.geocode("77 Fannin St, Houston, TX"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.calls == 1
        assert len(results) == 8
        assert {r.point for r in results} == {backend.point}

    def test_every_hit_on_a_key_is_the_one_cached_result(self):
        # Callers that start during the first one's lookup find the stored
        # result after the key lock; the last lookup finds it before any lock.
        backend = CountingBackend()
        backend.delay = 0.05
        geocoder = Geocoder(backend)
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(geocoder.geocode("77 Fannin St, Houston, TX"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits = [r for r in results if r.from_cache]
        assert len(hits) == 3
        assert all(hit is hits[0] for hit in hits)
        assert geocoder.geocode("77 FANNIN ST. HOUSTON TX") is hits[0]
        assert backend.calls == 1

    def test_raising_backend_maps_to_backend_error(self):
        class Exploding:
            def resolve(self, query):
                raise RuntimeError("boom")

        result = Geocoder(Exploding()).geocode("1 Main St")
        assert result.status is GeocodeStatus.BACKEND_ERROR
        assert result.point is None

    def test_interrupted_backend_call_does_not_block_later_calls(self):
        class InterruptedOnce(CountingBackend):
            def resolve(self, query):
                if self.calls == 0:
                    self.calls += 1
                    raise KeyboardInterrupt
                return super().resolve(query)

        backend = InterruptedOnce()
        geocoder = Geocoder(backend)
        with pytest.raises(KeyboardInterrupt):
            geocoder.geocode("1 Main St")
        results = []
        second = threading.Thread(
            target=lambda: results.append(geocoder.geocode("1 Main St")), daemon=True
        )
        second.start()
        second.join(timeout=5)
        assert not second.is_alive(), "second call for the same key is still blocked"
        assert results[0].status is GeocodeStatus.OK

    def test_mixed_keys_under_thread_contention(self):
        lock = threading.Lock()

        class LockedCounting:
            calls = 0

            def resolve(self, query):
                with lock:
                    LockedCounting.calls += 1
                return GeocodeResult(
                    point=GeoPoint(-95.0, 29.0),
                    status=GeocodeStatus.OK,
                )

        geocoder = Geocoder(LockedCounting())
        keys = [f"{i} Test St, Houston, TX" for i in range(20)]
        bad = []

        def worker(seed):
            for i in range(400):
                result = geocoder.geocode(keys[(i * seed + i) % 20])
                if result.status is not GeocodeStatus.OK:
                    bad.append(result)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not bad
        assert LockedCounting.calls == 20

    def test_concurrent_caller_of_a_failed_lookup_calls_the_backend_again(self):
        class FailsFirst(CountingBackend):
            def resolve(self, query):
                first = self.calls == 0
                self.status = GeocodeStatus.RATE_LIMITED if first else GeocodeStatus.NOT_FOUND
                return super().resolve(query)

        backend = FailsFirst()
        backend.delay = 0.05
        geocoder = Geocoder(backend)
        results = []
        barrier = threading.Barrier(2)

        def worker():
            barrier.wait()
            results.append(geocoder.geocode("77 Fannin St, Houston, TX"))

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)
        # What two calls made in turn return: the second is not handed the first's error.
        assert sorted(r.status.value for r in results) == ["not_found", "rate_limited"]
        assert backend.calls == 2

    def test_cached_keys_leave_no_lock_behind(self):
        geocoder = Geocoder(CountingBackend())
        queries = [f"{100 + i} Sample St, Houston, TX" for i in range(50)]
        for i in range(1000):
            geocoder.geocode(queries[i % 50])
        assert geocoder._key_locks == {}

    def test_concurrent_lookups_call_one_key_at_a_time_and_leave_no_lock(self):
        class FailsTwice:
            def __init__(self):
                self.guard = threading.Lock()
                self.calls = collections.Counter()
                self.running = collections.Counter()
                self.overlapped = []

            def resolve(self, query):
                with self.guard:
                    self.calls[query] += 1
                    self.running[query] += 1
                    if self.running[query] > 1:
                        self.overlapped.append(query)
                    ok = self.calls[query] > 2
                time.sleep(0)  # let another caller of this key in, if the lock allows it
                with self.guard:
                    self.running[query] -= 1
                if ok:
                    return GeocodeResult(GeoPoint(-95.0, 29.0), GeocodeStatus.OK)
                return GeocodeResult(None, GeocodeStatus.RATE_LIMITED)

        keys = [f"{i} Test St, Houston, TX" for i in range(20)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                backend = FailsTwice()
                geocoder = Geocoder(backend)

                def worker(seed):
                    for i in range(200):
                        geocoder.geocode(keys[(i * seed + i) % 20])

                threads = [threading.Thread(target=worker, args=(s,)) for s in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert backend.overlapped == []
                assert backend.calls == {key: 3 for key in keys}
                assert geocoder._key_locks == {}
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["gazetteer_miss", "http_429", "cache_hit"])
def test_a_shared_answer_cannot_change(gazetteer, kind):
    query = "1 Nowhere Pl"
    if kind == "gazetteer_miss":
        lookup, status = gazetteer.resolve, GeocodeStatus.NOT_FOUND
    elif kind == "http_429":
        backend = HttpBackend(
            "https://geo.example/api?address={query}", fetch=lambda url, timeout: (429, "")
        )
        lookup, status = backend.resolve, GeocodeStatus.RATE_LIMITED
    else:
        query = "4055 South Braeswood Blvd, Houston, TX"
        lookup, status = Geocoder(gazetteer).geocode, GeocodeStatus.OK
        assert not lookup(query).from_cache
    answer = lookup(query)
    with pytest.raises(FrozenInstanceError):
        answer.status = GeocodeStatus.BACKEND_ERROR
    again = lookup(query)
    assert (answer.status, again.status) == (status, status)
    assert again.from_cache == (kind == "cache_hit")


# --- reference: the geocoder with an in-flight table, which concurrent callers
# of one key waited on and whose result, error or not, they were all handed ---

_REF_CACHED_STATUSES = (GeocodeStatus.OK, GeocodeStatus.NOT_FOUND)


def _reference_coalesced(result: GeocodeResult) -> GeocodeResult:
    return replace(result, from_cache=result.status in _REF_CACHED_STATUSES)


class _ReferenceInflight:
    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[GeocodeResult] = None


class ReferenceGeocoder:
    def __init__(self, backend):
        self._backend = backend
        self._cache: dict[str, GeocodeResult] = {}
        self._inflight: dict[str, _ReferenceInflight] = {}
        self._lock = threading.Lock()

    def geocode(self, query: str) -> GeocodeResult:
        if not query:
            raise ValueError("empty geocode query")
        key = reference_normalize_query(query)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    return _reference_coalesced(cached)
                entry = self._inflight.get(key)
                if entry is None:
                    entry = _ReferenceInflight()
                    self._inflight[key] = entry
                    break
            entry.event.wait()
            if entry.result is not None:
                return _reference_coalesced(entry.result)

        result = None
        try:
            result = replace(self._backend.resolve(query), from_cache=False)
        except Exception:
            result = GeocodeResult(point=None, status=GeocodeStatus.BACKEND_ERROR)
        finally:
            with self._lock:
                if result is not None and result.status in _REF_CACHED_STATUSES:
                    self._cache[key] = result
                entry.result = result
                del self._inflight[key]
            entry.event.set()
        return result


SCRIPTED_POINT = GeoPoint(-95.4, 29.7)


class ScriptedBackend:
    """Answers its n-th call with ``script[n]`` (``ok`` once the script runs out)."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def resolve(self, query):
        outcome = self.script[len(self.calls)] if len(self.calls) < len(self.script) else "ok"
        self.calls.append(query)
        if outcome == "raise":
            raise RuntimeError("scripted failure")
        if outcome == "interrupt":
            raise KeyboardInterrupt
        status = GeocodeStatus(outcome)
        point = SCRIPTED_POINT if status is GeocodeStatus.OK else None
        return GeocodeResult(point=point, status=status, from_cache=True)


def _outcomes(geocoder, queries):
    outcomes = []
    for query in queries:
        try:
            outcomes.append(geocoder.geocode(query))
        except (KeyboardInterrupt, ValueError) as exc:
            outcomes.append(type(exc))
    return outcomes


@settings(max_examples=300, deadline=None)
@given(
    queries=st.lists(
        st.sampled_from(
            ["1 Main St", "1 MAIN ST.", "1  main st,", "2 Oak Ln, Houston", "2 oak ln houston"]
            + ["", " ."]
        ),
        max_size=30,
    ),
    script=st.lists(
        st.sampled_from(
            ["ok", "not_found", "backend_error", "rate_limited", "raise", "interrupt"]
        ),
        max_size=30,
    ),
)
def test_geocoder_matches_in_flight_table_reference_in_turn(queries, script):
    backend, reference_backend = ScriptedBackend(script), ScriptedBackend(script)
    assert _outcomes(Geocoder(backend), queries) == _outcomes(
        ReferenceGeocoder(reference_backend), queries
    )
    assert backend.calls == reference_backend.calls


OK_BODY = json.dumps(
    {
        "status": "OK",
        "results": [
            {
                "geometry": {
                    "location": {"lat": 29.6911, "lng": -95.4415},
                    "location_type": "ROOFTOP",
                }
            }
        ],
    }
)
EMPTY_BODY = json.dumps({"status": "ZERO_RESULTS", "results": []})


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.slept = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.slept += seconds
        self.now += seconds


class TestHttpBackend:
    def backend(self, responses, **kwargs):
        calls = []

        def fetch(url, timeout):
            calls.append(url)
            item = responses[min(len(calls) - 1, len(responses) - 1)]
            if isinstance(item, Exception):
                raise item
            return item

        backend = HttpBackend(
            "https://geo.example/api?address={query}&key={key}",
            api_key="secret",
            fetch=fetch,
            **kwargs,
        )
        return backend, calls

    def test_ok_response_parses_first_candidate(self):
        backend, calls = self.backend([(200, OK_BODY)])
        result = backend.resolve("4055 South Braeswood Blvd, Houston, TX")
        assert result.status is GeocodeStatus.OK
        assert result.point == GeoPoint(-95.4415, 29.6911)
        assert "address=4055%20South" in calls[0]
        assert "key=secret" in calls[0]

    def test_empty_candidates_is_not_found(self):
        backend, _ = self.backend([(200, EMPTY_BODY)])
        assert backend.resolve("1 Nowhere Pl").status is GeocodeStatus.NOT_FOUND

    def test_timeout_is_backend_error(self):
        backend, _ = self.backend([TimeoutError("simulated timeout")])
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR

    def test_malformed_body_is_backend_error(self):
        backend, _ = self.backend([(200, "<html>oops</html>")])
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR

    @pytest.mark.parametrize(
        "body",
        [
            "[]",
            "1",
            '"x"',
            "null",
            json.dumps({"status": "OK", "results": {"geometry": {}}}),
            json.dumps({"status": "OK", "results": ["x"]}),
            json.dumps({"status": "OK", "results": [{"geometry": {"location": [1, 2]}}]}),
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 29.7, "lng": 1e400}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 29.7, "lng": %s}}}]}'
            % ("9" * 400),
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": true, "lng": -95.4}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 29.7, "lng": false}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 29.7, "lng": -1e400}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": NaN, "lng": -95.4}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 90.5, "lng": -95.4}}}]}',
            '{"status": "OK", "results": [{"geometry": {"location": {"lat": 29.7, "lng": -180.5}}}]}',
            "[" * 100_000 + "]" * 100_000,
            OK_BODY.encode(),  # an injected fetch must return a str body
            None,
        ],
        ids=[
            "array", "number", "string", "null", "results_object", "result_string",
            "location_array", "coordinate_1e400", "coordinate_400_digits", "lat_true",
            "lng_false", "coordinate_minus_1e400", "lat_nan", "lat_90_5", "lng_minus_180_5",
            "deep_nesting", "bytes", "none",
        ],
    )
    def test_body_of_the_wrong_shape_is_backend_error(self, body):
        backend, _ = self.backend([(200, body)])
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR

    def test_http_429_is_rate_limited(self):
        backend, _ = self.backend([(429, "")])
        assert backend.resolve("1 Main St").status is GeocodeStatus.RATE_LIMITED

    def test_quota_status_is_rate_limited(self):
        body = json.dumps({"status": "OVER_QUERY_LIMIT", "results": []})
        backend, _ = self.backend([(200, body)])
        assert backend.resolve("1 Main St").status is GeocodeStatus.RATE_LIMITED

    def test_server_error_status(self):
        backend, _ = self.backend([(500, json.dumps({"status": "UNKNOWN_ERROR"}))])
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR

    @pytest.mark.parametrize(
        "answer",
        [
            (503, '{"error_message": "Service unavailable"}'),
            (500, '{"status": "ZERO_RESULTS", "results": []}'),
            (404, "{}"),
            (200, '{"status": "REQUEST_DENIED", "results": []}'),
        ],
        ids=["503_no_status", "500_zero_results", "404_empty_object", "200_request_denied"],
    )
    def test_http_error_answer_is_a_backend_error_and_not_cached(self, answer):
        # Read as not_found, such an answer would be cached for the life of the process.
        backend, calls = self.backend([answer])
        geocoder = Geocoder(backend)
        for n in (1, 2):
            assert geocoder.geocode("1 Main St") == GeocodeResult(None, GeocodeStatus.BACKEND_ERROR)
            assert len(calls) == n

    def test_minimum_interval_enforced_with_virtual_clock(self):
        clock = FakeClock()
        backend, calls = self.backend(
            [(200, OK_BODY)], min_interval=0.5, clock=clock, sleep=clock.sleep
        )
        n = 6
        for i in range(n):
            backend.resolve(f"{i} Main St")
        assert len(calls) == n
        # n cold queries must span at least (n - 1) * interval of clock time.
        assert clock.now >= (n - 1) * 0.5

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1, "1", True])
    def test_bad_minimum_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="min_interval"):
            self.backend([(200, OK_BODY)], min_interval=bad)

    def test_no_pacing_when_interval_is_zero(self):
        clock = FakeClock()
        backend, _ = self.backend([(200, OK_BODY)], clock=clock, sleep=clock.sleep)
        for i in range(5):
            backend.resolve(f"{i} Main St")
        assert clock.slept == 0

    def test_every_request_waits_at_most_the_fixed_timeout(self):
        timeouts = []

        def fetch(url, timeout):
            timeouts.append(timeout)
            return (200, OK_BODY)

        backend = HttpBackend("https://geo.example/api?address={query}", fetch=fetch)
        backend.resolve("1 Main St")
        assert timeouts == [geocode.HTTP_TIMEOUT_S] == [10.0]
        with pytest.raises(TypeError):
            HttpBackend("https://geo.example/api?address={query}", fetch=fetch, timeout=1.0)

    def test_api_key_read_from_environment(self, monkeypatch):
        from rescuemap.geocode import API_KEY_ENV_VAR

        monkeypatch.setenv(API_KEY_ENV_VAR, "from-env")
        calls = []

        def fetch(url, timeout):
            calls.append(url)
            return (200, OK_BODY)

        backend = HttpBackend("https://geo.example/api?q={query}&key={key}", fetch=fetch)
        backend.resolve("1 Main St")
        assert "key=from-env" in calls[0]

    @pytest.mark.parametrize("from_env", [False, True], ids=["argument", "environment"])
    def test_key_that_is_not_utf8_is_named(self, monkeypatch, from_env):
        from rescuemap.geocode import API_KEY_ENV_VAR

        # os.environ reads a byte that is not UTF-8 as a lone surrogate.
        monkeypatch.setenv(API_KEY_ENV_VAR, "ab\udcff")
        name = API_KEY_ENV_VAR if from_env else "api_key"
        with pytest.raises(ValueError, match=f"^{name} is not valid UTF-8$"):
            HttpBackend(
                "https://geo.example/api?q={query}&key={key}",
                api_key=None if from_env else "\udcff",
                fetch=lambda url, timeout: (200, OK_BODY),
            )

    @pytest.mark.parametrize(
        "template, message",
        [
            ("https://geo.example/api?address={adress}&key={key}", "may name only"),
            ("https://geo.example/api?address={query}&key={key", "may name only"),
            ("https://geo.example/api?address={query}}", "may name only"),
            ("https://geo.example/api?address={0}&key={key}", "may name only"),
            ("https://geo.example/api?address={}", "may name only"),
            ("https://geo.example/api?address={query.lower}", "may name only"),
            ("https://geo.example/api?address={query!x}", "may name only"),
            ("https://geo.example/api?address={query:d}", "may name only"),
            ("https://geo.example/api?address={query!r}", "may name only"),
            ("https://geo.example/api?address={query:>20}", "may name only"),
            ("https://geo.example/api?address={query}&key={key!a}", "may name only"),
            ("https://geo.example/api?key={key}", "may name only"),
            ("https://geo.example/{{v1}}/api?address={query}", "may name only"),
            ("https://geo.example/api?address={key{query}}", "may name only"),
            ("ht\ttp://geo.example/api?address={query}", "space, control or non-ASCII character"),
            ("ht\ntp://geo.example/api?address={query}", "space, control or non-ASCII character"),
            ("ht\rtp://geo.example/api?address={query}", "space, control or non-ASCII character"),
            ("ht tp://geo.example/api?address={query}", "space, control or non-ASCII character"),
            ("https://geo.example/api?address={query}&\tkey={key}", "space, control or non-ASCII character"),
            ("https://geo.example/api?address={query}\n", "space, control or non-ASCII character"),
            ("https://geo.example/api\r?address={query}", "space, control or non-ASCII character"),
            ("https://geo.example/api?address= {query}", "space, control or non-ASCII character"),
            ("https://geo.example/caf\u00e9/api?address={query}", "space, control or non-ASCII character"),
            ("https://g\u00e9o.example/api?address={query}", "space, control or non-ASCII character"),
            ("https://geo.example/api?address=\u00a0{query}", "space, control or non-ASCII character"),
            ("https://geo.example/api?address={query}\x85", "space, control or non-ASCII character"),
        ],
        ids=[
            "misspelled_field", "unbalanced_open", "unbalanced_close", "positional_index",
            "positional_empty", "attribute", "bad_conversion", "bad_format_spec",
            "repr_conversion", "padding_format_spec", "ascii_conversion_on_key", "no_query",
            "escaped_braces", "key_around_query", "tab_in_scheme", "newline_in_scheme",
            "return_in_scheme", "space_in_scheme", "tab_in_query_string", "newline_at_end",
            "return_in_path", "space_before_query", "non_ascii_path", "non_ascii_host",
            "no_break_space", "c1_control",
        ],
    )
    def test_bad_url_template_rejected_at_construction(self, template, message):
        with pytest.raises(ValueError, match="^url ") as exc_info:
            HttpBackend(template, api_key="secret", fetch=lambda url, timeout: (200, OK_BODY))
        assert exc_info.match(message)


# An OK body with a Latin-1 "í": read as UTF-8 with replacement it would be `ok`.
LATIN1_OK_BODY = (OK_BODY[:-1] + ', "note": "Garc\u00eda"}').encode("latin-1")


class TestDefaultFetch:
    """`HttpBackend` with no injected fetch, against a server on 127.0.0.1."""

    ROUTES = {
        "/ok": (200, {"Content-Type": "application/json"}, OK_BODY.encode()),
        "/moved": (302, {"Location": "/ok?address=moved"}, b""),
        "/busy": (429, {}, b"slow down \xff"),
        "/broken": (500, {}, json.dumps({"status": "UNKNOWN_ERROR"}).encode()),
        "/latin1": (200, {}, LATIN1_OK_BODY),
        "/slow": (200, {}, OK_BODY.encode()),
    }

    def serve(self, loopback):
        paths = []

        def answer(path):
            paths.append(path)
            route = urllib.parse.urlsplit(path).path
            if route == "/slow":
                time.sleep(1.0)
            return self.ROUTES[route]

        return loopback(answer), paths

    @pytest.mark.parametrize(
        "route, status",
        [
            ("/ok", GeocodeStatus.OK),
            ("/moved", GeocodeStatus.OK),
            ("/busy", GeocodeStatus.RATE_LIMITED),
            ("/broken", GeocodeStatus.BACKEND_ERROR),
            ("/latin1", GeocodeStatus.BACKEND_ERROR),
        ],
        ids=["ok", "redirect", "429_non_utf8_body", "500", "non_utf8_200_body"],
    )
    def test_status_of_each_answer(self, loopback, route, status):
        base, paths = self.serve(loopback)
        result = HttpBackend(base + route + "?address={query}").resolve("1 Main St")
        assert result.status is status
        assert paths[0] == route + "?address=1%20Main%20St"
        if status is GeocodeStatus.OK:
            assert result.point == GeoPoint(-95.4415, 29.6911)

    def test_server_slower_than_the_timeout_is_backend_error(self, loopback, monkeypatch):
        base, paths = self.serve(loopback)
        monkeypatch.setattr(geocode, "HTTP_TIMEOUT_S", 0.3)
        started = time.monotonic()
        result = HttpBackend(base + "/slow?address={query}").resolve("1 Main St")
        assert result.status is GeocodeStatus.BACKEND_ERROR
        assert time.monotonic() - started < 0.9
        assert paths == ["/slow?address=1%20Main%20St"]

    def test_closed_port_is_backend_error(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = HttpBackend(f"http://127.0.0.1:{port}/json?address={{query}}")
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR

    def test_redirect_to_another_scheme_is_not_followed(self, loopback, monkeypatch):
        # urlopen would follow a 302 to ftp:, and an FTP answer holding
        # ZERO_RESULTS would be cached as not_found.
        monkeypatch.setattr(geocode, "HTTP_TIMEOUT_S", 1.0)
        with socket.socket() as ftp:
            ftp.bind(("127.0.0.1", 0))
            ftp.listen()
            target = f"ftp://127.0.0.1:{ftp.getsockname()[1]}/answer.json"
            base = loopback(lambda path: (302, {"Location": target}, b""))
            result = HttpBackend(base + "/moved?address={query}").resolve("1 Main St")
            assert result.status is GeocodeStatus.BACKEND_ERROR
            ftp.setblocking(False)
            with pytest.raises(BlockingIOError):
                ftp.accept()[0].close()  # the listener saw no connection

    @pytest.mark.parametrize(
        "template",
        [
            "file:///answer.json#{query}",
            "ftp://geo.example/answer.json?{query}",
            "data:application/json,{query}",
            "htps://geo.example/api?address={query}",
            "geo.example/api?address={query}",
            "{query}://geo.example/",
            "http://[{query}]/",
        ],
        ids=["file", "ftp", "data", "htps", "no_scheme", "field_as_scheme", "bad_bracketed_host"],
    )
    def test_other_schemes_are_not_read(self, template):
        # Refused at construction: urlopen would read a file: URL, and its
        # ZERO_RESULTS would be cached.
        with pytest.raises(ValueError, match=r"^url is not an http\(s\) URL: "):
            HttpBackend(template)
