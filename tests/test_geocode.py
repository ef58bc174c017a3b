from __future__ import annotations

import json
import threading
import time

import pytest

from rescuemap import (
    Gazetteer,
    GazetteerError,
    GeocodeResult,
    GeocodeStatus,
    Geocoder,
    GeoPoint,
    HttpBackend,
    Precision,
    normalize_query,
)

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
            GeocodeResult(query="q", point=None, status=GeocodeStatus.OK)
        with pytest.raises(ValueError):
            GeocodeResult(
                query="q", point=GeoPoint(0, 0), status=GeocodeStatus.NOT_FOUND
            )


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

    def test_duplicate_key_is_an_error(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text(
            "1 Main St\t-95.0\t29.0\n1 MAIN ST.\t-95.1\t29.1\n", encoding="utf-8"
        )
        with pytest.raises(GazetteerError, match="duplicate"):
            Gazetteer.load(path)

    def test_malformed_row_names_the_row(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1 Main St\t-95.0\n", encoding="utf-8")
        with pytest.raises(GazetteerError, match="row 1"):
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


class CountingBackend:
    def __init__(self, point=GeoPoint(-95.4, 29.7, Precision.ROOFTOP), status=GeocodeStatus.OK):
        self.calls = 0
        self.point = point
        self.status = status
        self.delay = 0.0

    def resolve(self, query):
        self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        point = self.point if self.status is GeocodeStatus.OK else None
        return GeocodeResult(query=query, point=point, status=self.status)


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

    @pytest.mark.parametrize(
        "status, cached",
        [
            (GeocodeStatus.OK, True),
            (GeocodeStatus.NOT_FOUND, True),
            (GeocodeStatus.RATE_LIMITED, False),
        ],
    )
    def test_cached_answers_what_geocode_would_from_the_cache(self, status, cached):
        backend = CountingBackend(status=status)
        geocoder = Geocoder(backend)
        assert geocoder.cached("1 Main St, Houston, TX") is None
        geocoder.geocode("1 Main St, Houston, TX")
        hit = geocoder.cached("1  MAIN ST.\tHOUSTON, TX")
        assert backend.calls == 1
        if cached:
            assert hit == geocoder.geocode("1  MAIN ST.\tHOUSTON, TX")
            assert hit.from_cache and hit.query == "1  MAIN ST.\tHOUSTON, TX"
        else:
            assert hit is None

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
                    query=query,
                    point=GeoPoint(-95.0, 29.0, Precision.ROOFTOP),
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
        assert result.point == GeoPoint(-95.4415, 29.6911, Precision.ROOFTOP)
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
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=[
            "array", "number", "string", "null", "results_object", "result_string",
            "location_array", "coordinate_1e400", "coordinate_400_digits", "deep_nesting",
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

    @pytest.mark.parametrize(
        "template, message",
        [
            ("https://geo.example/api?address={adress}&key={key}", "may name only"),
            ("https://geo.example/api?address={query}&key={key", "does not parse"),
            ("https://geo.example/api?address={query}}", "does not parse"),
            ("https://geo.example/api?address={0}&key={key}", "may name only"),
            ("https://geo.example/api?address={}", "may name only"),
            ("https://geo.example/api?address={query.lower}", "may name only"),
            ("https://geo.example/api?address={query!x}", "does not parse"),
            ("https://geo.example/api?address={query:d}", "does not parse"),
            ("https://geo.example/api?key={key}", "may name only"),
        ],
        ids=[
            "misspelled_field", "unbalanced_open", "unbalanced_close", "positional_index",
            "positional_empty", "attribute", "bad_conversion", "bad_format_spec", "no_query",
        ],
    )
    def test_bad_url_template_rejected_at_construction(self, template, message):
        with pytest.raises(ValueError, match="^url ") as exc_info:
            HttpBackend(template, api_key="secret", fetch=lambda url, timeout: (200, OK_BODY))
        assert exc_info.match(message)

    def test_literal_braces_in_url_template(self):
        calls = []

        def fetch(url, timeout):
            calls.append(url)
            return (200, OK_BODY)

        backend = HttpBackend(
            "https://geo.example/{{v1}}/api?address={query}&key={key}", api_key="secret", fetch=fetch
        )
        assert backend.resolve("1 Main St").status is GeocodeStatus.OK
        assert calls == ["https://geo.example/{v1}/api?address=1%20Main%20St&key=secret"]
