"""Geocoding: pluggable backends, a coalescing cache, and an offline gazetteer.

The cache stores ``ok`` and ``not_found`` results for the lifetime of the
process; transient failures (``backend_error``, ``rate_limited``) are never
cached. Concurrent lookups for the same normalized key coalesce into a
single backend request.
"""
from __future__ import annotations

import json
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Protocol

API_KEY_ENV_VAR = "RESCUEMAP_GEOCODER_KEY"


class Precision(Enum):
    ROOFTOP = "rooftop"
    STREET = "street"
    LOCALITY = "locality"
    UNKNOWN = "unknown"


class GeocodeStatus(Enum):
    OK = "ok"
    NOT_FOUND = "not_found"
    BACKEND_ERROR = "backend_error"
    RATE_LIMITED = "rate_limited"


@dataclass(frozen=True)
class GeoPoint:
    longitude: float
    latitude: float
    precision: Precision = Precision.UNKNOWN

    def __post_init__(self) -> None:
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")


@dataclass(frozen=True)
class GeocodeResult:
    query: str
    point: Optional[GeoPoint]
    status: GeocodeStatus
    from_cache: bool = False

    def __post_init__(self) -> None:
        if (self.point is not None) != (self.status is GeocodeStatus.OK):
            raise ValueError("point must be present exactly when status is ok")


class Backend(Protocol):
    def resolve(self, query: str) -> GeocodeResult: ...


def normalize_query(query: str) -> str:
    """Case-folded, connector-collapsed form used as cache/gazetteer key."""
    for ch in ",.\t\n\r\f":
        query = query.replace(ch, " ")
    return " ".join(query.split()).casefold()


class GazetteerError(ValueError):
    """Raised when a gazetteer file cannot be loaded."""


class Gazetteer:
    """Offline address -> coordinates table, used in place of a live service.

    File format: tab-separated rows of ``address<TAB>longitude<TAB>latitude``;
    ``#`` comment lines and blank lines are ignored. Keys are normalized, so
    lookups tolerate case and connector differences.
    """

    def __init__(self, table: dict[str, GeoPoint]):
        self._table = dict(table)

    def __len__(self) -> int:
        return len(self._table)

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        table: dict[str, GeoPoint] = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise GazetteerError(f"{path}: not valid UTF-8") from None
        for i, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            cols = stripped.split("\t")
            if len(cols) != 3:
                raise GazetteerError(f"{path}: row {i}: expected 3 tab-separated columns")
            address, lon_text, lat_text = cols
            try:
                point = GeoPoint(float(lon_text), float(lat_text), Precision.ROOFTOP)
            except ValueError as exc:
                raise GazetteerError(f"{path}: row {i}: {exc}") from None
            key = normalize_query(address)
            if key in table:
                raise GazetteerError(f"{path}: row {i}: duplicate address {address!r}")
            table[key] = point
        return cls(table)

    def resolve(self, query: str) -> GeocodeResult:
        point = self._table.get(normalize_query(query))
        if point is None:
            return GeocodeResult(query=query, point=None, status=GeocodeStatus.NOT_FOUND)
        return GeocodeResult(query=query, point=point, status=GeocodeStatus.OK)


_PRECISION_BY_LOCATION_TYPE = {
    "ROOFTOP": Precision.ROOFTOP,
    "RANGE_INTERPOLATED": Precision.STREET,
    "GEOMETRIC_CENTER": Precision.STREET,
    "APPROXIMATE": Precision.LOCALITY,
}


def _default_fetch(url: str, timeout: float) -> tuple[int, str]:
    import requests

    response = requests.get(url, timeout=timeout)
    return response.status_code, response.text


class HttpBackend:
    """Client for an HTTPS geocoding endpoint with a minimum request spacing.

    ``url_template`` must contain ``{query}``, may contain ``{key}`` and no
    other field; the key is read from the environment (never from the
    command line). The response is expected in the common maps-API shape: a
    ``status`` string plus a ``results`` list whose first entry carries
    ``geometry.location.{lat,lng}`` and ``geometry.location_type``.
    """

    def __init__(
        self,
        url_template: str,
        *,
        api_key: Optional[str] = None,
        min_interval: float = 0.0,
        timeout: float = 10.0,
        fetch: Optional[Callable[[str, float], tuple[int, str]]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if (
            isinstance(min_interval, bool)
            or not isinstance(min_interval, (int, float))
            or not 0 <= min_interval < math.inf
        ):
            raise ValueError(f"min_interval must be a finite number >= 0, got {min_interval!r}")
        import string  # only here: `import rescuemap` stays lean without it
        try:
            fields = {name for _, name, _, _ in string.Formatter().parse(url_template)} - {None}
            if fields <= {"query", "key"}:  # a bad conversion or format spec fails here
                url_template.format(query="", key="")
        except ValueError as exc:
            raise ValueError(f"url does not parse as a template: {exc}") from None
        if not {"query"} <= fields <= {"query", "key"}:
            raise ValueError(f"url may name only {{query}} (required) and {{key}}: {url_template}")
        self._url_template = url_template
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV_VAR, "")
        self._min_interval = min_interval
        self._timeout = timeout
        self._fetch = fetch or _default_fetch
        self._clock = clock
        self._sleep = sleep
        self._last_request: Optional[float] = None
        self._pace_lock = threading.Lock()

    def _build_url(self, query: str) -> str:
        return self._url_template.format(
            query=urllib.parse.quote(query), key=urllib.parse.quote(self._api_key)
        )

    def _pace(self) -> None:
        with self._pace_lock:
            if self._last_request is not None and self._min_interval > 0:
                wait = self._last_request + self._min_interval - self._clock()
                if wait > 0:
                    self._sleep(wait)
            self._last_request = self._clock()

    def resolve(self, query: str) -> GeocodeResult:
        self._pace()
        try:
            status_code, body = self._fetch(self._build_url(query), self._timeout)
        except Exception:
            return GeocodeResult(query=query, point=None, status=GeocodeStatus.BACKEND_ERROR)
        if status_code == 429:
            return GeocodeResult(query=query, point=None, status=GeocodeStatus.RATE_LIMITED)
        try:
            payload = json.loads(body)
            api_status = payload.get("status", "OK")
            if api_status in ("OVER_QUERY_LIMIT", "OVER_DAILY_LIMIT", "RESOURCE_EXHAUSTED"):
                return GeocodeResult(query=query, point=None, status=GeocodeStatus.RATE_LIMITED)
            results = payload.get("results", [])
            if api_status == "ZERO_RESULTS" or (api_status == "OK" and not results):
                return GeocodeResult(query=query, point=None, status=GeocodeStatus.NOT_FOUND)
            if status_code != 200 or api_status != "OK":
                return GeocodeResult(query=query, point=None, status=GeocodeStatus.BACKEND_ERROR)
            location = results[0]["geometry"]["location"]
            precision = _PRECISION_BY_LOCATION_TYPE.get(
                results[0]["geometry"].get("location_type", ""), Precision.UNKNOWN
            )
            point = GeoPoint(float(location["lng"]), float(location["lat"]), precision)
        # AttributeError: a body that is JSON but not an object; OverflowError: a
        # coordinate integer too large for a float; RecursionError: deep nesting.
        except (
            AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError
        ):
            return GeocodeResult(query=query, point=None, status=GeocodeStatus.BACKEND_ERROR)
        return GeocodeResult(query=query, point=point, status=GeocodeStatus.OK)


_CACHED_STATUSES = (GeocodeStatus.OK, GeocodeStatus.NOT_FOUND)


def coalesced(result: GeocodeResult, query: str) -> GeocodeResult:
    """What a lookup of ``query`` returns when it waited on another lookup's ``result``.

    ``ok`` and ``not_found`` count as cache hits; an error is passed on uncached.
    """
    return replace(result, query=query, from_cache=result.status in _CACHED_STATUSES)


class _Inflight:
    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[GeocodeResult] = None


class Geocoder:
    """Caching front-end over a backend.

    ``ok``/``not_found`` results are cached for the process lifetime, so a
    backend sees at most one request per distinct normalized query. Errors
    pass through uncached and will be retried by later calls.
    """

    def __init__(self, backend: Backend):
        self._backend = backend
        self._cache: dict[str, GeocodeResult] = {}
        self._inflight: dict[str, _Inflight] = {}
        self._lock = threading.Lock()

    def cached(self, query: str) -> Optional[GeocodeResult]:
        """The result :meth:`geocode` would return from the cache, or None on a miss."""
        key = normalize_query(query)
        with self._lock:
            hit = self._cache.get(key)
        return None if hit is None else coalesced(hit, query)

    def geocode(self, query: str) -> GeocodeResult:
        if not query:
            raise ValueError("empty geocode query")
        key = normalize_query(query)
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    return coalesced(cached, query)
                entry = self._inflight.get(key)
                if entry is None:
                    entry = _Inflight()
                    self._inflight[key] = entry
                    break
            entry.event.wait()
            if entry.result is not None:
                return coalesced(entry.result, query)

        result = None
        try:
            result = replace(self._backend.resolve(query), from_cache=False)
        except Exception:
            result = GeocodeResult(query=query, point=None, status=GeocodeStatus.BACKEND_ERROR)
        finally:
            # Also on KeyboardInterrupt and the like: waiters then find no
            # result and retry, instead of blocking on this key forever.
            with self._lock:
                if result is not None and result.status in _CACHED_STATUSES:
                    self._cache[key] = result
                entry.result = result
                del self._inflight[key]
            entry.event.set()
        return result
