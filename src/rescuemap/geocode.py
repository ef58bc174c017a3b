"""Geocoding: pluggable backends, a caching front-end, and an offline gazetteer.

A result is the answer alone: ``point``, ``status`` and ``from_cache``; the
question stays with the caller. Results are immutable values, so one object
serves every caller that gets the same answer: each failure status has one
shared result, a gazetteer builds each row's result once at load, and every
cache hit on a key returns the one result cached for it. Points and results
are slotted, so each one kept costs no per-instance dict.

The cache stores ``ok`` and ``not_found`` results for the lifetime of the
process; transient failures (``backend_error``, ``rate_limited``) are never
cached. Lookups of one normalized key run one at a time behind a per-key
lock, so concurrent callers get what calls made in turn would get.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Protocol

from .ingest import _decode_json
from .lexicons import data_lines

API_KEY_ENV_VAR = "RESCUEMAP_GEOCODER_KEY"
# Seconds an HttpBackend request may wait to connect, and then for each read.
HTTP_TIMEOUT_S = 10.0


class GeocodeStatus(Enum):
    OK = "ok"
    NOT_FOUND = "not_found"
    BACKEND_ERROR = "backend_error"
    RATE_LIMITED = "rate_limited"


def _check_coordinates(longitude: float, latitude: float) -> None:
    """Raise ValueError unless both coordinates are in range (NaN never is)."""
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude out of range: {longitude}")
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude out of range: {latitude}")


@dataclass(frozen=True, slots=True)
class GeoPoint:
    longitude: float
    latitude: float

    def __post_init__(self) -> None:
        _check_coordinates(self.longitude, self.latitude)


@dataclass(frozen=True, slots=True)
class GeocodeResult:
    point: Optional[GeoPoint]
    status: GeocodeStatus
    from_cache: bool = False

    def __post_init__(self) -> None:
        if (self.point is not None) != (self.status is GeocodeStatus.OK):
            raise ValueError("point must be present exactly when status is ok")


# HttpBackend.resolve and Geocoder.geocode fill each new point and result
# through their slots' member descriptors: the same stores the generated
# __init__ makes through object.__setattr__, at about half the cost.
_set_longitude, _set_latitude = (vars(GeoPoint)[field].__set__ for field in GeoPoint.__match_args__)
_set_point, _set_status, _set_from_cache = (
    vars(GeocodeResult)[field].__set__ for field in GeocodeResult.__match_args__
)


def _new_ok_result(longitude: float, latitude: float) -> GeocodeResult:
    """``GeocodeResult(GeoPoint(longitude, latitude), GeocodeStatus.OK)``."""
    _check_coordinates(longitude, latitude)
    point = object.__new__(GeoPoint)
    _set_longitude(point, longitude)
    _set_latitude(point, latitude)
    result = object.__new__(GeocodeResult)
    _set_point(result, point)
    _set_status(result, GeocodeStatus.OK)
    _set_from_cache(result, False)
    return result


def _cached_copy(result: GeocodeResult) -> GeocodeResult:
    """``GeocodeResult(result.point, result.status, True)``: the checks in
    ``__post_init__`` already held for ``result``."""
    copy = object.__new__(GeocodeResult)
    _set_point(copy, result.point)
    _set_status(copy, result.status)
    _set_from_cache(copy, True)
    return copy


_NOT_FOUND = GeocodeResult(None, GeocodeStatus.NOT_FOUND)
_RATE_LIMITED = GeocodeResult(None, GeocodeStatus.RATE_LIMITED)
_BACKEND_ERROR = GeocodeResult(None, GeocodeStatus.BACKEND_ERROR)


class Backend(Protocol):
    def resolve(self, query: str) -> GeocodeResult: ...


def normalize_query(query: str) -> str:
    """Case-folded, connector-collapsed form used as cache/gazetteer key."""
    return " ".join(query.replace(",", " ").replace(".", " ").split()).casefold()


class GazetteerError(ValueError):
    """Raised when a gazetteer file cannot be loaded, or two of its addresses normalize alike."""


class Gazetteer:
    """Offline address -> coordinates table, used in place of a live service.

    File format: tab-separated rows of ``address<TAB>longitude<TAB>latitude``;
    ``#`` comment lines and blank lines are ignored. Keys are normalized, so
    lookups tolerate case and connector differences; two addresses that
    normalize to the same key raise :class:`GazetteerError`.
    """

    def __init__(self, table: dict[str, GeoPoint]):
        self._table: dict[str, GeocodeResult] = {}
        for address, point in table.items():
            key = normalize_query(address)
            if key in self._table:
                raise GazetteerError(f"duplicate address {address!r}")
            self._table[key] = GeocodeResult(point, GeocodeStatus.OK)

    def __len__(self) -> int:
        return len(self._table)

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        table: dict[str, GeoPoint] = {}
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            raise GazetteerError(f"{path}: not valid UTF-8") from None
        for i, line in data_lines(text):
            cols = line.split("\t")
            if len(cols) != 3:
                raise GazetteerError(f"{path}: row {i}: expected 3 tab-separated columns")
            address, lon_text, lat_text = cols
            try:
                point = GeoPoint(float(lon_text), float(lat_text))
            except ValueError as exc:
                raise GazetteerError(f"{path}: row {i}: {exc}") from None
            key = normalize_query(address)
            if key in table:
                raise GazetteerError(f"{path}: row {i}: duplicate address {address!r}")
            table[key] = point
        return cls(table)

    def resolve(self, query: str) -> GeocodeResult:
        return self._table.get(normalize_query(query), _NOT_FOUND)


# What urllib.parse.quote writes for each UTF-8 byte under its default safe="/":
# ASCII letters, digits, "_.-~" and "/" stay, every other byte becomes %XX.
_UNQUOTED_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~/"
_QUOTED_BYTE = [chr(byte) if byte in _UNQUOTED_BYTES else f"%{byte:02X}" for byte in range(256)]


def _quote(text: str) -> str:
    """``urllib.parse.quote(text)``, through one table over the text's UTF-8
    bytes (each read as the Latin-1 character of the same number). A lone
    surrogate raises UnicodeEncodeError, as it does in ``quote``."""
    return text.encode("utf-8").decode("latin-1").translate(_QUOTED_BYTE)


def _is_http(url: str) -> bool:
    try:
        return urllib.parse.urlsplit(url).scheme in ("http", "https")
    except ValueError:  # a bracketed host that is not an IP address
        return False


@functools.cache
def _opener():
    """``urlopen``'s opener, but one that follows redirects to http(s) only."""
    # Imported here: `import rescuemap` stays lean without them.
    from urllib.request import HTTPRedirectHandler, build_opener

    class HttpRedirectHandler(HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if not _is_http(newurl):
                fp.close()
                raise ValueError(f"redirect to a URL that is not http(s): {newurl}")
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    return build_opener(HttpRedirectHandler)


def _default_fetch(url: str, timeout: float) -> tuple[int, str]:
    """GET the http(s) ``url``, following redirects to http(s) URLs only.

    A 2xx answer gives its status and its body as strict UTF-8, as JSON
    requires (RFC 8259). An error answer gives its status and its body with
    undecodable bytes replaced, so a 429 reads as rate limited whatever its
    body. Anything else raises: a timeout, a refused connection, a
    non-UTF-8 2xx body, or a redirect whose target's scheme is not http or
    https (``urlopen`` would follow a redirect to ``ftp:`` or ``file:``).
    """
    from urllib.error import HTTPError

    try:
        with _opener().open(url, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode("utf-8", "replace")


class HttpBackend:
    """Client for an HTTPS geocoding endpoint with a minimum request spacing.

    ``url_template`` is an http(s) URL (``urlopen`` would read a ``file:``
    one) that must contain the literal placeholder ``{query}``, may contain
    ``{key}``, and holds no other brace and only printable ASCII (a host in
    its ``xn--`` form); the key, valid UTF-8, is read from the environment,
    never from the command line. A brace cannot be part of a scheme, so no
    placeholder comes before the scheme's ``:`` and each URL built has the
    template's scheme. The response is in the common maps-API shape: a
    ``status`` string plus a ``results`` list whose first entry carries
    ``geometry.location.{lat,lng}``. Each request is
    ``fetch(url, HTTP_TIMEOUT_S)``; ``fetch`` defaults to an HTTP GET and
    returns ``(status code, str body)``. A 429 answer or a quota status is
    ``rate_limited``; any other answer but 200, or a body that is not a str,
    is ``backend_error``, so an error page never reads as a ``not_found``.
    """

    def __init__(
        self,
        url_template: str,
        *,
        api_key: Optional[str] = None,
        min_interval: float = 0.0,
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
        if any(char <= " " or char >= "\x7f" for char in url_template):
            # urlsplit would delete a tab or newline that urlopen then sends, and
            # http.client writes the request line as ASCII.
            raise ValueError(f"url holds a space, control or non-ASCII character: {url_template!r}")
        key_source = "api_key"
        if api_key is None:
            api_key, key_source = os.environ.get(API_KEY_ENV_VAR, ""), API_KEY_ENV_VAR
        try:
            quoted_key = _quote(api_key)
        except UnicodeEncodeError:  # a lone surrogate: os.environ's stand-in for a non-UTF-8 byte
            raise ValueError(f"{key_source} is not valid UTF-8") from None
        # Split first: a key put in before could join "{que" and "ry}". The
        # key adds no brace, since _quote writes braces as %7B and %7D.
        parts = [part.replace("{key}", quoted_key) for part in url_template.split("{query}")]
        if len(parts) == 1 or any("{" in part or "}" in part for part in parts):
            raise ValueError(f"url may name only {{query}} (required) and {{key}}: {url_template}")
        if not _is_http(url_template):
            raise ValueError(f"url is not an http(s) URL: {url_template}")
        self._url_parts = parts
        self._min_interval = min_interval
        self._fetch = fetch or _default_fetch
        self._clock = clock
        self._sleep = sleep
        self._last_request: Optional[float] = None
        self._pace_lock = threading.Lock()

    def _build_url(self, query: str) -> str:
        return _quote(query).join(self._url_parts)

    def _pace(self) -> None:
        if not self._min_interval:  # fixed at construction: no spacing, no lock, no clock
            return
        with self._pace_lock:
            if self._last_request is not None:
                wait = self._last_request + self._min_interval - self._clock()
                if wait > 0:
                    self._sleep(wait)
            self._last_request = self._clock()

    def resolve(self, query: str) -> GeocodeResult:
        self._pace()
        try:
            status_code, body = self._fetch(self._build_url(query), HTTP_TIMEOUT_S)
        except Exception:
            return _BACKEND_ERROR
        if status_code == 429:
            return _RATE_LIMITED
        try:
            payload = _decode_json(body)
            api_status = payload.get("status", "OK")
            if api_status in ("OVER_QUERY_LIMIT", "OVER_DAILY_LIMIT", "RESOURCE_EXHAUSTED"):
                return _RATE_LIMITED
            if status_code != 200:  # whatever the body says: not_found would be cached
                return _BACKEND_ERROR
            results = payload.get("results", [])
            if api_status == "ZERO_RESULTS" or (api_status == "OK" and not results):
                return _NOT_FOUND
            if api_status != "OK":
                return _BACKEND_ERROR
            location = results[0]["geometry"]["location"]
            lng, lat = location["lng"], location["lat"]
            if isinstance(lng, bool) or isinstance(lat, bool):
                raise TypeError  # float() would read true and false as 1.0 and 0.0
            return _new_ok_result(float(lng), float(lat))
        # AttributeError: a body that is JSON but not an object; OverflowError: a
        # coordinate integer too large for a float; RecursionError: deep nesting.
        except (
            AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError
        ):
            return _BACKEND_ERROR


_CACHED_STATUSES = (GeocodeStatus.OK, GeocodeStatus.NOT_FOUND)


class Geocoder:
    """Caching front-end over a backend.

    ``ok``/``not_found`` results are cached for the process lifetime, so a
    backend sees at most one request per distinct normalized query. Every
    hit on a key returns the one ``from_cache`` result stored for it. Errors
    pass through uncached and will be retried by later calls. A cache miss
    holds that key's lock while it calls the backend, so concurrent callers
    of one key call it one at a time, and each reads the cache again first.
    """

    def __init__(self, backend: Backend):
        self.backend = backend
        self._cache: dict[str, GeocodeResult] = {}
        # Only keys in flight or whose last answer was an error have a lock.
        self._key_locks: dict[str, threading.Lock] = {}

    def geocode(self, query: str) -> GeocodeResult:
        if not query:
            raise ValueError("empty geocode query")
        key = normalize_query(query)
        hit = self._cache.get(key)
        if hit is None:
            # dict.get, setdefault, pop and item assignment are each atomic. A key
            # keeps one lock until its result is cached, so only one caller stores it.
            with self._key_locks.setdefault(key, threading.Lock()):
                hit = self._cache.get(key)  # a caller this one waited on may have stored it
                if hit is None:
                    try:
                        result = self.backend.resolve(query)
                        if result.from_cache:
                            result = GeocodeResult(result.point, result.status)
                    except Exception:
                        result = _BACKEND_ERROR
                    if result.status in _CACHED_STATUSES:
                        self._cache[key] = _cached_copy(result)
                        del self._key_locks[key]  # later calls find the cache first
                    return result
                self._key_locks.pop(key, None)  # re-added by a caller that missed the store
        return hit
