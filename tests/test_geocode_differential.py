"""Differential tests for the geocode lookup path, each against the code it
replaced, kept here as the reference:

- `_quote`, the table quote of a query, against `urllib.parse.quote`, and
  each URL `HttpBackend` sends against the URL `quote` would have built;
- the scheme of each URL `HttpBackend` builds, against its template's, which
  the constructor checks in place of a check on every request, and each URL
  built from a template whose only braces are its placeholders, against
  `str.format`, which built it before;
- the points and results `HttpBackend.resolve` and `Geocoder.geocode` fill
  through their slots, against the ones the public constructors build.
"""
from __future__ import annotations

import json
import os
import re
import urllib.parse
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rescuemap import GeocodeResult, GeocodeStatus, Geocoder, GeoPoint, HttpBackend
from rescuemap.geocode import API_KEY_ENV_VAR, _quote

# Any code point of any plane but a lone surrogate, which UTF-8 cannot encode;
# more often the characters a query string treats specially, and controls.
_query_chars = st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from("/%~+&#?=;:@ ,.\t\n\r\x00\x1f\x7f\x80\x9f\xa0\xff\u3000\ufeff"),
)
_queries = st.text(_query_chars)


@settings(max_examples=500, deadline=None)
@given(_queries)
@example("")
@example("4055 South Braeswood Blvd, Houston, TX 77025")
@example("12 Calle Niño #5 / apt 2, Pasadena")
@example("a%2Fb+c&d=e?f#g~h_i.j-k")
@example("\x00\x01\x1f\x7f\x80\xff")
@example("\u00e9\u0800\uffff\U00010000\U0001F6A8\U0010FFFF")
def test_quote_matches_urllib_quote(text):
    assert _quote(text) == urllib.parse.quote(text)


OK_BODY = json.dumps(
    {"status": "OK", "results": [{"geometry": {"location": {"lat": 29.6911, "lng": -95.4415}}}]}
)


def _recording_backend(template: str, **kwargs) -> tuple[HttpBackend, list[str]]:
    urls: list[str] = []

    def fetch(url, timeout):
        urls.append(url)
        return (200, OK_BODY)

    return HttpBackend(template, fetch=fetch, **kwargs), urls


@pytest.mark.parametrize("query", ["1 Main St \ud800", "\udfff", "Calle Niño \udc80 5"])
def test_lone_surrogate_is_backend_error_without_a_request(query):
    with pytest.raises(UnicodeEncodeError):
        urllib.parse.quote(query)
    backend, urls = _recording_backend("https://geo.example/api?address={query}")
    assert backend.resolve(query).status is GeocodeStatus.BACKEND_ERROR
    assert Geocoder(backend).geocode(query).status is GeocodeStatus.BACKEND_ERROR
    assert urls == []


# The templates of test_geocode.py's TestHttpBackend, a key that needs quoting,
# and a key read from the environment (api_key None).
_TEMPLATES_AND_KEYS = [
    ("https://geo.example/api?address={query}&key={key}", "secret"),
    ("https://geo.example/api?address={query}", "secret"),
    ("https://geo.example/api?q={query}&key={key}&again={query}", "s3cr/t+ü&=%"),
    ("https://geo.example/api?q={query}&key={key}", None),
]
_ENV_KEY = "from-env /ü+&"


@settings(max_examples=200, deadline=None)
@given(_queries)
@example("4055 South Braeswood Blvd, Houston, TX 77025")
@example("Calle Niño #5 / a+b&c=d?e")
@example("\u00e9\u0800\uffff\U00010000\U0001F6A8\U0010FFFF")
def test_every_url_sent_is_the_url_urllib_quote_builds(query):
    quote = urllib.parse.quote
    with mock.patch.dict(os.environ, {API_KEY_ENV_VAR: _ENV_KEY}):
        for template, api_key in _TEMPLATES_AND_KEYS:
            backend, urls = _recording_backend(template, api_key=api_key)
            backend.resolve(query)
            key = _ENV_KEY if api_key is None else api_key
            assert urls == [template.format(query=quote(query), key=quote(key))]


# Templates: pieces that may or may not make a scheme, spaces, controls and the
# two placeholders; half of them after a head that gives or spoils an http(s)
# scheme. No other brace, which test_only_the_two_placeholders_may_hold_a_brace
# draws. No brackets: urlsplit refuses a bracketed host that is not an IP
# address, and "[v1.{query}]" is one only for a non-empty query.
_template_pieces = st.lists(
    st.one_of(
        st.sampled_from(
            ["http", "HTTPS", "file", "htps", ":", "//", "/", "?", "#", "@", " ", "\t", "\n", "\x7f"]
            + ["{query}", "{key}"]
        ),
        st.text(st.characters(exclude_categories=("Cs",), exclude_characters="{}[]"), max_size=4),
    ),
    max_size=8,
).map("".join)
_templates = st.one_of(
    _template_pieces,
    st.tuples(
        st.sampled_from(["http:", "https://", "HTTP://", "hTtPs:", " http://", "ht\ttp://", "ht\rtp:", "http{:"]),
        _template_pieces,
        _template_pieces,
    ).map(lambda parts: parts[0] + parts[1] + "{query}" + parts[2]),
)
# A query or key with what a URL treats specially, braces and non-ASCII text.
_url_texts = st.text(st.one_of(_query_chars, st.sampled_from(":/{}ü\u4e2d\U0001F6A8")))


@settings(max_examples=500, deadline=None)
@given(_templates, _url_texts, _url_texts)
@example("https://geo.example/api?address={query}&key={key}", "http://x/{y}:\u00fc", "file:/{}")
@example("http:{query}", "ftp://x", ":")
@example("HTTP:{key}{query}", "//evil.example:80/", "\u00fc:\u00fc")
@example("http{query}://x", "s", "")
@example("ht\ttp://x/?q={query}", "s", "")
@example("http://caf\u00e9.example/?q={query}", "s", "")
def test_every_url_built_has_the_scheme_of_its_template(template, query, key):
    try:
        backend = HttpBackend(template, api_key=key)
    except ValueError as exc:
        assert str(exc).startswith("url ")
        return
    # urlsplit deletes a tab or newline anywhere and strips leading spaces and
    # controls, so it reads the scheme of such a template as urlopen would not;
    # and http.client sends only ASCII.
    assert all(" " < char < "\x7f" for char in template)
    scheme = urllib.parse.urlsplit(template).scheme
    assert scheme in ("http", "https")
    assert urllib.parse.urlsplit(backend._build_url(query)).scheme == scheme


# Templates made of braces, the placeholders, names and format syntax, after a
# head that gives or spoils an http(s) scheme.
_brace_templates = st.tuples(
    st.sampled_from(["https://geo.example/?q=", "http:", "HTTP://x/", "file:///", "{query}:", "http{:"]),
    st.lists(
        st.sampled_from(["{query}", "{key}", "{", "}", "{{", "}}", "query", "key", "0", "!r", ":>2", ".", "a/"]),
        max_size=10,
    ).map("".join),
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_brace_templates, _url_texts, _url_texts)
@example("https://geo.example/?q={query}&k={key}", "{key}", "{query}")
@example("https://geo.example/?q={{query}}", "s", "")
@example("https://geo.example/?q={key{query}}", "s", "")
@example("https://geo.example/?q={que{key}ry}", "s", "")
@example("https://geo.example/?q={query!r}", "s", "")
def test_only_the_two_placeholders_may_hold_a_brace(template, query, key):
    stray = re.sub(r"\{query\}|\{key\}", "", template)
    try:
        backend = HttpBackend(template, api_key=key)
    except ValueError as exc:
        if "{query}" not in template or "{" in stray or "}" in stray:
            assert str(exc).startswith("url may name only {query}")
        else:
            assert str(exc).startswith("url is not an http(s) URL")
        return
    assert "{query}" in template and "{" not in stray and "}" not in stray
    url = backend._build_url(query)
    quote = urllib.parse.quote
    assert url == template.format(query=quote(query), key=quote(key))
    scheme = urllib.parse.urlsplit(template).scheme
    assert scheme in ("http", "https")
    assert urllib.parse.urlsplit(url).scheme == scheme


# Any float, in range or not, NaN and the infinities included; integers as JSON
# writes them; and the range's edges.
_coordinates = st.one_of(
    st.floats(),
    st.floats(-181.0, 181.0),
    st.integers(-200, 200),
    st.sampled_from([-180.0, 180.0, -90.0, 90.0, -0.0, 0.0, 90.5, -180.5]),
)
# Maps APIs send a location_type, which the result leaves out.
_location_types = st.sampled_from(["ROOFTOP", "RANGE_INTERPOLATED", "APPROXIMATE", "OTHER"])


def _assert_same_value(got: object, want: object) -> None:
    assert type(got) is type(want)
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(_coordinates, _coordinates, st.one_of(st.none(), _location_types))
@example(-180.0, 90.0, "ROOFTOP")
@example(180.0, -90.0, None)
@example(float("nan"), 0.0, None)
@example(0.0, 90.5, None)
@example(-180.5, 0.0, None)
@example(float("-inf"), 0.0, None)
def test_fast_built_results_match_the_constructors(lng, lat, location_type):
    geometry: dict = {"location": {"lat": lat, "lng": lng}}
    if location_type is not None:
        geometry["location_type"] = location_type
    body = json.dumps({"status": "OK", "results": [{"geometry": geometry}]})
    backend = HttpBackend("https://geo.example/api?address={query}", fetch=lambda url, t: (200, body))
    geocoder = Geocoder(backend)
    try:
        point = GeoPoint(float(lng), float(lat))
    except ValueError:  # out of range, or NaN: the constructor's rule refuses it
        assert backend.resolve("1 Main St").status is GeocodeStatus.BACKEND_ERROR
        return
    _assert_same_value(backend.resolve("1 Main St"), GeocodeResult(point, GeocodeStatus.OK))
    _assert_same_value(geocoder.geocode("1 Main St"), GeocodeResult(point, GeocodeStatus.OK))
    _assert_same_value(geocoder.geocode("1 Main St"), GeocodeResult(point, GeocodeStatus.OK, True))


def test_fast_built_not_found_copy_matches_the_constructor():
    body = json.dumps({"status": "ZERO_RESULTS", "results": []})
    geocoder = Geocoder(HttpBackend("https://geo.example/?a={query}", fetch=lambda url, t: (200, body)))
    _assert_same_value(geocoder.geocode("1 Main St"), GeocodeResult(None, GeocodeStatus.NOT_FOUND))
    _assert_same_value(
        geocoder.geocode("1 Main St"), GeocodeResult(None, GeocodeStatus.NOT_FOUND, True)
    )
