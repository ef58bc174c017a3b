"""Differential tests: the fixed-schema GeoJSON writer against the json.dumps
call it replaced, and the map document against the emitter it was built as,
each kept here as the reference implementation. The streaming writers must
write what the string emitters return, and the output module's own HTML
escaper must equal html.escape."""
from __future__ import annotations

import html
import io
import json
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, strategies as st

from rescuemap import (
    CompletionRule,
    GeocodeResult,
    GeocodeStatus,
    GeoPoint,
    to_geojson,
    to_local_time,
    to_map_document,
    write_geojson,
    write_map_document,
)
from rescuemap.ingest import HARVEY_BBOX
from rescuemap.output import _MAP_TEMPLATE, RescueRequest, _escape

# --- reference: build the collection as dicts, then json.dumps -------------------


def reference_to_geojson(requests: list[RescueRequest]) -> str:
    def rule(request: RescueRequest):
        return request.completion_rule.value if request.completion_rule else None

    features = []
    ungeocoded = []
    for request in requests:
        if request.geocode.status is GeocodeStatus.OK and request.geocode.point is not None:
            point = request.geocode.point
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [point.longitude, point.latitude],
                    },
                    "properties": {
                        "id": request.id,
                        "text": request.text,
                        "completed_address": request.completed,
                        "local_time": request.local_time.isoformat(),
                        "completion_rule": rule(request),
                    },
                }
            )
        else:
            ungeocoded.append(
                {
                    "id": request.id,
                    "text": request.text,
                    "completed_address": request.completed,
                    "completion_rule": rule(request),
                    "status": request.geocode.status.value,
                }
            )
    collection = {"type": "FeatureCollection", "features": features, "ungeocoded": ungeocoded}
    return json.dumps(collection, indent=2, sort_keys=True, ensure_ascii=False)


# --- reference: build the map payload as dicts, json.dumps, then escape ----------


def reference_to_map_document(requests: list[RescueRequest]) -> str:
    markers = []
    ungeocoded = []
    for request in requests:
        if request.geocode.status is GeocodeStatus.OK and request.geocode.point is not None:
            markers.append(
                {
                    "id": request.id,
                    "lon": request.geocode.point.longitude,
                    "lat": request.geocode.point.latitude,
                    "popup": (
                        f"<b>{html.escape(request.text)}</b><br>"
                        f"{html.escape(request.completed)}<br>"
                        f"{html.escape(request.local_time.isoformat())}"
                    ),
                }
            )
        else:
            rule = request.completion_rule
            ungeocoded.append(
                {
                    "id": request.id,
                    "text": html.escape(request.text),
                    "completed_address": request.completed,
                    "completion_rule": rule.value if rule else None,
                    "status": request.geocode.status.value,
                    "summary": html.escape(
                        f"{request.completed} ({request.geocode.status.value})"
                    ),
                }
            )
    viewport = [HARVEY_BBOX.west, HARVEY_BBOX.south, HARVEY_BBOX.east, HARVEY_BBOX.north]
    if markers:
        lons = [m["lon"] for m in markers]
        lats = [m["lat"] for m in markers]
        viewport = [min(lons), min(lats), max(lons), max(lats)]
    payload = {"viewport": viewport, "markers": markers, "ungeocoded": ungeocoded}
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    text = text.replace("&", "\\u0026").replace("<", "\\u003c").replace(">", "\\u003e")
    return _MAP_TEMPLATE.replace("{payload}", text)


# --- strategies --------------------------------------------------------------------

# Characters json escapes or could mishandle: controls, quotes, backslashes,
# the JavaScript line separators, astral and non-ASCII letters, '%'; and text
# that could end the map's <script> block or open a tag, which html.escape and
# the payload's escapes must both cover.
_SPECIAL_CHARS = st.sampled_from(
    ["\x00", "\x08", "\x1f", "\x7f", "\n", "\t", '"', "\\", "/", "%", "\u2028", "\u2029",
     "\U0001F30A", "\U00010400", "\xe9", "\xdf", "\u0416", "\u4e2d",
     "&", "<", ">", "'"]
)
_TEXT = st.lists(
    st.one_of(_SPECIAL_CHARS, st.characters(), st.sampled_from(["</script>", "<!--", "&amp;"])),
    max_size=20,
).map("".join)


def _coordinate(limit: int) -> st.SearchStrategy:
    return st.one_of(
        st.sampled_from([-limit, limit, 0, -float(limit), float(limit), 0.0, -0.0,
                         1e-07, -1e-07, 5e-324]),
        st.integers(-limit, limit),
        st.floats(-limit, limit),
    )


_POINT = st.builds(GeoPoint, _coordinate(180), _coordinate(90))
# Any fixed offset that datetime allows, sub-minute ones included.
_LOCAL_TIME = st.datetimes(
    min_value=datetime(1900, 1, 1), max_value=datetime(2100, 1, 1),
    timezones=st.one_of(
        st.sampled_from([timezone.utc, timezone(timedelta(hours=-5))]),
        st.timedeltas(timedelta(hours=-24), timedelta(hours=24))
        .filter(lambda offset: abs(offset) < timedelta(hours=24))
        .map(timezone),
    ),
)


@st.composite
def _request(draw, statuses=st.sampled_from(GeocodeStatus)) -> RescueRequest:
    status = draw(statuses)
    return RescueRequest(
        id=draw(_TEXT),
        text=draw(_TEXT),
        completed=draw(_TEXT),
        completion_rule=draw(st.sampled_from([None, *CompletionRule])),
        local_time=draw(_LOCAL_TIME),
        geocode=GeocodeResult(
            point=draw(_POINT) if status is GeocodeStatus.OK else None,
            status=status,
        ),
    )


_OK = RescueRequest(
    id="t1",
    text='say "help"\\ \u2028 \U0001F30A',
    completed="5 Elm St, Texas",
    completion_rule=CompletionRule.TEXAS_DEFAULT,
    local_time=to_local_time(datetime(2017, 8, 27, 12, tzinfo=timezone.utc)),
    geocode=GeocodeResult(point=GeoPoint(5, 6), status=GeocodeStatus.OK),
)
_FAILED = RescueRequest(
    id="t2",
    text="\x00\x1f",
    completed="7 Oak Rd",
    completion_rule=None,
    local_time=to_local_time(datetime(2017, 8, 27, 12, tzinfo=timezone.utc)),
    geocode=GeocodeResult(point=None, status=GeocodeStatus.RATE_LIMITED),
)


def _written(write, requests: list[RescueRequest]) -> str:
    fp = io.StringIO()
    write(requests, fp)
    return fp.getvalue()


@given(st.lists(_request(), max_size=6))
@example([])
@example([_OK])
@example([_FAILED])
@example([_OK, _FAILED])
def test_to_geojson_matches_json_dumps(requests):
    reference = reference_to_geojson(requests)
    assert to_geojson(requests) == reference
    assert _written(write_geojson, requests) == reference


# Lists of requests of either kind, and lists with no marker or nothing ungeocoded.
_REQUEST_LISTS = st.one_of(
    st.lists(_request(), max_size=6),
    st.lists(_request(st.just(GeocodeStatus.OK)), max_size=4),
    st.lists(_request(st.sampled_from([s for s in GeocodeStatus if s is not GeocodeStatus.OK])), max_size=4),
)
_HOSTILE = RescueRequest(
    id="</script><script>",
    text="</script> & <b \u2028 'x' \"y\" <",
    completed="1 Main St <",
    completion_rule=None,
    local_time=datetime(2017, 8, 27, 7, tzinfo=timezone(timedelta(hours=5, minutes=30, seconds=1))),
    geocode=GeocodeResult(point=GeoPoint(-0.0, 3), status=GeocodeStatus.OK),
)


@given(_REQUEST_LISTS)
@example([])
@example([_OK])
@example([_FAILED])
@example([_OK, _FAILED])
@example([_HOSTILE, _FAILED])
def test_to_map_document_matches_json_dumps_reference(requests):
    reference = reference_to_map_document(requests)
    assert to_map_document(requests) == reference
    assert _written(write_map_document, requests) == reference


@given(_TEXT)
@example("")
@example("&amp; <b> \"q\" 'a' \xe9 \U0001F30A")
def test_escape_matches_html_escape(text):
    assert _escape(text) == html.escape(text)
