"""Differential tests: the fixed-schema GeoJSON writer against the json.dumps
call it replaced, and the map document against the emitter it was built as,
each kept here as the reference implementation."""
from __future__ import annotations

import html
import json
from datetime import datetime, timedelta, timezone

from hypothesis import example, given, strategies as st

from rescuemap import (
    CompletionRule,
    FullAddress,
    GeocodeResult,
    GeocodeStatus,
    GeoPoint,
    Tweet,
    to_geojson,
    to_local_time,
    to_map_document,
)
from rescuemap.ingest import HARVEY_BBOX
from rescuemap.output import _MAP_TEMPLATE, RescueRequest

# --- reference: build the collection as dicts, then json.dumps -------------------


def reference_to_geojson(requests: list[RescueRequest]) -> str:
    def rule(request: RescueRequest):
        return request.address.completion_rule.value if request.address.completion_rule else None

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
                        "id": request.tweet.id,
                        "text": request.tweet.text,
                        "completed_address": request.address.completed,
                        "local_time": request.local_time.isoformat(),
                        "completion_rule": rule(request),
                    },
                }
            )
        else:
            ungeocoded.append(
                {
                    "id": request.tweet.id,
                    "text": request.tweet.text,
                    "completed_address": request.address.completed,
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
                    "id": request.tweet.id,
                    "lon": request.geocode.point.longitude,
                    "lat": request.geocode.point.latitude,
                    "popup": (
                        f"<b>{html.escape(request.tweet.text)}</b><br>"
                        f"{html.escape(request.address.completed)}<br>"
                        f"{html.escape(request.local_time.isoformat())}"
                    ),
                }
            )
        else:
            rule = request.address.completion_rule
            ungeocoded.append(
                {
                    "id": request.tweet.id,
                    "text": html.escape(request.tweet.text),
                    "completed_address": request.address.completed,
                    "completion_rule": rule.value if rule else None,
                    "status": request.geocode.status.value,
                    "summary": html.escape(
                        f"{request.address.completed} ({request.geocode.status.value})"
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
    return _MAP_TEMPLATE.format(payload=text)


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
# Every Tweet needs a time; the output reads local_time, passed on its own.
_NOON = datetime(2017, 8, 27, 12, tzinfo=timezone.utc)
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
    completed = draw(_TEXT)
    return RescueRequest(
        tweet=Tweet(id=draw(_TEXT), text=draw(_TEXT), created_at_utc=_NOON),
        address=FullAddress(
            house_number="1",
            street="Main St",
            completed=completed,
            completion_rule=draw(st.sampled_from([None, *CompletionRule])),
        ),
        geocode=GeocodeResult(
            point=draw(_POINT) if status is GeocodeStatus.OK else None,
            status=status,
        ),
        local_time=draw(_LOCAL_TIME),
    )


_OK = RescueRequest(
    tweet=Tweet(id="t1", text='say "help"\\ \u2028 \U0001F30A', created_at_utc=_NOON),
    address=FullAddress(house_number="5", street="Elm St", completed="5 Elm St, Texas",
                        completion_rule=CompletionRule.TEXAS_DEFAULT),
    geocode=GeocodeResult(point=GeoPoint(5, 6), status=GeocodeStatus.OK),
    local_time=to_local_time(datetime(2017, 8, 27, 12, tzinfo=timezone.utc)),
)
_FAILED = RescueRequest(
    tweet=Tweet(id="t2", text="\x00\x1f", created_at_utc=_NOON),
    address=FullAddress(house_number="7", street="Oak Rd", completed="7 Oak Rd"),
    geocode=GeocodeResult(point=None, status=GeocodeStatus.RATE_LIMITED),
    local_time=to_local_time(datetime(2017, 8, 27, 12, tzinfo=timezone.utc)),
)


@given(st.lists(_request(), max_size=6))
@example([])
@example([_OK])
@example([_FAILED])
@example([_OK, _FAILED])
def test_to_geojson_matches_json_dumps(requests):
    assert to_geojson(requests) == reference_to_geojson(requests)


# Lists of requests of either kind, and lists with no marker or nothing ungeocoded.
_REQUEST_LISTS = st.one_of(
    st.lists(_request(), max_size=6),
    st.lists(_request(st.just(GeocodeStatus.OK)), max_size=4),
    st.lists(_request(st.sampled_from([s for s in GeocodeStatus if s is not GeocodeStatus.OK])), max_size=4),
)
_HOSTILE = RescueRequest(
    tweet=Tweet(id="</script><script>", text="</script> & <b \u2028 'x' \"y\" <", created_at_utc=_NOON),
    address=FullAddress(house_number="1", street="Main St", completed="1 Main St <", completion_rule=None),
    geocode=GeocodeResult(point=GeoPoint(-0.0, 3), status=GeocodeStatus.OK),
    local_time=datetime(2017, 8, 27, 7, tzinfo=timezone(timedelta(hours=5, minutes=30, seconds=1))),
)


@given(_REQUEST_LISTS)
@example([])
@example([_OK])
@example([_FAILED])
@example([_OK, _FAILED])
@example([_HOSTILE, _FAILED])
def test_to_map_document_matches_json_dumps_reference(requests):
    assert to_map_document(requests) == reference_to_map_document(requests)
