"""Decision-support outputs: GeoJSON and a self-contained interactive map.

Both artifacts embed every classified record: successfully geocoded requests
become map markers / GeoJSON Point features, the rest are kept in an
``ungeocoded`` list so nothing is silently dropped. All user-originated
strings are escaped before they reach the document.

Each document is one generator of pieces, an entry or a separator at a time.
``write_geojson`` and ``write_map_document`` write the pieces to a text file
as they come, so a document is never held whole; ``to_geojson`` and
``to_map_document`` join the same pieces into a string.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Iterator, Sequence, TextIO

from .address import CompletionRule
from .geocode import GeocodeResult, GeocodeStatus
from .ingest import HARVEY_BBOX


@dataclass(frozen=True, slots=True)
class RescueRequest:
    """A classified-positive tweet's six values that the outputs write.

    ``id`` and ``text`` are the tweet's, ``completed`` and ``completion_rule``
    its completed address's, ``local_time`` its time in US/Central, and
    ``geocode`` the lookup of ``completed``. The tweet and the address's
    components are not kept: call ``extract_full_address`` and
    ``complete_address`` for those.
    """

    id: str
    text: str
    completed: str
    completion_rule: CompletionRule | None
    local_time: datetime
    geocode: GeocodeResult


def _completion_rule(request: RescueRequest) -> str | None:
    rule = request.completion_rule
    return rule.value if rule else None


# The GeoJSON schema is fixed, so each entry is written from a template that
# reproduces json.dumps(..., indent=2, sort_keys=True, ensure_ascii=False):
# keys in sorted order, two-space indent, "," between items, ": " after keys.
_FEATURE = """\
    {
      "geometry": {
        "coordinates": [
          %s,
          %s
        ],
        "type": "Point"
      },
      "properties": {
        "completed_address": %s,
        "completion_rule": %s,
        "id": %s,
        "local_time": %s,
        "text": %s
      },
      "type": "Feature"
    }"""
_UNGEOCODED = """\
    {
      "completed_address": %s,
      "completion_rule": %s,
      "id": %s,
      "status": %s,
      "text": %s
    }"""
_COLLECTION = """\
{
  "features": %s,
  "type": "FeatureCollection",
  "ungeocoded": %s
}"""
_COLLECTION_HEAD, _COLLECTION_MIDDLE, _COLLECTION_TAIL = _COLLECTION.split("%s")

# The C string escaper json.dumps(..., ensure_ascii=False) uses.
_string = json.encoder.encode_basestring


def _number(value: object) -> str:
    # json writes a finite float with float.__repr__; an int, a bool or a
    # non-finite float takes json's own path.
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _nullable_string(value: str | None) -> str:
    return "null" if value is None else _string(value)


def _array(entries: Iterable[str], opening: str, separator: str, closing: str) -> Iterator[str]:
    # opening + separator.join(entries) + closing, one piece at a time; "[]" for none.
    empty = True
    for entry in entries:
        yield opening if empty else separator
        yield entry
        empty = False
    yield "[]" if empty else closing


def _features(requests: Iterable[RescueRequest]) -> Iterator[str]:
    for request in requests:
        geocode = request.geocode
        if geocode.status is GeocodeStatus.OK:
            yield _FEATURE % (
                _number(geocode.point.longitude),
                _number(geocode.point.latitude),
                _string(request.completed),
                _nullable_string(_completion_rule(request)),
                _string(request.id),
                _string(request.local_time.isoformat()),
                _string(request.text),
            )


def _ungeocoded(requests: Iterable[RescueRequest]) -> Iterator[str]:
    for request in requests:
        geocode = request.geocode
        if geocode.status is not GeocodeStatus.OK:
            yield _UNGEOCODED % (
                _string(request.completed),
                _nullable_string(_completion_rule(request)),
                _string(request.id),
                _string(geocode.status.value),
                _string(request.text),
            )


def _geojson_pieces(requests: Sequence[RescueRequest]) -> Iterator[str]:
    # Features come from one pass over requests, ungeocoded entries from a second.
    yield _COLLECTION_HEAD
    yield from _array(_features(requests), "[\n", ",\n", "\n  ]")
    yield _COLLECTION_MIDDLE
    yield from _array(_ungeocoded(requests), "[\n", ",\n", "\n  ]")
    yield _COLLECTION_TAIL


def to_geojson(requests: Sequence[RescueRequest]) -> str:
    """Serialize requests as a GeoJSON FeatureCollection (longitude first).

    Requests whose geocode failed appear in the top-level ``ungeocoded``
    array rather than as features. The output is byte-identical to
    ``json.dumps(collection, indent=2, sort_keys=True, ensure_ascii=False)``
    of the same collection: each entry comes from a template whose keys are
    already sorted and laid out as ``json`` lays them out, strings go
    through ``json``'s own escaper, numbers are written as ``json`` writes
    them, and an empty list stays ``[]``.
    """
    return "".join(_geojson_pieces(requests))


def write_geojson(requests: Sequence[RescueRequest], fp: TextIO) -> None:
    """Write ``to_geojson(requests)`` to the text file ``fp``, one piece at a time."""
    fp.writelines(_geojson_pieces(requests))


def _escape(text: str) -> str:
    # html.escape(text, quote=True), "&" first as there. Importing html would
    # also load html.entities, whose tables keep about 3,000 entries resident.
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.replace('"', "&quot;").replace("'", "&#x27;")


def _script_safe(entry: str) -> str:
    # Escape the characters that could terminate the surrounding <script>
    # block or open a tag; tweet text is adversarial input. Each is a single
    # character, so escaping entry by entry escapes the whole payload.
    return entry.replace("&", "\\u0026").replace("<", "\\u003c").replace(">", "\\u003e")


_MAP_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Rescue requests</title>
<link rel="stylesheet" href="https://unpkg.com/leaflet@1.9.4/dist/leaflet.css">
<script src="https://unpkg.com/leaflet@1.9.4/dist/leaflet.js"></script>
<style>
  html, body { height: 100%; margin: 0; }
  #map { height: 92%; }
  #ungeocoded { font: 13px/1.4 sans-serif; padding: 4px 10px; overflow: auto; height: 8%; }
</style>
</head>
<body>
<div id="map"></div>
<div id="ungeocoded"></div>
<script>
var PAYLOAD = {payload};
var map = L.map("map");
L.tileLayer("https://{s}.tile.openstreetmap.org/{z}/{x}/{y}.png", {
  maxZoom: 19,
  attribution: "&copy; OpenStreetMap contributors"
}).addTo(map);
map.fitBounds([[PAYLOAD.viewport[1], PAYLOAD.viewport[0]],
               [PAYLOAD.viewport[3], PAYLOAD.viewport[2]]]);
PAYLOAD.markers.forEach(function (m) {
  L.marker([m.lat, m.lon]).addTo(map).bindPopup(m.popup);
});
var box = document.getElementById("ungeocoded");
if (PAYLOAD.ungeocoded.length === 0) {
  box.textContent = PAYLOAD.markers.length + " rescue request(s) mapped; none ungeocoded.";
} else {
  box.innerHTML = "<b>" + PAYLOAD.ungeocoded.length +
    " request(s) could not be geocoded:</b> " +
    PAYLOAD.ungeocoded.map(function (u) { return u.summary; }).join(" | ");
}
</script>
</body>
</html>
"""
_MAP_HEAD, _MAP_TAIL = _MAP_TEMPLATE.split("{payload}")

# The payload is json.dumps(payload, sort_keys=True, ensure_ascii=False) of
# {"markers": [...], "ungeocoded": [...], "viewport": [...]}, written in that
# (sorted) order; each entry's template has its keys sorted and json's
# default ", " and ": " separators.
_MARKER = '{"id": %s, "lat": %s, "lon": %s, "popup": %s}'
_MAP_UNGEOCODED = (
    '{"completed_address": %s, "completion_rule": %s, "id": %s, '
    '"status": %s, "summary": %s, "text": %s}'
)


def _markers(requests: Iterable[RescueRequest], lons: list, lats: list) -> Iterator[str]:
    # Also appends each marker's coordinates to lons and lats, for the viewport.
    for request in requests:
        geocode = request.geocode
        if geocode.status is not GeocodeStatus.OK:
            continue
        lon, lat = geocode.point.longitude, geocode.point.latitude
        lons.append(lon)
        lats.append(lat)
        # An ISO time holds none of the characters _escape replaces.
        popup = (
            f"<b>{_escape(request.text)}</b><br>"
            f"{_escape(request.completed)}<br>"
            f"{request.local_time.isoformat()}"
        )
        yield _script_safe(
            _MARKER % (_string(request.id), _number(lat), _number(lon), _string(popup))
        )


def _map_ungeocoded(requests: Iterable[RescueRequest]) -> Iterator[str]:
    for request in requests:
        geocode = request.geocode
        if geocode.status is not GeocodeStatus.OK:
            completed, status = request.completed, geocode.status.value
            yield _script_safe(
                _MAP_UNGEOCODED
                % (
                    _string(completed),
                    _nullable_string(_completion_rule(request)),
                    _string(request.id),
                    _string(status),
                    _string(_escape(f"{completed} ({status})")),
                    _string(_escape(request.text)),  # escaped as in a popup
                )
            )


def _map_pieces(requests: Sequence[RescueRequest]) -> Iterator[str]:
    # Markers come from one pass over requests, ungeocoded entries from a second.
    yield _MAP_HEAD
    yield '{"markers": '
    lons: list = []
    lats: list = []
    yield from _array(_markers(requests, lons, lats), "[", ", ", "]")
    yield ', "ungeocoded": '
    yield from _array(_map_ungeocoded(requests), "[", ", ", "]")
    viewport = [HARVEY_BBOX.west, HARVEY_BBOX.south, HARVEY_BBOX.east, HARVEY_BBOX.north]
    if lons:
        viewport = [min(lons), min(lats), max(lons), max(lats)]
    yield ', "viewport": [%s]}' % ", ".join(map(_number, viewport))
    yield _MAP_TAIL


def to_map_document(requests: Sequence[RescueRequest]) -> str:
    """Render a single-file interactive map with one marker per geocoded request.

    Marker pop-ups show the tweet text, the completed address, and the
    US/Central local time. Marker data is embedded in the document; only map
    tiles and the map library load from the network.
    """
    return "".join(_map_pieces(requests))


def write_map_document(requests: Sequence[RescueRequest], fp: TextIO) -> None:
    """Write ``to_map_document(requests)`` to the text file ``fp``, one piece at a time."""
    fp.writelines(_map_pieces(requests))
