"""Decision-support outputs: GeoJSON and a self-contained interactive map.

Both artifacts embed every classified record: successfully geocoded requests
become map markers / GeoJSON Point features, the rest are kept in an
``ungeocoded`` list so nothing is silently dropped. All user-originated
strings are escaped before they reach the document.
"""
from __future__ import annotations

import html
import json
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

from .address import FullAddress
from .geocode import GeocodeResult, GeocodeStatus
from .ingest import HARVEY_BBOX, Tweet


@dataclass(frozen=True)
class RescueRequest:
    """A classified-positive tweet joined with its completed address and geocode."""

    tweet: Tweet
    address: FullAddress
    geocode: GeocodeResult
    local_time: datetime


def _completion_rule(request: RescueRequest) -> str | None:
    rule = request.address.completion_rule
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


def _array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


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
    features = []
    ungeocoded = []
    for request in requests:
        tweet = request.tweet
        address = request.address
        geocode = request.geocode
        if geocode.status is GeocodeStatus.OK:
            features.append(
                _FEATURE
                % (
                    _number(geocode.point.longitude),
                    _number(geocode.point.latitude),
                    _string(address.completed),
                    _nullable_string(_completion_rule(request)),
                    _string(tweet.id),
                    _string(request.local_time.isoformat()),
                    _string(tweet.text),
                )
            )
        else:
            ungeocoded.append(
                _UNGEOCODED
                % (
                    _string(address.completed),
                    _nullable_string(_completion_rule(request)),
                    _string(tweet.id),
                    _string(geocode.status.value),
                    _string(tweet.text),
                )
            )
    return _COLLECTION % (_array(features), _array(ungeocoded))


def _safe_json(payload: object) -> str:
    # Escape the characters that could terminate the surrounding <script>
    # block or open a tag; tweet text is adversarial input.
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return (
        text.replace("&", "\\u0026").replace("<", "\\u003c").replace(">", "\\u003e")
    )


_MAP_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>Rescue requests</title>
<link rel="stylesheet" href="https://unpkg.com/leaflet@1.9.4/dist/leaflet.css">
<script src="https://unpkg.com/leaflet@1.9.4/dist/leaflet.js"></script>
<style>
  html, body {{ height: 100%; margin: 0; }}
  #map {{ height: 92%; }}
  #ungeocoded {{ font: 13px/1.4 sans-serif; padding: 4px 10px; overflow: auto; height: 8%; }}
</style>
</head>
<body>
<div id="map"></div>
<div id="ungeocoded"></div>
<script>
var PAYLOAD = {payload};
var map = L.map("map");
L.tileLayer("https://{{s}}.tile.openstreetmap.org/{{z}}/{{x}}/{{y}}.png", {{
  maxZoom: 19,
  attribution: "&copy; OpenStreetMap contributors"
}}).addTo(map);
map.fitBounds([[PAYLOAD.viewport[1], PAYLOAD.viewport[0]],
               [PAYLOAD.viewport[3], PAYLOAD.viewport[2]]]);
PAYLOAD.markers.forEach(function (m) {{
  L.marker([m.lat, m.lon]).addTo(map).bindPopup(m.popup);
}});
var box = document.getElementById("ungeocoded");
if (PAYLOAD.ungeocoded.length === 0) {{
  box.textContent = PAYLOAD.markers.length + " rescue request(s) mapped; none ungeocoded.";
}} else {{
  box.innerHTML = "<b>" + PAYLOAD.ungeocoded.length +
    " request(s) could not be geocoded:</b> " +
    PAYLOAD.ungeocoded.map(function (u) {{ return u.summary; }}).join(" | ");
}}
</script>
</body>
</html>
"""


def to_map_document(requests: Sequence[RescueRequest]) -> str:
    """Render a single-file interactive map with one marker per geocoded request.

    Marker pop-ups show the tweet text, the completed address, and the
    US/Central local time. Marker data is embedded in the document; only map
    tiles and the map library load from the network.
    """
    markers = []
    ungeocoded = []
    for request in requests:
        if request.geocode.status is GeocodeStatus.OK:
            markers.append(
                {
                    "id": request.tweet.id,
                    "lon": request.geocode.point.longitude,
                    "lat": request.geocode.point.latitude,
                    # An ISO time holds none of the characters html.escape replaces.
                    "popup": (
                        f"<b>{html.escape(request.tweet.text)}</b><br>"
                        f"{html.escape(request.address.completed)}<br>"
                        f"{request.local_time.isoformat()}"
                    ),
                }
            )
        else:
            ungeocoded.append(
                {
                    "id": request.tweet.id,
                    "text": html.escape(request.tweet.text),  # escaped as in a popup
                    "completed_address": request.address.completed,
                    "completion_rule": _completion_rule(request),
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
    payload = {
        "viewport": viewport,
        "markers": markers,
        "ungeocoded": ungeocoded,
    }
    return _MAP_TEMPLATE.format(payload=_safe_json(payload))
