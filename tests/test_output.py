from __future__ import annotations

import json
from datetime import datetime, timezone

from rescuemap import (
    GeocodeResult,
    GeocodeStatus,
    GeoPoint,
    Tweet,
    complete_address,
    detect_address,
    extract_full_address,
    to_geojson,
    to_local_time,
    to_map_document,
)
from rescuemap.output import RescueRequest


def make_request(
    text="Please help! stranded at 4055 South Braeswood Blvd #HoustonFlood",
    tweet_id="t1",
    point=GeoPoint(-95.44, 29.69),
    status=GeocodeStatus.OK,
) -> RescueRequest:
    tweet = Tweet(
        id=tweet_id,
        text=text,
        created_at_utc=datetime(2017, 8, 27, 12, 0, 0, tzinfo=timezone.utc),
        hashtags=("houstonflood",),
    )
    address = complete_address(extract_full_address(detect_address(text)), tweet.hashtags)
    geocode = GeocodeResult(
        point=point if status is GeocodeStatus.OK else None,
        status=status,
    )
    return RescueRequest(
        tweet=tweet,
        address=address,
        geocode=geocode,
        local_time=to_local_time(tweet.created_at_utc),
    )


class TestGeoJson:
    def test_empty_input(self):
        doc = json.loads(to_geojson([]))
        assert doc["type"] == "FeatureCollection"
        assert doc["features"] == []
        assert doc["ungeocoded"] == []

    def test_single_feature_longitude_first(self):
        doc = json.loads(to_geojson([make_request()]))
        assert len(doc["features"]) == 1
        feature = doc["features"][0]
        assert feature["geometry"]["type"] == "Point"
        assert feature["geometry"]["coordinates"] == [-95.44, 29.69]
        props = feature["properties"]
        assert props["id"] == "t1"
        assert props["completed_address"] == "4055 South Braeswood Blvd, Houston, TX"
        assert props["local_time"] == "2017-08-27T07:00:00-05:00"
        assert props["completion_rule"] == "houston_hashtag"

    def test_failed_geocode_goes_to_ungeocoded(self):
        ok = make_request()
        failed = make_request(
            text="Need a boat at 99 Elm St #Harvey", tweet_id="t2",
            status=GeocodeStatus.NOT_FOUND,
        )
        doc = json.loads(to_geojson([ok, failed]))
        assert len(doc["features"]) == 1
        assert len(doc["ungeocoded"]) == 1
        assert doc["ungeocoded"][0]["id"] == "t2"
        assert doc["ungeocoded"][0]["status"] == "not_found"

    def test_round_trip_preserves_features_and_coordinates(self):
        requests = [make_request(), make_request(tweet_id="t2")]
        first = to_geojson(requests)
        doc = json.loads(first)
        again = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
        redoc = json.loads(again)
        assert len(redoc["features"]) == len(doc["features"])
        assert [f["geometry"]["coordinates"] for f in redoc["features"]] == [
            f["geometry"]["coordinates"] for f in doc["features"]
        ]

    def test_no_request_is_dropped(self):
        requests = [
            make_request(tweet_id="a"),
            make_request(tweet_id="b", status=GeocodeStatus.NOT_FOUND),
            make_request(tweet_id="c", status=GeocodeStatus.BACKEND_ERROR),
        ]
        doc = json.loads(to_geojson(requests))
        assert len(doc["features"]) + len(doc["ungeocoded"]) == len(requests)

    def test_deterministic_output(self):
        requests = [make_request(), make_request(tweet_id="t2")]
        assert to_geojson(requests) == to_geojson(requests)


class TestMapDocument:
    def test_zero_markers_uses_collection_viewport(self):
        doc = to_map_document([])
        assert '"viewport": [-99.0, 27.6, -90.8, 33.5]' in doc
        assert '"markers": []' in doc

    def test_embedded_data_contains_tweet_text(self):
        request = make_request()
        doc = to_map_document([request])
        assert request.tweet.text in doc

    def test_marker_time_is_cdt_offset_string(self):
        doc = to_map_document([make_request()])
        assert "2017-08-27T07:00:00-05:00" in doc

    def test_script_injection_is_escaped(self):
        request = make_request(
            text="<script>alert(1)</script> help! stuck at 9 Oak St #HoustonFlood"
        )
        doc = to_map_document([request])
        payload_start = doc.index("var PAYLOAD")
        assert "<script>alert(1)</script>" not in doc[payload_start:]

    def test_ungeocoded_entries_kept_in_document(self):
        failed = make_request(tweet_id="t9", status=GeocodeStatus.NOT_FOUND)
        doc = to_map_document([failed])
        assert "not_found" in doc
        assert "t9" in doc
        assert '"viewport": [-99.0, 27.6, -90.8, 33.5]' in doc

    def test_viewport_is_marker_bounding_box(self):
        near = make_request(point=GeoPoint(-95.5, 29.6))
        far = make_request(tweet_id="t2", point=GeoPoint(-95.1, 29.9))
        doc = to_map_document([near, far])
        assert '"viewport": [-95.5, 29.6, -95.1, 29.9]' in doc

    def test_embedded_payload_is_parseable_json(self):
        import re

        requests = [
            make_request(tweet_id="a"),
            make_request(tweet_id="b", point=GeoPoint(-95.2, 29.8)),
            make_request(tweet_id="c", status=GeocodeStatus.RATE_LIMITED),
        ]
        doc = to_map_document(requests)
        blob = re.search(r"var PAYLOAD = (.*?);\n", doc, re.S).group(1)
        payload = json.loads(blob)
        assert len(payload["markers"]) == 2
        assert len(payload["ungeocoded"]) == 1
        assert payload["ungeocoded"][0]["status"] == "rate_limited"
        assert {m["id"] for m in payload["markers"]} == {"a", "b"}
