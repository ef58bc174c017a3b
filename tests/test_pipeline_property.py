"""Whole-pipeline property: no generated input line aborts a replay, every
count is conserved, the geocode pool writes the CLI's bytes, and the outputs parse."""
from __future__ import annotations

import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rescuemap import StreamConfig, default_lexicon, run_pipeline, to_geojson, to_map_document
from rescuemap.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
GAZETTEER = DATA / "gazetteer.tsv"
_KNOWN_ADDRESSES = [
    line.split("\t")[0]
    for line in GAZETTEER.read_text(encoding="utf-8").splitlines()[2:12]
]

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and ±Infinity are written as the bare names json accepts
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_ADDRESSES = [*_KNOWN_ADDRESSES, "12 Clay Rd", "900 Elm St Apt 4B, Houston, TX 77025", "123 Ave. G"]
_fragments = st.sampled_from([
    *_ADDRESSES,
    "Please help", "need rescue at", "trapped on roof", "water rising", "we can help",
    "#Harvey", "#HoustonFlood", "Hurricane", "flooding",
    "</script><script>alert(1)</script>", "</SCRIPT >", "<!--", "&amp; <b>",
    " ", "\U0001f642", "\x00", "\\", '"',
])
_texts = st.one_of(
    # a rescue request: help, an address and a tracked hashtag, then noise
    st.builds(
        lambda address, noise: " ".join(["Please help, trapped at", address, "#Harvey", *noise]),
        st.sampled_from(_ADDRESSES),
        st.lists(_fragments, max_size=3),
    ),
    st.lists(_fragments, min_size=1, max_size=6).map(" ".join),
    st.text(max_size=40),
)
_plausible = {
    "id": st.sampled_from(["1", "2", "3", "</script>", 5, 6]),
    "id_str": st.sampled_from(["1", "2", "7"]),
    "text": _texts,
    "full_text": _texts,
    "created_at": st.sampled_from([
        "2017-08-27T14:03:00Z", "2017-08-28T02:30:00+00:00", "Sun Aug 27 14:03:00 +0000 2017",
        "2017-02-30T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    ]),
    "coordinates": st.one_of(
        st.tuples(st.floats(-96.0, -94.5), st.floats(29.0, 30.5)).map(list),
        st.tuples(st.floats(-181, 181), st.floats(-91, 91)).map(
            lambda lonlat: {"type": "Point", "coordinates": list(lonlat)}
        ),
        # integers, some too large for a float, in both shapes
        st.lists(st.one_of(st.sampled_from([10**400, -10**400]), st.integers()), min_size=2, max_size=2)
        .flatmap(lambda pair: st.sampled_from([pair, {"coordinates": pair}])),
    ),
    "hashtags": st.lists(st.sampled_from(["Harvey", "houstonflood", "htx", ""]), max_size=3),
    "entities": st.lists(st.sampled_from(["Harvey", "HoustonFlood"]), max_size=2).map(
        lambda tags: {"hashtags": [{"text": tag} for tag in tags]}
    ),
    "user": st.just({"location": "Houston, TX"}),
}
# Each known field is absent, plausible, or any JSON value. Half the records
# hold a plausible id, text and created_at, so that most lines parse.
_any_value = {key: st.one_of(value, _json_values) for key, value in _plausible.items()}
_core = ("id", "text", "created_at")
_records = st.one_of(
    st.fixed_dictionaries({}, optional=_any_value),
    st.fixed_dictionaries(
        {key: _plausible[key] for key in _core},
        optional={key: value for key, value in _any_value.items() if key not in _core},
    ),
)
_RAW_LINES = [
    b"",
    b"   \t",
    b"{",
    b"[]",
    b"null",
    b'{"id": "p", "text": "probe \xff", "created_at": "2017-08-27T14:03:00Z"}',
    b'{"id": "p", "text": "\\ud800 at 12 Clay Rd", "created_at": "2017-08-27T14:03:00Z"}',
    b'{"id": "p", "text": "12 Clay Rd", "created_at": 1e20}',
    b'\xef\xbb\xbf{"id": "p", "text": "bom", "created_at": "2017-08-27T14:03:00Z"}',
    b'{"id": "p", "text": "x", "created_at": "2017-08-27T14:03:00Z", "x": '
    + b"[" * 5000 + b"]" * 5000 + b"}",
]
_lines = st.lists(
    st.one_of(
        _records.map(lambda record: json.dumps(record).encode()),
        st.sampled_from(_RAW_LINES),
        st.binary(max_size=40).map(lambda raw: raw.replace(b"\n", b" ")),
    ),
    max_size=12,
)


def _run(tmp: Path, input_path: Path, capsys) -> tuple[dict, str, str]:
    geojson, map_doc = tmp / "out.geojson", tmp / "out.html"
    code = main([
        "pipeline", "--input", str(input_path), "--gazetteer", str(GAZETTEER),
        "--out-geojson", str(geojson), "--out-map", str(map_doc),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return (
        json.loads(captured.out),
        geojson.read_text(encoding="utf-8"),
        map_doc.read_text(encoding="utf-8"),
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_lines)
@example(lines=[b"\x1c", "\u3000".encode(), b"\xc2\x85"])
def test_any_input_lines_replay_with_conserved_counts(lines, tmp_path, capsys, pooled_geocoder):
    input_path = tmp_path / "input.ndjson"
    input_path.write_bytes(b"\n".join(lines) + b"\n")

    summary, geojson, map_doc = _run(tmp_path, input_path, capsys)
    with input_path.open("rb") as source:
        requests, pooled_summary = run_pipeline(
            source, stream_cfg=StreamConfig(), lex=default_lexicon(),
            geocoder=pooled_geocoder(GAZETTEER), sequential=False,
        )
    pooled = (pooled_summary.as_dict(), to_geojson(requests), to_map_document(requests))
    assert pooled == (summary, geojson, map_doc)

    assert summary["read"] == summary["stream_passed"] + summary["stream_rejected"]
    assert summary["classified_positive"] == summary["geocoded_ok"] + summary["geocode_failed"]
    # A line is blank when its UTF-8 form is whitespace: b"\x1c" and
    # "\u3000" encoded are blank, as their str forms are.
    non_blank = sum(1 for line in lines if line.decode("utf-8", "replace").strip())
    assert summary["malformed"] + summary["duplicates"] + summary["read"] == non_blank

    features = json.loads(geojson)
    assert len(features["features"]) == summary["geocoded_ok"]
    start = map_doc.index("var PAYLOAD = ") + len("var PAYLOAD = ")
    payload = map_doc[start : map_doc.index(";\nvar map = L.map(", start)]
    assert "</script" not in payload.lower()
    decoded = json.loads(payload)
    assert len(decoded["markers"]) + len(decoded["ungeocoded"]) == summary["classified_positive"]
