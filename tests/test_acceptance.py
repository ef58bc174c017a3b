"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with: pytest tests/test_acceptance.py -v -s
"""
from __future__ import annotations

import itertools
import json
import time
import tracemalloc

import pytest

from rescuemap import (
    ConfusionMatrix,
    CompletionRule,
    FeatureVector,
    Gazetteer,
    GeocodeResult,
    GeocodeStatus,
    Geocoder,
    GeoPoint,
    StreamConfig,
    Verdict,
    classify,
    complete_address,
    compute_metrics,
    contains_texas,
    default_lexicon,
    detect_address,
    extract_features,
    extract_full_address,
    to_geojson,
    to_map_document,
)
from rescuemap.pipeline import run_pipeline

LEX = default_lexicon()


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_metrics_reproduction():
    metrics = compute_metrics(ConfusionMatrix(tp=228, fp=66, fn=23, tn=5475))
    assert metrics.sensitivity == pytest.approx(0.908, abs=1e-3)
    assert metrics.specificity == pytest.approx(0.988, abs=1e-3)
    assert metrics.mcc == pytest.approx(0.832, abs=2e-3)
    # The count-form F1 for this matrix is 456/545 = 0.8367 (often quoted
    # rounded as 0.834; the formula value is asserted here).
    assert metrics.f1 == pytest.approx(0.8367, abs=5e-4)
    _ok(1, "sensitivity/specificity/MCC/F1 reproduced within tolerance")


def test_criterion_2_address_grammar_on_reference_texts():
    positives = [
        "3 friends stuck at 4055 South #Braeswood Boulevard and S. Gessner",
        "1108 Highway 7",
        "123 Ave. G",
    ]
    for text in positives:
        assert detect_address(text), text
        assert extract_features(text, LEX).has_address
    negative = (
        "@KPRC2 there are stranded families at Creech Elementary on Mason Rd. "
        "You have boats nearby. Please send them!"
    )
    assert detect_address(negative) is None
    assert extract_features(negative, LEX).has_address is False
    _ok(2, "all reference address texts agree (3 matches, 1 non-match)")


def test_criterion_3_classifier_truth_table():
    field_names = (
        "has_address",
        "has_ask_help",
        "has_disaster_context",
        "has_status_update",
        "has_offer_help",
        "has_news_report",
        "has_political",
        "has_ads",
    )
    formula = (
        "has_address and (has_ask_help or has_disaster_context) "
        "and not (has_status_update or has_offer_help or has_news_report "
        "or has_political or has_ads)"
    )
    agree = 0
    for bits in itertools.product((False, True), repeat=8):
        vector = FeatureVector(**dict(zip(field_names, bits)))
        expected = Verdict.RESCUE_REQUEST if eval(formula, {}, dict(zip(field_names, bits))) else Verdict.NOT_RESCUE_REQUEST
        assert classify(vector) is expected, bits
        agree += 1
    assert agree == 256
    _ok(3, "classifier agrees with the truth-table oracle on all 256 vectors")


COMPLETION_TABLE = [
    # (text, hashtags, expected completed, expected rule)
    ("4055 South Braeswood Blvd", ["houstonflooding"],
     "4055 South Braeswood Blvd, Houston, TX", CompletionRule.HOUSTON_HASHTAG),
    ("stuck at 77 Fannin St", ["HoustonStrong"],
     "77 Fannin St, Houston, TX", CompletionRule.HOUSTON_HASHTAG),
    ("9823 Sagedowne Ln", ["flood", "houston"],
     "9823 Sagedowne Ln, Houston, TX", CompletionRule.HOUSTON_HASHTAG),
    ("123 Ave. G", ["htxhouston"],
     "123 Ave. G, Houston, TX", CompletionRule.HOUSTON_HASHTAG),
    ("time to go 600 Travis St now", ["Houston"],
     "600 Travis St, Houston, TX", CompletionRule.HOUSTON_HASHTAG),
    ("1108 Highway 7", [],
     "1108 Highway 7, Texas", CompletionRule.TEXAS_DEFAULT),
    ("450 Main St", ["harvey"],
     "450 Main St, Texas", CompletionRule.TEXAS_DEFAULT),
    ("9 Oak Ln", ["htx"],
     "9 Oak Ln, Texas", CompletionRule.TEXAS_DEFAULT),
    ("need help 77 Fannin St", ["hou"],
     "77 Fannin St, Texas", CompletionRule.TEXAS_DEFAULT),
    ("2200 Polk St", ["texasstrong"],
     "2200 Polk St, Texas", CompletionRule.TEXAS_DEFAULT),
    ("4055 South Braeswood Blvd, Houston, TX 77025", [],
     "4055 South Braeswood Blvd, Houston, TX 77025", CompletionRule.NONE),
    ("1108 Highway 7, Texas", ["houstonflood"],
     "1108 Highway 7, Texas", CompletionRule.NONE),
    ("77 Fannin St Houston TX", [],
     "77 Fannin St Houston TX", CompletionRule.NONE),
    ("9823 Sagedowne Ln, Houston, Texas", [],
     "9823 Sagedowne Ln, Houston, Texas", CompletionRule.NONE),
    ("600 Travis St, TX 77002", [],
     "600 Travis St, TX 77002", CompletionRule.NONE),
    ("500 Crawford St, Houston", [],
     "500 Crawford St, Houston, Texas", CompletionRule.TEXAS_APPENDED),
    ("808 Travis St, Pearland", ["houstonflood"],
     "808 Travis St, Pearland, Texas", CompletionRule.TEXAS_APPENDED),
    ("123 Main St 77002", [],
     "123 Main St 77002, Texas", CompletionRule.TEXAS_APPENDED),
    ("44 Elm St, Miami, FL", [],
     "44 Elm St, Miami, FL, Texas", CompletionRule.TEXAS_APPENDED),
    ("12 Oak St, Katy", [],
     "12 Oak St, Katy, Texas", CompletionRule.TEXAS_APPENDED),
]


def test_criterion_4_completion_rule_table():
    assert len(COMPLETION_TABLE) == 20
    for text, hashtags, expected_completed, expected_rule in COMPLETION_TABLE:
        address = extract_full_address(detect_address(text))
        assert address is not None, text
        done = complete_address(address, hashtags)
        assert done.completed == expected_completed, text
        assert done.completion_rule is expected_rule, text
        assert contains_texas(done.completed), text
    _ok(4, "all 20 completion cases pass and every result names Texas")


def _pipeline_geojson(data_dir, geocoder, sequential: bool) -> bytes:
    lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()
    requests, _ = run_pipeline(
        lines,
        stream_cfg=StreamConfig(),
        lex=LEX,
        geocoder=geocoder,
        sequential=sequential,
    )
    return to_geojson(requests).encode("utf-8")


def test_criterion_5_end_to_end_determinism(data_dir, pooled_geocoder):
    gazetteer = data_dir / "gazetteer.tsv"
    first = _pipeline_geojson(data_dir, Geocoder(Gazetteer.load(gazetteer)), sequential=True)
    second = _pipeline_geojson(data_dir, Geocoder(Gazetteer.load(gazetteer)), sequential=True)
    concurrent = _pipeline_geojson(data_dir, pooled_geocoder(gazetteer), sequential=False)
    assert first == second
    assert first == concurrent
    count = len(json.loads(first)["features"])
    _ok(5, f"byte-identical GeoJSON across runs and modes ({count} features)")


def test_criterion_6_geocode_cache_soundness():
    class CountingBackend:
        calls = 0

        def resolve(self, query):
            CountingBackend.calls += 1
            return GeocodeResult(
                point=GeoPoint(-95.4, 29.7),
                status=GeocodeStatus.OK,
            )

    geocoder = Geocoder(CountingBackend())
    queries = [f"{i} Sample St, Houston, TX" for i in range(50)]
    for i in range(1000):
        result = geocoder.geocode(queries[(i * 7) % 50])
        assert result.status is GeocodeStatus.OK
    assert CountingBackend.calls == 50
    _ok(6, "1,000 queries over 50 addresses hit the backend exactly 50 times")


_THROUGHPUT_TEMPLATES = [
    "Please help! stranded at {n} Braeswood Blvd, Houston, TX #HoustonFlood",
    "Nothing to see here, just rain and more rain in this city tonight",
    "We have shelter for 40 at {n} Main St #Harvey",
    "Breaking news: flooding continues across Harris County as Harvey stalls",
    "Family trapped at {n} Telephone Rd, please hurry #HurricaneHarvey",
    "The administration should fix the drainage policy #Harvey",
    "Need a boat at {n} Highway 6, water at the windows #HarveyRescue",
    "Flood cleanup sale, 30% discount on pumps #Houston",
    "Praying for everyone on the coast tonight, stay dry",
    "Open house Sunday at {n} Oak St, Houston TX",
]


def _synthetic_texts(count: int):
    for i in range(count):
        yield _THROUGHPUT_TEMPLATES[i % 10].format(n=1000 + (i % 8999))


def _classify_and_extract(text: str) -> bool:
    vector = extract_features(text, LEX)
    if classify(vector) is Verdict.RESCUE_REQUEST:
        complete_address(extract_full_address(detect_address(text)), ("houstonflood",))
        return True
    return False


def test_criterion_7_throughput_and_bounded_memory():
    total = 100_000
    _classify_and_extract(next(_synthetic_texts(1)))  # warm pattern caches
    start = time.perf_counter()
    positives = sum(1 for text in _synthetic_texts(total) if _classify_and_extract(text))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    assert positives == total * 3 // 10

    tracemalloc.start()
    for text in _synthetic_texts(30_000):
        _classify_and_extract(text)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 32 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB"
    _ok(
        7,
        f"100,000 tweets classified+extracted in {elapsed:.1f}s; "
        f"streaming peak {peak / 1024:.0f} KB",
    )


def test_criterion_8_output_validity(data_dir):
    lines = (data_dir / "replay_corpus.ndjson").read_text(encoding="utf-8").splitlines()
    injected = json.dumps(
        {
            "id": "inject-1",
            "text": 'Please help <script>alert("x")</script> stuck at 4055 Braeswood Blvd #Harvey',
            "created_at": "2017-08-28T12:00:00Z",
        }
    )
    geocoder = Geocoder(Gazetteer.load(data_dir / "gazetteer.tsv"))
    requests, summary = run_pipeline(
        lines + [injected], stream_cfg=StreamConfig(), lex=LEX, geocoder=geocoder
    )

    geojson_text = to_geojson(requests)
    doc = json.loads(geojson_text)  # parses
    re_serialized = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)
    assert json.loads(re_serialized) == doc  # round-trips
    assert len(doc["features"]) + len(doc["ungeocoded"]) == summary.classified_positive

    map_doc = to_map_document(requests)
    payload = map_doc[map_doc.index("var PAYLOAD") :]
    assert "<script>" not in payload
    # The injected text is still present, but double-escaped (HTML entities
    # inside a JSON block whose '&', '<', '>' are unicode-escaped).
    assert "\\u0026lt;script\\u0026gt;" in payload
    _ok(
        8,
        f"GeoJSON parses and round-trips; {len(doc['features'])} features + "
        f"{len(doc['ungeocoded'])} ungeocoded = {summary.classified_positive} positives; "
        "injected markup escaped",
    )
