#!/usr/bin/env python3
"""Seeded input generators for the rescuemap benchmark.

Each workload writes, into an output directory:

  input.ndjson   the replayed stream; the only thing the pipeline sees
  expect.json    the input line count and the RunSummary the generator predicts
  service.json   (geocode_latency only) the fake geocoding service's answers,
                 keyed by :func:`service_key` of the completed address

The same seed always gives the same files. Every workload has fixed counts
per record kind, so the amount of work does not depend on the seed; the seed
only picks content and order.

Usage: python3 benchmark/generate.py WORKLOAD SEED OUT_DIR  (from the repo root)
"""
from __future__ import annotations

import json
import random
import re
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

DATA = Path("data")

# The shipped run: `rescuemap pipeline --config data/pipeline_config.json`.
SHIPPED_SUMMARY = {
    "read": 202,
    "malformed": 0,
    "duplicates": 0,
    "stream_passed": 178,
    "stream_rejected": 24,
    "classified_positive": 70,
    "geocoded_ok": 68,
    "geocode_failed": 2,
}

REPLAY_COPIES = 25

HELP_PHRASES = ["Please help", "Need rescue", "Send help", "Help us", "SOS", "Need a boat"]
SITUATIONS = ["stranded", "stuck", "trapped", "flooded"]
STREETS = [
    "Braeswood Blvd", "Westheimer Rd", "Bellaire Blvd", "Telephone Rd", "Bissonnet St",
    "Airline Dr", "Homestead Rd", "Greens Bayou Ct", "Clay Rd", "Wayside Dr",
    "Tidwell Rd", "Cypress Creek Pkwy", "Sagedowne Ln",
]
CITIES = ["Houston", "Pasadena", "Katy", "Pearland", "Baytown"]
# Every tag contains "harvey", so each request passes the keyword filter.
RESCUE_TAGS = ["#Harvey", "#HarveyRescue", "#HurricaneHarvey", "#HarveySOS"]
START = datetime(2017, 8, 26, 6, 0, 0, tzinfo=timezone.utc)


def service_key(query: str) -> str:
    """The fake geocoding service's own address normalisation."""
    return " ".join(query.replace(",", " ").split()).casefold()


def _iso(rng: random.Random) -> str:
    return (START + timedelta(seconds=rng.randrange(5 * 86400))).strftime("%Y-%m-%dT%H:%M:%SZ")


def _dump(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False)


def _summary(read, malformed, duplicates, passed, positive, ok) -> dict:
    return {
        "read": read,
        "malformed": malformed,
        "duplicates": duplicates,
        "stream_passed": passed,
        "stream_rejected": read - passed,
        "classified_positive": positive,
        "geocoded_ok": ok,
        "geocode_failed": positive - ok,
    }


# --- replay_triage ------------------------------------------------------------

def replay_triage(rng: random.Random) -> tuple[list[str], dict, dict | None]:
    """The shipped corpus, copied with suffixed ids and shuffled."""
    base = [json.loads(line) for line in (DATA / "replay_corpus.ndjson").open(encoding="utf-8")]
    lines = []
    for copy in range(REPLAY_COPIES):
        for record in base:
            lines.append(_dump({**record, "id": f"{record['id']}-{copy:03d}"}))
    rng.shuffle(lines)
    expect = {k: v * REPLAY_COPIES for k, v in SHIPPED_SUMMARY.items()}
    return lines, expect, None


# --- geocode_latency ----------------------------------------------------------

GEO_OK_DISTINCT = 780
GEO_OK_REPEATS = 98
GEO_ZERO = 40
GEO_ERROR_USES = 8  # per always-failing address
GEO_CHATTER = 50
# Always answer 429 or 500, whatever the seed, so the uncached retry path runs.
GEO_ERROR_ADDRESSES = {
    "101 Main St, Houston, TX": (429, ""),
    "202 Main St, Houston, TX": (429, ""),
    "303 Fannin St, Houston, TX": (500, json.dumps({"status": "UNKNOWN_ERROR", "results": []})),
    "404 Fannin St, Houston, TX": (500, json.dumps({"status": "UNKNOWN_ERROR", "results": []})),
}
ZERO_BODY = json.dumps({"status": "ZERO_RESULTS", "results": []})


def _ok_body(rng: random.Random) -> str:
    location = {"lat": round(rng.uniform(29.5, 30.1), 5), "lng": round(rng.uniform(-95.8, -95.0), 5)}
    return json.dumps(
        {"status": "OK", "results": [{"geometry": {"location": location, "location_type": "ROOFTOP"}}]}
    )


def _distinct_addresses(rng: random.Random, count: int) -> list[str]:
    numbers = rng.sample(range(1000, 99999), count)
    return [f"{n} {rng.choice(STREETS)}, {rng.choice(CITIES)}, TX" for n in numbers]


def _rescue_text(rng: random.Random, address: str) -> str:
    return (
        f"{rng.choice(HELP_PHRASES)}! {rng.randint(2, 8)} people {rng.choice(SITUATIONS)} "
        f"at {address} {rng.choice(RESCUE_TAGS)}"
    )


def geocode_latency(rng: random.Random) -> tuple[list[str], dict, dict]:
    """Rescue requests with mostly distinct addresses, geocoded over fake HTTP."""
    distinct = _distinct_addresses(rng, GEO_OK_DISTINCT + GEO_ZERO)
    ok, zero = distinct[:GEO_OK_DISTINCT], distinct[GEO_OK_DISTINCT:]
    service = {service_key(a): (200, _ok_body(rng)) for a in ok}
    service.update({service_key(a): (200, ZERO_BODY) for a in zero})
    service.update({service_key(a): answer for a, answer in GEO_ERROR_ADDRESSES.items()})

    addresses = ok + zero + [rng.choice(ok) for _ in range(GEO_OK_REPEATS)]
    addresses += [a for a in GEO_ERROR_ADDRESSES for _ in range(GEO_ERROR_USES)]
    texts = [_rescue_text(rng, a) for a in addresses]
    texts += [
        f"Rain still coming down in {rng.choice(CITIES)}, stay dry everyone {rng.choice(RESCUE_TAGS)}"
        for _ in range(GEO_CHATTER)
    ]
    rng.shuffle(texts)
    lines = [
        _dump({"id": f"g{i:05d}", "text": text, "created_at": _iso(rng)})
        for i, text in enumerate(texts)
    ]
    positive = len(addresses)
    ok_count = GEO_OK_DISTINCT + GEO_OK_REPEATS
    return lines, _summary(len(lines), 0, 0, len(lines), positive, ok_count), service


# --- noisy_stream -------------------------------------------------------------

NOISY_REJECTED = 16800
NOISY_BBOX_CHATTER = 1000
NOISY_KEYWORD_CHATTER = 700
NOISY_FOUND = 270
NOISY_NOT_FOUND = 30
NOISY_MALFORMED = 400
NOISY_DUPLICATES = 800

# No stream keyword ("hurricane", "flooding", "#harvey") and no digits, so
# these never pass on keywords and never carry an address.
OFF_TOPIC = [
    "Great game tonight, what a finish",
    "Anyone know a good coffee place downtown",
    "Traffic is terrible this morning again",
    "New album drops Friday and I cannot wait",
    "Happy birthday to my little sister",
    "This weather is perfect for a long run",
    "Just finished the best book of the year",
    "Who else is watching the match tonight",
    "Lunch with the team, tacos all around",
    "Monday mornings should be illegal",
]
OFF_TOPIC_TAGS = ["mondaymotivation", "nyc", "coffee", "music", "running", "tacos", "books"]
KEYWORD_CHATTER = [
    "The flooding near downtown is unreal",
    "Praying for everyone affected by #Harvey",
    "Hurricane coverage all night on every channel",
    "Street flooding again, stay off the roads",
    "Thinking of friends on the coast tonight #HurricaneHarvey",
]
USER_LOCATIONS = ["Brooklyn, NY", "Denver, CO", "Seattle", "Chicago, IL", "Houston, TX", "", "earth"]
_SIMPLE_GAZETTEER = re.compile(r"^\d+ [A-Za-z. ]+, (Houston|Katy|Pasadena), TX$")


def _twitter_time(rng: random.Random) -> str:
    return (START + timedelta(seconds=rng.randrange(5 * 86400))).strftime("%a %b %d %H:%M:%S +0000 %Y")


def _v1_record(rng: random.Random, tweet_id: int, text: str, tags: list[str], coords) -> dict:
    return {
        "created_at": _twitter_time(rng),
        "id": tweet_id,
        "id_str": str(tweet_id),
        "full_text": text,
        "truncated": False,
        "entities": {"hashtags": [{"text": t, "indices": [0, len(t) + 1]} for t in tags], "urls": []},
        "user": {
            "id": rng.randrange(10**9),
            "screen_name": f"user{rng.randrange(10**6)}",
            "location": rng.choice(USER_LOCATIONS),
        },
        "coordinates": None if coords is None else {"type": "Point", "coordinates": list(coords)},
        "retweet_count": rng.randrange(50),
        "lang": "en",
    }


def _outside_bbox(rng: random.Random):
    if rng.random() < 0.5:
        return None
    west = rng.random() < 0.5
    lon = rng.uniform(-124.0, -100.0) if west else rng.uniform(-89.0, -70.0)
    return (round(lon, 4), round(rng.uniform(35.0, 48.0), 4))


def _inside_bbox(rng: random.Random):
    return (round(rng.uniform(-98.5, -91.0), 4), round(rng.uniform(28.0, 33.0), 4))


def _malformed(rng: random.Random, kind: int, tweet_id: int) -> str:
    record = _v1_record(rng, tweet_id, rng.choice(OFF_TOPIC), [], None)
    if kind == 0:
        line = _dump(record)
        return line[: len(line) // 2]
    if kind == 1:
        return json.dumps([tweet_id, record["full_text"]])
    if kind == 2:
        del record["id"], record["id_str"]
    elif kind == 3:
        del record["full_text"]
    elif kind == 4:
        record["created_at"] = "yesterday-ish"
    elif kind == 5:
        record["coordinates"] = {"type": "Point", "coordinates": [200.0, 100.0]}
    else:
        record["coordinates"] = {"type": "Point", "coordinates": ["east", "north"]}
    return _dump(record)


def noisy_stream(rng: random.Random) -> tuple[list[str], dict, None]:
    """Twitter-v1 records, mostly off-topic, with malformed lines and duplicate ids."""
    found = []
    for line in (DATA / "gazetteer.tsv").open(encoding="utf-8"):
        address = line.split("\t")[0]
        if _SIMPLE_GAZETTEER.match(address):
            found.append(address)
    known = {service_key(a) for a in found}
    missing = [a for a in _distinct_addresses(rng, NOISY_NOT_FOUND * 2) if service_key(a) not in known]
    missing = missing[:NOISY_NOT_FOUND]

    ids = iter(range(901_000_000_000_000_000, 902_000_000_000_000_000, 7919))
    valid = []
    for _ in range(NOISY_REJECTED):
        tags = rng.sample(OFF_TOPIC_TAGS, rng.randint(0, 2))
        text = rng.choice(OFF_TOPIC) + "".join(f" #{t}" for t in tags)
        valid.append(_v1_record(rng, next(ids), text, tags, _outside_bbox(rng)))
    for _ in range(NOISY_BBOX_CHATTER):
        valid.append(_v1_record(rng, next(ids), rng.choice(OFF_TOPIC), [], _inside_bbox(rng)))
    for _ in range(NOISY_KEYWORD_CHATTER):
        valid.append(_v1_record(rng, next(ids), rng.choice(KEYWORD_CHATTER), [], _outside_bbox(rng)))
    addresses = [rng.choice(found) for _ in range(NOISY_FOUND)] + missing
    for address in addresses:
        valid.append(_v1_record(rng, next(ids), _rescue_text(rng, address), ["HarveyRescue"], None))

    lines = [_dump(r) for r in valid]
    valid_lines = set(lines)
    lines += [_malformed(rng, i % 7, next(ids)) for i in range(NOISY_MALFORMED)]
    rng.shuffle(lines)
    # Duplicates copy a valid line from the first half into the second half.
    half = len(lines) // 2
    valid_first = [line for line in lines[:half] if line in valid_lines]
    second = lines[half:] + [rng.choice(valid_first) for _ in range(NOISY_DUPLICATES)]
    rng.shuffle(second)
    lines = lines[:half] + second

    passed = NOISY_BBOX_CHATTER + NOISY_KEYWORD_CHATTER + len(addresses)
    expect = _summary(len(valid), NOISY_MALFORMED, NOISY_DUPLICATES, passed, len(addresses), NOISY_FOUND)
    return lines, expect, None


WORKLOADS = {
    "replay_triage": replay_triage,
    "geocode_latency": geocode_latency,
    "noisy_stream": noisy_stream,
}


def generate(workload: str, seed: int, out_dir: Path) -> None:
    lines, expect, service = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "input.ndjson").open("w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    (out_dir / "expect.json").write_text(json.dumps({"lines": len(lines), "summary": expect}))
    if service is not None:
        (out_dir / "service.json").write_text(json.dumps(service))


if __name__ == "__main__":
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
