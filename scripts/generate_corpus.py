#!/usr/bin/env python3
"""Generate the shipped synthetic corpus, deterministically.

Outputs (written into data/):
  labelled_corpus.csv   id,text,label rows for the evaluation harness
  replay_corpus.ndjson  the same records as an NDJSON stream for the pipeline
  gazetteer.tsv         offline geocodes for the corpus's completed addresses

Generation rules
----------------
* Fixed RNG seed (20170827); regenerating produces byte-identical files.
* Positive rows (label 1) are rescue requests: a help phrase or situation
  word plus a street address, with locality attached in rotating styles
  (", Houston, TX", bare "Houston TX", city only, zip only, hashtag-only,
  or nothing). A handful of positives intentionally lack a house number
  (school/landmark phrasing) and two are Spanish-only, so the default
  classifier misses them; that keeps the corpus honest about the method's
  known failure modes.
* Negative rows (label 0) cover the five negative-feature categories
  (status updates, help offers, news reports, political posts, ads), plain
  chatter, address-only posts with no disaster context, and a few
  nostalgic/hypothetical posts the classifier wrongly accepts.
* Timestamps walk forward through Aug 26-31 2017 (UTC). Records whose text
  misses every stream keyword get coordinates inside the collection
  bounding box when they are rescue requests (an archived stream would not
  contain them otherwise); other records get coordinates at random.
* The gazetteer holds coordinates for every completed address that
  run_pipeline produces from replay_corpus.ndjson, except the last two,
  which stay ungeocoded on purpose.
"""
from __future__ import annotations

import csv
import json
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from rescuemap import (  # noqa: E402
    Gazetteer,
    Geocoder,
    StreamConfig,
    default_lexicon,
    normalize_query,
    parse_tweet,
    passes_stream_filter,
    run_pipeline,
)

SEED = 20170827
START = datetime(2017, 8, 26, 6, 0, 0, tzinfo=timezone.utc)

HELP_PHRASES = ["Please help", "Need rescue", "Send help", "Help us", "SOS", "Need a boat"]
SITUATIONS = ["stranded", "stuck", "trapped", "flooded"]
STREETS_FORM1 = [
    "Braeswood Blvd",
    "South Braeswood Blvd",
    "#Braeswood Boulevard",
    "Sagedowne Ln",
    "Westheimer Rd",
    "Bellaire Blvd",
    "Telephone Rd",
    "Bissonnet St",
    "Airline Dr",
    "Homestead Rd",
    "Greens Bayou Ct",
    "Clay Rd",
    "Wayside Dr",
    "Cypress Creek Pkwy",
    "Tidwell Rd",
    "N. MacGregor Way",
]
STREETS_FORM2 = ["Highway 6", "Ave. B", "Road 36", "Route 90", "Hwy 90"]
LOCALITIES = [
    ", Houston, TX",
    ", Houston, TX {zip}",
    " Houston TX",
    ", Houston",
    ", Pasadena, TX",
    ", Katy, TX",
    ", Pearland",
    " {zip}",
    "",
    "",
]
DISASTER_TAGS = ["#HoustonFlood", "#HurricaneHarvey", "#Harvey", "#HarveyRescue", "#HarveySOS"]
HANDLES = ["@HoustonOEM", "@KPRC2", "@abc13houston", "@HCSOTexas", "@TxDPS"]


def _positive_rows(rng: random.Random) -> list[tuple[str, int]]:
    rows: list[tuple[str, int]] = []
    streets = STREETS_FORM1 + STREETS_FORM2
    for i in range(66):
        number = rng.randint(1, 99999)
        street = streets[i % len(streets)]
        locality = LOCALITIES[i % len(LOCALITIES)].format(zip=rng.choice(["77002", "77025", "77089"]))
        tag = DISASTER_TAGS[i % len(DISASTER_TAGS)]
        style = i % 5
        if style == 0:
            text = f"{rng.choice(HELP_PHRASES)}! {rng.choice(SITUATIONS)} at {number} {street}{locality} {tag}"
        elif style == 1:
            text = f"{rng.choice(HELP_PHRASES)}, {rng.randint(2, 8)} people at {number} {street}{locality} {tag}"
        elif style == 2:
            text = f"Family {rng.choice(SITUATIONS)} on the roof at {number} {street}{locality}, please hurry {tag}"
        elif style == 3:
            text = f"{tag} {rng.choice(HELP_PHRASES).lower()}, elderly neighbor {rng.choice(SITUATIONS)} at {number} {street}{locality}"
        else:
            text = (
                f"{rng.choice(HANDLES)} {rng.choice(HELP_PHRASES).lower()}, "
                f"{rng.choice(SITUATIONS)} with {rng.randint(1, 4)} kids at {number} {street}{locality} {tag}"
            )
        rows.append((text, 1))
    # Requests without a usable house number: known false negatives.
    fn_texts = [
        "@KPRC2 there are stranded families at Creech Elementary on Mason Rd. You have boats nearby. Please send them!",
        "People trapped at Lakewood Church on the feeder, water still rising #Harvey",
        "My grandma is stuck near the Fiesta on Wayside, wheelchair, please help #HoustonFlood",
        "Neighbors stranded on top of the gas station at Tidwell and Mesa #HurricaneHarvey",
        "Need rescue at the end of Greens Rd by the bayou, no boat can reach us #Harvey",
        "Whole block flooded behind the church on Bellfort, families on rooftops #HoustonFlood",
    ]
    rows.extend((t, 1) for t in fn_texts)
    # Spanish-only requests: missed unless the Spanish overlay is enabled.
    rows.append(("Ayuda por favor, estamos atrapados en la azotea, 7412 Canal St", 1))
    rows.append(("Socorro! familia varada en 1503 Navigation Blvd, agua subiendo", 1))
    return rows


def _negative_rows(rng: random.Random) -> list[tuple[str, int]]:
    rows: list[tuple[str, int]] = []
    for i in range(34):
        number = rng.randint(100, 9999)
        street = STREETS_FORM1[i % len(STREETS_FORM1)]
        tag = DISASTER_TAGS[i % len(DISASTER_TAGS)]
        kind = i % 4
        if kind == 0:
            text = f"Offering dry clothes, water and {rng.choice(['food', 'cots', 'blankets'])} at {number} {street}, Houston {tag}"
        elif kind == 1:
            text = f"We have shelter for {rng.randint(10, 60)} people at {number} {street} {tag}"
        elif kind == 2:
            text = f"Rescued from {number} {street}, whole family safe now, thank you volunteers {tag}"
        else:
            text = f"Update from {number} {street}: water {rng.choice(['receding', 'holding steady'])}, still no power {tag}"
        rows.append((text, 0))
    for i in range(24):
        tag = DISASTER_TAGS[i % len(DISASTER_TAGS)]
        kind = i % 4
        if kind == 0:
            text = f"Breaking news: evacuations ordered across {rng.choice(['Harris', 'Fort Bend', 'Brazoria'])} County as Harvey stalls {tag}"
        elif kind == 1:
            text = f"Reports of a levee breach near {rng.choice(['Columbia Lakes', 'Barker', 'Addicks'])}, heavy flooding expected {tag}"
        elif kind == 2:
            text = f"Live coverage of the flooding continues all night on channel {rng.randint(2, 13)} {tag}"
        else:
            text = f"Reports say over {rng.randint(20, 50)} inches of rain have fallen on Houston {tag}"
        rows.append((text, 0))
    for i in range(18):
        kind = i % 3
        handle = HANDLES[i % len(HANDLES)]
        if kind == 0:
            text = f"{handle} the administration response to this flood is shameful, fix the policy #Harvey"
        elif kind == 1:
            text = f"Blame {rng.choice(['decades of', 'years of', 'all that'])} bad drainage policy for the Houston flooding, vote accordingly #Harvey"
        else:
            text = f"The administration should release emergency funds {rng.choice(['today', 'right now', 'this week'])} #HurricaneHarvey"
        rows.append((text, 0))
    for i in range(16):
        kind = i % 3
        if kind == 0:
            text = f"Flood cleanup SALE, {rng.randint(10, 40)}% discount on pumps this week only #Houston #Harvey"
        elif kind == 1:
            text = f"Promo code HARVEY{rng.randint(10, 99)} for free delivery on storm supplies #Harvey"
        else:
            text = f"Generator clearance sale starts tomorrow, {rng.randint(10, 30)} units left #HurricaneHarvey"
        rows.append((text, 0))
    chatter = [
        "Praying for everyone in the path of Hurricane Harvey tonight",
        "Stay strong Houston, we are with you #HurricaneHarvey",
        "Never seen rain like this in my life #Harvey",
        "School cancelled all week because of the flooding",
        "The bayou behind our house is almost at the top #Harvey",
        "Thin line between a storm and a catastrophe. Thinking of Texas tonight",
        "Hurricane parties are over, this got real #Harvey",
        "Checking on friends and family all over Houston tonight #HoustonFlood",
        "My street is a river right now #HoustonFlooding",
        "Power flickering all night but we are okay #Harvey",
        "First responders are heroes, full stop #HurricaneHarvey",
        "Donating to the food bank this week, Houston strong",
        "Grilling this weekend, come by y'all",
        "Missing the sunshine already, crazy week ahead",
        "Line one of a long night\nline two, still raining #Harvey",
        "RT @abc13houston: incredible images of Hurricane Harvey from space",
    ]
    rows.extend((t, 0) for t in chatter)
    for i in range(16):
        number = rng.randint(100, 9999)
        street = STREETS_FORM1[(i * 3) % len(STREETS_FORM1)]
        kind = i % 3
        if kind == 0:
            text = f"Just listed: {number} {street}, Houston TX, open house Sunday"
        elif kind == 1:
            text = f"New coffee shop at {number} {street} is actually great, try the kolaches"
        else:
            text = f"Office move! Find us at {number} {street}, Houston TX starting Monday"
        rows.append((text, 0))
    fp_texts = [
        "Remembering the 2015 flood when I was stuck at 808 Travis St for a day #Houston",
        "Movie night: Hurricane Harvey documentary screening at 500 Crawford St tonight",
        "Drill complete: simulated rescue of family trapped at 2200 Polk St went well #Harvey",
        "Writing a story where the hero is stranded at 77 Fannin St during the flooding",
    ]
    rows.extend((t, 0) for t in fp_texts)
    return rows


def build_rows() -> list[dict]:
    rng = random.Random(SEED)
    labelled = _positive_rows(rng) + _negative_rows(rng)
    rng.shuffle(labelled)
    keyword_cfg = StreamConfig(bbox=None)
    rows = []
    moment = START
    for i, (text, label) in enumerate(labelled, start=1):
        moment += timedelta(minutes=rng.randint(17, 43))
        record = {
            "id": f"s{i:04d}",
            "text": text,
            "label": label,
            "created_at": moment.strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        wants_coords = rng.random() < 0.35
        if label == 1 and not passes_stream_filter(parse_tweet(json.dumps(record)), keyword_cfg):
            wants_coords = True  # a streamed archive would only hold matching records
        if wants_coords:
            record["coordinates"] = [
                round(-95.8 + rng.random() * 1.2, 4),
                round(29.4 + rng.random() * 0.9, 4),
            ]
        rows.append(record)
    return rows


def write_outputs(rows: list[dict], out_dir: Path) -> None:
    csv_path = out_dir / "labelled_corpus.csv"
    with csv_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "text", "label"])
        for row in rows:
            writer.writerow([row["id"], row["text"], row["label"]])

    ndjson_path = out_dir / "replay_corpus.ndjson"
    with ndjson_path.open("w", encoding="utf-8") as handle:
        for row in rows:
            record = {k: v for k, v in row.items() if k != "label"}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")

    # Geocode table: replay the corpus through the pipeline to learn the
    # completed address strings, then assign deterministic in-town coordinates.
    with ndjson_path.open(encoding="utf-8") as handle:
        requests, _ = run_pipeline(
            handle,
            stream_cfg=StreamConfig(),
            lex=default_lexicon(),
            geocoder=Geocoder(Gazetteer({})),
        )
    completed: list[str] = []
    seen = set()
    for request in requests:
        key = normalize_query(request.address.completed)
        if key not in seen:
            seen.add(key)
            completed.append(request.address.completed)

    gazetteer_path = out_dir / "gazetteer.tsv"
    with gazetteer_path.open("w", encoding="utf-8") as handle:
        handle.write("# Offline gazetteer for the synthetic replay corpus.\n")
        handle.write("# address <TAB> longitude <TAB> latitude\n")
        for i, address in enumerate(completed[:-2] if len(completed) > 2 else completed):
            lon = round(-95.75 + (i % 40) * 0.0123, 4)
            lat = round(29.48 + (i // 40) * 0.0171 + (i % 7) * 0.0013, 4)
            handle.write(f"{address}\t{lon}\t{lat}\n")

    print(f"rows: {len(rows)}  positives: {sum(r['label'] for r in rows)}")
    print(f"pipeline positives: {len(completed)} unique completed addresses")
    print(f"gazetteer entries: {max(len(completed) - 2, 0)} (2 left ungeocoded)")
    for path in (csv_path, ndjson_path, gazetteer_path):
        print(f"wrote {path}")


if __name__ == "__main__":
    write_outputs(build_rows(), REPO / "data")
