"""Differential tests for ingest, each against the code it replaced, kept here
as the reference:

- the stream filter with keywords folded once per `StreamConfig` against the
  filter that folded them for every record;
- `parse_tweet`, `merge_hashtags` and `read_stream` against the versions that
  built hashtags through a list, the `Tweet` through keyword arguments, the
  canonical Twitter-v1 `created_at` through `datetime(...)` and a cached fixed
  offset, tested blank lines through `line.strip()` and decoded each line with
  `json.loads`;
- the line decoder, `_decode_json`, against `json.loads` itself.
"""
from __future__ import annotations

import codecs
import json
import re
from collections.abc import Iterable, Iterator, Mapping
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from zoneinfo import ZoneInfo

import pytest
from hypothesis import example, given, settings, strategies as st
from test_ingest import _in_grammar
from test_pipeline_property import _any_value, _json_values

from rescuemap import (
    HARVEY_BBOX,
    IngestStats,
    StreamConfig,
    Tweet,
    TweetParseError,
    extract_hashtags,
    parse_tweet,
    passes_stream_filter,
    read_stream,
)
from rescuemap.ingest import _decode_json, merge_hashtags


def reference_passes_stream_filter(tweet: Tweet, cfg: StreamConfig) -> bool:
    text = tweet.text.casefold()
    for keyword in cfg.track_keywords:
        folded = keyword.casefold()
        if folded and folded in text:
            return True
        bare = folded.lstrip("#")
        if bare and any(bare in tag for tag in tweet.hashtags):
            return True
    if cfg.bbox is not None and tweet.coordinates is not None:
        return cfg.bbox.contains(*tweet.coordinates)
    return False


# Characters whose case folds grow or change: ß -> ss, İ -> i + U+0307,
# ſ -> s, Kelvin sign -> k; also dotless ı, a bare U+0307 and é.
_ALPHABET = "aiksSK #\u00df\u0130\u0131\u017f\u212a\u0307\u00e9"
_words = st.text(_ALPHABET, max_size=6)
_keywords = st.one_of(
    _words, st.sampled_from(["", "#", "##", "#\u00df", "SS", "\u0130", "i\u0307", "#harvey"])
)
_coordinates = st.one_of(
    st.none(),
    st.tuples(st.floats(-100.0, -90.0), st.floats(27.0, 34.0)),
)
# The stream filter reads no time; every Tweet needs one.
_NOON = datetime(2017, 8, 27, 12, tzinfo=timezone.utc)


@settings(max_examples=500, deadline=None)
@given(
    keywords=st.lists(_keywords, max_size=4),
    text=st.lists(_words, max_size=4).map(" ".join),
    extra_tags=st.lists(_words, max_size=2),
    coordinates=_coordinates,
    use_bbox=st.booleans(),
)
@example(keywords=["#"], text="#", extra_tags=[], coordinates=None, use_bbox=False)
@example(keywords=["\u00df"], text="STRASSE", extra_tags=[], coordinates=None, use_bbox=False)
@example(keywords=["#\u0130"], text="x", extra_tags=["i\u0307"], coordinates=None, use_bbox=False)
def test_folded_keywords_match_per_record_folding(keywords, text, extra_tags, coordinates, use_bbox):
    bbox = HARVEY_BBOX if use_bbox else None
    if not any(keywords) and bbox is None:
        bbox = HARVEY_BBOX
    cfg = StreamConfig(track_keywords=tuple(keywords), bbox=bbox)
    hashtags = extract_hashtags(text) + tuple(tag.lower() for tag in extra_tags)
    tweet = Tweet(id="1", text=text, created_at_utc=_NOON, hashtags=hashtags, coordinates=coordinates)
    assert passes_stream_filter(tweet, cfg) is reference_passes_stream_filter(tweet, cfg)
    # The folds are cached on the instance but are not a field.
    fresh = StreamConfig(track_keywords=tuple(keywords), bbox=bbox)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)


# --- parse_tweet, merge_hashtags and read_stream ---------------------------------

# The reference's own copies of the definitions it was written against, so that
# a change to the module's tables or patterns cannot move the reference with it.
_EARLIEST_LOCAL_UTC = datetime.min.replace(tzinfo=ZoneInfo("America/Chicago")).astimezone(timezone.utc)
_HASHTAG_RE = re.compile(r"#(\w+)")
_MONTHS = {
    name: number
    for number, name in enumerate(
        ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"), start=1
    )
}
_TWITTER_TIME_RE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (%s) ([0-9]{2}) ([0-9]{2}):([0-9]{2}):([0-9]{2})"
    r" ([+-][0-9]{2}[0-5][0-9]) ([0-9]{4})" % "|".join(_MONTHS)
)


@lru_cache(maxsize=None)
def _fixed_offset(offset: str) -> timezone:
    """The zone of a "+HHMM"/"-HHMM" offset; ValueError from 24 hours on."""
    minutes = int(offset[1:3]) * 60 + int(offset[3:])
    return timezone(timedelta(minutes=-minutes if offset[0] == "-" else minutes))


def reference_merge_hashtags(text: str, extra: Iterable[object]) -> tuple[str, ...]:
    """The text's hashtags, then each further string tag not already present.

    Extra tags are casefolded with leading '#' stripped; empty tags and
    non-strings are skipped.
    """
    tags = [m.group(1).casefold() for m in _HASHTAG_RE.finditer(text)]
    for tag in extra:
        if isinstance(tag, str):
            cleaned = tag.lstrip("#").casefold()
            if cleaned and cleaned not in tags:
                tags.append(cleaned)
    return tuple(tags)


def reference_parse_created_at(value: object) -> datetime:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TweetParseError(f"unsupported created_at type: {type(value).__name__}")
    # Out-of-range instants (1e20, NaN, year 1 with an offset) raise
    # ValueError, OverflowError or OSError from the datetime functions.
    try:
        if not isinstance(value, str):
            parsed = datetime.fromtimestamp(value, tz=timezone.utc)
        else:
            text = value.strip()
            # No string parses in both formats: ISO starts with a digit, the
            # Twitter format with a weekday name. The canonical Twitter form
            # is read first, by one regex match; ISO comes next.
            match = _TWITTER_TIME_RE.fullmatch(text)
            if match is not None:
                month, day, hour, minute, second, offset, year = match.groups()
                parsed = datetime(
                    int(year), _MONTHS[month], int(day), int(hour), int(minute), int(second),
                    tzinfo=_fixed_offset(offset),
                )
            else:
                # A deliberate change: a value outside the written grammar is
                # malformed, though fromisoformat or strptime reads it. So
                # strptime, which read the other Twitter forms, is gone, and
                # after a YYYY-MM-DD date only "T", "t" or a space may follow.
                if not _in_grammar(text):
                    raise ValueError
                parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
                if parsed.tzinfo is None:
                    parsed = parsed.replace(tzinfo=timezone.utc)
            parsed = parsed.astimezone(timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise TweetParseError(f"unparseable created_at: {value!r}") from None
    if parsed < _EARLIEST_LOCAL_UTC:
        raise TweetParseError(f"created_at has no US/Central time: {value!r}")
    return parsed


def reference_parse_coordinates(value: object) -> tuple[float, float]:
    # Accept [lon, lat] or the GeoJSON-style {"coordinates": [lon, lat]}.
    if isinstance(value, Mapping):
        value = value.get("coordinates")
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TweetParseError(f"coordinates must be a [lon, lat] pair: {value!r}")
    try:
        # A deliberate change: a boolean member is non-numeric, where the
        # reference read true and false as 1.0 and 0.0.
        if isinstance(value[0], bool) or isinstance(value[1], bool):
            raise TypeError
        # A deliberate change: a string member is non-numeric, where the
        # reference read "29.7" and " 2_9.7" with float().
        if isinstance(value[0], str) or isinstance(value[1], str):
            raise TypeError
        lon, lat = float(value[0]), float(value[1])
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer of 309+ digits
        raise TweetParseError(f"non-numeric coordinates: {value!r}") from None
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise TweetParseError(f"coordinates out of range: ({lon}, {lat})")
    return (lon, lat)


def reference_encodable(value: str) -> bool:
    """False when ``value`` holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def reference_parse_tweet(record: str | bytes | Mapping) -> Tweet:
    """Parse one newline-delimited JSON record into a :class:`Tweet`.

    Accepts either the raw line (UTF-8 when given as bytes) or an
    already-decoded mapping. Twitter-v1 style field names (``id_str``,
    ``full_text``, ``entities.hashtags``) are understood alongside the plain
    schema; ``user_location`` and ``user.location`` are accepted and ignored.
    """
    if isinstance(record, (str, bytes)):
        try:
            obj = json.loads(record)
        except json.JSONDecodeError as exc:
            raise TweetParseError(f"invalid JSON ({exc.msg})") from None
        except UnicodeDecodeError:
            raise TweetParseError("line is not UTF-8") from None
        except (ValueError, RecursionError) as exc:  # e.g. too deep, or a huge integer
            raise TweetParseError(f"invalid JSON ({type(exc).__name__})") from None
    else:
        obj = record
    # json.loads gives a dict; the exact type test skips the ABC check.
    if type(obj) is not dict and not isinstance(obj, Mapping):
        raise TweetParseError("record is not a JSON object")

    raw_id = obj.get("id_str") or obj.get("id")
    if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)) or not str(raw_id).strip():
        raise TweetParseError("missing id, or id is not a string or an integer")
    text = obj.get("text")
    if text is None:
        text = obj.get("full_text")
    if not isinstance(text, str):
        raise TweetParseError("missing text")
    # Both are written to the UTF-8 outputs; json.loads lets "\ud800" through.
    if not reference_encodable(text) or (isinstance(raw_id, str) and not reference_encodable(raw_id)):
        raise TweetParseError("id or text holds a lone surrogate")
    if "created_at" not in obj:
        raise TweetParseError("missing created_at")
    created = reference_parse_created_at(obj["created_at"])

    provided = obj.get("hashtags")
    if provided is None and isinstance(obj.get("entities"), Mapping):
        entities = obj["entities"].get("hashtags")
        if isinstance(entities, list):
            provided = [e.get("text") for e in entities if isinstance(e, Mapping)]
    hashtags = reference_merge_hashtags(text, provided if isinstance(provided, list) else ())

    coords = None
    if obj.get("coordinates") is not None:
        coords = reference_parse_coordinates(obj["coordinates"])

    return Tweet(
        id=str(raw_id),
        text=text,
        created_at_utc=created,
        hashtags=hashtags,
        coordinates=coords,
    )


def reference_read_stream(
    source: Iterable[str | bytes], stats: IngestStats | None = None
) -> Iterator[Tweet]:
    """Yield tweets from an iterable of NDJSON lines (str or UTF-8 bytes), in input order.

    Malformed lines and duplicate ids are counted in ``stats`` and skipped;
    blank lines are ignored. An unreadable source raises the underlying
    OSError (fatal).
    """
    if stats is None:
        stats = IngestStats()
    seen: set[str] = set()
    for line in source:
        # A deliberate change: a bytes line that decodes to whitespace is blank,
        # as its str form is, where the reference strips ASCII whitespace only
        # and counts it malformed.
        if not (line.decode("utf-8", "replace") if isinstance(line, bytes) else line).strip():
            continue
        try:
            tweet = reference_parse_tweet(line)
        except TweetParseError:
            stats.malformed += 1
            continue
        if tweet.id in seen:
            stats.duplicates += 1
            continue
        seen.add(tweet.id)
        stats.parsed += 1
        yield tweet


# A Twitter-v1 record and a plain one, each field absent, plausible or any JSON
# value from the whole-pipeline property test's pool.
_V1_FIELDS = ("id", "id_str", "full_text", "created_at", "entities", "user", "coordinates")
_PLAIN_FIELDS = ("id", "text", "created_at", "hashtags", "coordinates")
_entities = st.fixed_dictionaries({
    "hashtags": st.one_of(
        st.lists(st.one_of(st.fixed_dictionaries({"text": _json_values}), _json_values), max_size=3),
        _json_values,
    )
})
_v1_values = {key: _any_value[key] for key in _V1_FIELDS}
_v1_values["entities"] = st.one_of(_entities, _any_value["entities"])
_v1_values["created_at"] = st.one_of(
    _any_value["created_at"], st.sampled_from(["Tue Aug 29 11:16:11 -0000 2017", "Tue Aug 29 11:16:11 +0530 2017"])
)
_records = st.one_of(
    st.fixed_dictionaries({}, optional=_v1_values),
    st.fixed_dictionaries({}, optional={key: _any_value[key] for key in _PLAIN_FIELDS}),
    _json_values,
)


def _outcome(parse, record) -> object:
    try:
        tweet = parse(record)
    except TweetParseError as exc:
        return ("TweetParseError", str(exc))
    return tweet, repr(tweet)


def _assert_parses_as_reference(record) -> None:
    # Deliberate changes: a str line drops one leading BOM, as a bytes line
    # always did, where the reference calls it invalid JSON; and a bytes line
    # reports a second BOM as its str form does, where the reference's
    # json.loads drops the first as "utf-8-sig" and then expects a value. The
    # others, boolean and string coordinates and the created_at grammar, are
    # made in the reference's own functions.
    if isinstance(record, str):
        reference_record = record.removeprefix("\ufeff")
    elif isinstance(record, bytes) and record.startswith(codecs.BOM_UTF8 * 2):
        reference_record = record.decode("utf-8")[1:]
    else:
        reference_record = record
    assert _outcome(parse_tweet, record) == _outcome(reference_parse_tweet, reference_record)


@settings(max_examples=500, deadline=None)
@given(record=_records)
@example(record={"id": "1", "text": "#A #a", "created_at": 0, "hashtags": ["#A", "b", "B", 7, "", "#"]})
@example(record={"id": "1", "text": "x \ud800", "created_at": 0})
@example(record={"id": "1\udfff", "text": "x", "created_at": 0})
@example(record={"id": "1", "full_text": "x", "created_at": 0, "entities": {"hashtags": 5}})
@example(record={"id": "1", "text": "x", "created_at": 0, "coordinates": [-95, True]})
@example(record={"id": "1", "text": "x", "created_at": 0, "coordinates": {"coordinates": [" -95.3", "2_9.7"]}})
@example(record={"id": "1", "text": "x", "created_at": True})
@example(record={"id": True, "text": "x", "created_at": 0})
def test_parse_tweet_matches_reference(record):
    line = json.dumps(record)
    _assert_parses_as_reference(line)
    _assert_parses_as_reference(line.encode())


# Lines around the decoder's edges, all but one_bom not one JSON object.
_MALFORMED_LINES = [
    pytest.param("\ufeff{}", id="one_bom"),
    pytest.param("", id="empty"),
    pytest.param(" \t\r\n", id="json_whitespace"),
    pytest.param("\x0b{}", id="vertical_tab_first"),
    pytest.param("\u3000{}", id="ideographic_space_first"),
    pytest.param("{} x", id="extra_data"),
    pytest.param("{} {}", id="two_objects"),
    pytest.param("{}\x0c", id="form_feed_last"),
    pytest.param("\ufeff\ufeff{}", id="two_boms"),
    pytest.param("{}\ufeff", id="bom_last"),
    pytest.param("NaN", id="nan"),
    pytest.param('{"id": "1"', id="unclosed"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested_100k_deep"),  # RecursionError
    pytest.param('{"id": "1", "text": "x", "created_at": 0, "n": ' + "7" * 5000 + "}", id="int_of_5000_digits"),
]


@pytest.mark.parametrize("form", [str, str.encode], ids=["str", "bytes"])
@pytest.mark.parametrize("line", _MALFORMED_LINES)
def test_parse_tweet_matches_reference_on_malformed_lines(line, form):
    _assert_parses_as_reference(form(line))


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=20), extra=st.lists(st.one_of(st.text("#aAßs", max_size=4), _json_values), max_size=4))
def test_merge_hashtags_matches_reference(text, extra):
    assert merge_hashtags(text, extra) == reference_merge_hashtags(text, extra)


_WHITESPACE_LINES = ["", " ", "\t\n", "\x0b", "\x0c", "\x85", "\u3000", "\x1c\u2028"]
_stream_records = st.fixed_dictionaries(
    {"id": st.sampled_from(["1", "2", "3", 4]), "text": _any_value["text"], "created_at": _any_value["created_at"]},
    optional={key: _any_value[key] for key in ("full_text", "hashtags", "entities", "coordinates")},
)
_stream_lines = st.lists(
    st.one_of(
        _stream_records.map(json.dumps),
        _records.map(json.dumps),
        st.sampled_from(_WHITESPACE_LINES),
        st.text(max_size=8),
    ),
    max_size=12,
)


def _replay(read, lines) -> tuple[list[tuple[Tweet, str]], IngestStats]:
    stats = IngestStats()
    return [(tweet, repr(tweet)) for tweet in read(lines, stats)], stats


@settings(max_examples=300, deadline=None)
@given(lines=_stream_lines, raw=st.lists(st.sampled_from([b"\x0b\x0c", b"\x85", b" \r\n", b"\xff", b"{}"]), max_size=3))
@example(lines=_WHITESPACE_LINES, raw=[b"\x0b\x0c"])
def test_read_stream_matches_reference(lines, raw):
    assert _replay(read_stream, lines) == _replay(reference_read_stream, lines)
    encoded = [line.encode("utf-8", "surrogatepass") for line in lines] + raw
    assert _replay(read_stream, encoded) == _replay(reference_read_stream, encoded)


# --- the line decoder against json.loads ------------------------------------------


def _decoded(decode, text: str) -> object:
    try:
        value = decode(text)
    except json.JSONDecodeError as exc:
        return ("JSONDecodeError", exc.msg, exc.pos)
    except (ValueError, RecursionError) as exc:
        return (type(exc).__name__, str(exc))
    # repr tells 1 from 1.0 and True, and -0.0 from 0.0, and shows NaN.
    return ("value", repr(value))


_JSON_TOKENS = [
    "{", "}", "[", "]", ",", ":", '"', '"a"', '""', '"\\u00e9"', '"\\ud800"', "\\",
    "0", "-", "-1", "01", "1.5e3", "1e400", "12345678901234567890",
    "true", "false", "null", "tru", "NaN", "Infinity", "-Infinity", "nan", "x",
]
# json's whitespace, then what str.isspace also calls whitespace, and the BOM.
_JSON_SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x85", "\xa0", "\u3000", "\ufeff"]
_spaces = st.lists(st.sampled_from(_JSON_SPACES), max_size=3).map("".join)
_json_lines = st.one_of(
    st.lists(st.sampled_from(_JSON_TOKENS + _JSON_SPACES), max_size=12).map("".join),
    st.builds(
        lambda lead, value, trail: lead + json.dumps(value) + trail, _spaces, _json_values, _spaces
    ),
)


@settings(max_examples=1000, deadline=None)
@given(_json_lines)
@example("")
@example("{} x")
@example("\ufeff\ufeff{}")
@example("\ufeff{}")
@example("{}\x0c")
@example(" \t\n\r[1, 2] \r\n\t ")
@example("[" * 100_000 + "]" * 100_000)
@example("7" * 5000)
def test_decode_json_matches_json_loads(text):
    assert _decoded(_decode_json, text) == _decoded(json.loads, text)
