from __future__ import annotations

import codecs
import dataclasses
import json
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings, strategies as st
from test_pipeline_property import _RAW_LINES, _records

from rescuemap import (
    BoundingBox,
    IngestStats,
    StreamConfig,
    Tweet,
    TweetParseError,
    extract_hashtags,
    parse_tweet,
    passes_stream_filter,
    read_stream,
    to_local_time,
)
from rescuemap.ingest import US_CENTRAL, _encodable

UTC = timezone.utc


def line(**fields) -> str:
    return json.dumps(fields)


class TestParseTweet:
    def test_twitter_time_format_maps_to_utc(self):
        tweet = parse_tweet(
            line(id="1", text="stranded on rooftop", created_at="Sun Aug 27 12:00:00 +0000 2017")
        )
        assert tweet.created_at_utc == datetime(2017, 8, 27, 12, 0, 0, tzinfo=UTC)
        assert tweet.text == "stranded on rooftop"

    def test_iso_time_format(self):
        tweet = parse_tweet(line(id="1", text="x", created_at="2017-08-27T12:00:00Z"))
        assert tweet.created_at_utc == datetime(2017, 8, 27, 12, 0, 0, tzinfo=UTC)

    def test_missing_coordinates_stay_absent(self):
        tweet = parse_tweet(line(id="1", text="x", created_at="2017-08-27T12:00:00Z"))
        assert tweet.coordinates is None

    def test_hashtags_extracted_from_text(self):
        # Hand-tokenized: '#'-prefixed tokens are HoustonFlood and Harvey.
        tweet = parse_tweet(
            line(id="1", text="Help #HoustonFlood #Harvey", created_at="2017-08-27T12:00:00Z")
        )
        assert tweet.hashtags == ("houstonflood", "harvey")

    def test_unicode_hashtags_stay_whole(self):
        tweet = parse_tweet(
            line(id="1", text="#Ayúdanos por favor", created_at="2017-08-27T12:00:00Z")
        )
        assert tweet.hashtags == ("ayúdanos",)

    def test_provided_hashtags_are_merged(self):
        tweet = parse_tweet(
            line(
                id="1",
                text="Help #HoustonFlood",
                created_at="2017-08-27T12:00:00Z",
                hashtags=["#Harvey", "HoustonFlood"],
            )
        )
        assert tweet.hashtags == ("houstonflood", "harvey")

    def test_twitter_v1_style_fields(self):
        record = line(
            id_str="905",
            full_text="water rising #harvey",
            created_at="Sun Aug 27 12:00:00 +0000 2017",
            coordinates={"type": "Point", "coordinates": [-95.4, 29.7]},
            user={"location": "Houston, TX"},
        )
        tweet = parse_tweet(record)
        assert tweet.id == "905"
        assert tweet.coordinates == (-95.4, 29.7)

    @pytest.mark.parametrize(
        "bad",
        [
            "not json at all",
            line(text="no id", created_at="2017-08-27T12:00:00Z"),
            line(id="1", created_at="2017-08-27T12:00:00Z"),
            line(id="1", text="x"),
            line(id="1", text="x", created_at="yesterday-ish"),
            line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=[200.0, 10.0]),
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=[10**400, 29.7]),
                id="coordinate_too_large_for_a_float",
            ),
            pytest.param(
                line(
                    id="1", text="x", created_at="2017-08-27T12:00:00Z",
                    coordinates={"coordinates": [10**400, 29.7]},
                ),
                id="point_coordinate_too_large_for_a_float",
            ),
            pytest.param('{"id": "1", "text": "x", "created_at": 1e20}', id="created_at_1e20"),
            pytest.param('{"id": "1", "text": "x", "created_at": NaN}', id="created_at_nan"),
            pytest.param(
                line(id="1", text="x", created_at="0001-01-01T00:00:00+01:00"),
                id="created_at_before_year_1_in_utc",
            ),
            pytest.param(
                '{"id": "1", "text": "x", "created_at": "2017-08-27T12:00:00Z", "x": '
                + "[" * 100_000 + "]" * 100_000 + "}",
                id="deep_nesting",
            ),
            pytest.param(
                b'{"id": "1", "text": "x \xff", "created_at": "2017-08-27T12:00:00Z"}',
                id="non_utf8_byte",
            ),
            pytest.param(
                b'{"id": "1", "text": "x", "created_at": "2017-08-27T12:00:00Z", '
                b'"user": {"location": "\xed\xa0\x80"}}',
                id="utf8_encoded_surrogate",
            ),
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z").encode("utf-32-le"),
                id="utf32_line",
            ),
            pytest.param(
                codecs.BOM_UTF16_LE
                + line(id="1", text="x", created_at="2017-08-27T12:00:00Z").encode("utf-16-le"),
                id="utf16_le_line_with_bom",
            ),
            pytest.param(line(id=False, text="x", created_at="2017-08-27T12:00:00Z"), id="id_false"),
            pytest.param(line(id=[1, 2], text="x", created_at="2017-08-27T12:00:00Z"), id="id_list"),
            pytest.param(line(id=" \t", text="x", created_at="2017-08-27T12:00:00Z"), id="id_only_whitespace"),
            # float() reads true and false as 1.0 and 0.0.
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=[True, False]),
                id="coordinates_true_false",
            ),
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=[-95, True]),
                id="coordinates_latitude_true",
            ),
            pytest.param(
                line(
                    id="1", text="x", created_at="2017-08-27T12:00:00Z",
                    coordinates={"type": "Point", "coordinates": [-95.4, True]},
                ),
                id="point_coordinates_latitude_true",
            ),
            # float() reads numeric strings, underscores and padding too.
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=["-95.3", "29.7"]),
                id="coordinates_strings",
            ),
            pytest.param(
                line(id="1", text="x", created_at="2017-08-27T12:00:00Z", coordinates=[-95.3, " 2_9.7"]),
                id="coordinates_latitude_padded_string",
            ),
            pytest.param(
                line(
                    id="1", text="x", created_at="2017-08-27T12:00:00Z",
                    coordinates={"type": "Point", "coordinates": [" -95.3", "2_9.7"]},
                ),
                id="point_coordinates_strings",
            ),
            pytest.param(
                line(id="1", text="x", created_at="0001-01-01T00:30:00Z"),
                id="created_at_before_year_1_in_us_central",
            ),
            pytest.param(
                '{"id": "1", "text": "x \\ud800", "created_at": "2017-08-27T12:00:00Z"}',
                id="text_lone_surrogate",
            ),
            pytest.param(
                '{"id": "1\\udfff", "text": "x", "created_at": "2017-08-27T12:00:00Z"}',
                id="id_lone_surrogate",
            ),
            # The decoder refuses an integer past int-to-str's digit limit, so
            # parse_tweet never prints one.
            pytest.param(
                '{"id": ' + "9" * 5000 + ', "text": "x", "created_at": "2017-08-27T12:00:00Z"}',
                id="id_past_int_str_digit_limit",
            ),
        ],
    )
    def test_malformed_records_raise(self, bad):
        with pytest.raises(TweetParseError):
            parse_tweet(bad)

    def test_earliest_instant_with_a_us_central_time_is_accepted(self):
        # US/Central is UTC-5:50:36 (local mean time) before 1883.
        tweet = parse_tweet(line(id="1", text="x", created_at="0001-01-01T05:50:36Z"))
        assert to_local_time(tweet.created_at_utc).replace(tzinfo=None) == datetime(1, 1, 1)
        with pytest.raises(TweetParseError):
            parse_tweet(line(id="1", text="x", created_at="0001-01-01T05:50:35Z"))

    def test_escaped_surrogate_pair_is_accepted(self):
        tweet = parse_tweet('{"id": "1", "text": "x \\ud83d\\ude00", "created_at": 0}')
        assert tweet.text == "x \U0001f600"

    def test_integer_id_is_accepted(self):
        tweet = parse_tweet(line(id=17, text="x", created_at="2017-08-27T12:00:00Z"))
        assert tweet.id == "17"

    def test_utf8_bytes_line(self):
        raw = line(id="1", text="ayúdanos", created_at="2017-08-27T12:00:00Z").encode("utf-8")
        assert parse_tweet(raw).text == "ayúdanos"

    def test_utf8_bytes_line_with_bom(self):
        raw = codecs.BOM_UTF8 + line(id="1", text="ayúdanos", created_at=0).encode("utf-8")
        assert parse_tweet(raw).text == "ayúdanos"

    @pytest.mark.parametrize("form", [str, str.encode], ids=["str", "bytes"])
    def test_exactly_one_leading_bom_is_dropped(self, form):
        record = line(id="1", text="x", created_at=0)
        assert parse_tweet(form("\ufeff" + record)).id == "1"
        with pytest.raises(TweetParseError, match="BOM"):
            parse_tweet(form("\ufeff\ufeff" + record))

    @pytest.mark.parametrize("form", [str, str.encode], ids=["str", "bytes"])
    @pytest.mark.parametrize(
        "raw, message",
        [
            ("", "invalid JSON (Expecting value)"),
            (" \t\r\n", "invalid JSON (Expecting value)"),
            ("\x0b{}", "invalid JSON (Expecting value)"),
            ("{} x", "invalid JSON (Extra data)"),
            ("{}\x0c", "invalid JSON (Extra data)"),
            ("\ufeff\ufeff{}", "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
        ],
    )
    def test_invalid_json_messages(self, raw, message, form):
        with pytest.raises(TweetParseError) as exc_info:
            parse_tweet(form(raw))
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "value",
        [
            "2017-08-29+05:00",
            "2017-08-29x11:00",
            "2017-08-29Z",
            # Forms outside the written grammar that fromisoformat or strptime reads.
            "20170829",
            "20170829T111400Z",
            "2017-W35-2",
            "2017-08-29T1100",
            "2017-08-29T11",
            "2017-08-29T11Z",
            "2017-08-29T11:00:00,5Z",
            "2017-08-29T11:00:00.1234567Z",
            "2017-08-29T11:00+05:30:15",
            "2017-08-29T11:00+05:60",
            "2017-08-29T11:00+00:99",
            "2017-08-29T11:00.5",
            "Sun aug 27 12:00:00 +0000 2017",
            "SUN AUG 27 12:00:00 +0000 2017",
            "Sun Aug 7 12:00:00 +0000 2017",
            "Sun Aug  7 12:00:00 +0000 2017",
            "Sun Aug 27 2:00:00 +0000 2017",
            "Sun Aug 27  12:00:00 +0000 2017",
            "Sun Aug 27 12:00:00 Z 2017",
            "Sun Aug 27 12:00:00 +05:30 2017",
            "Sun Aug 27 12:00:00 +0000 \u0662\u0660\u0661\u0667",
        ],
    )
    def test_iso_date_and_time_need_a_separator(self, value):
        lines = [line(id=str(n), text="x", created_at=created) for n, created in enumerate(
            ["2017-08-29T11:00", value, "2017-08-29 11:00"]
        )]
        stats = IngestStats()
        assert [tweet.id for tweet in read_stream(lines, stats)] == ["0", "2"]
        assert stats == IngestStats(parsed=2, malformed=1)
        with pytest.raises(TweetParseError) as exc_info:
            parse_tweet(lines[1])
        assert str(exc_info.value) == f"unparseable created_at: {value!r}"


class TestTweet:
    FIELDS = {
        "id": "7",
        "text": "Help #Harvey at 12 Clay Rd",
        "created_at_utc": datetime(2017, 8, 29, 11, 16, 11, tzinfo=UTC),
        "hashtags": ("harvey", "rescue"),
        "coordinates": (-95.3, 29.7),
    }

    def parsed(self) -> Tweet:
        return parse_tweet(line(
            id_str="7", full_text="Help #Harvey at 12 Clay Rd", created_at="Tue Aug 29 11:16:11 +0000 2017",
            entities={"hashtags": [{"text": "Rescue"}]}, coordinates=[-95.3, 29.7],
        ))

    def test_parsed_tweet_equals_one_built_by_keyword(self):
        assert [field.name for field in dataclasses.fields(Tweet)] == list(self.FIELDS)
        parsed, built = self.parsed(), Tweet(**self.FIELDS)
        assert parsed == built
        assert hash(parsed) == hash(built)
        assert repr(parsed) == repr(built)

    def test_fields_are_frozen(self):
        tweet = self.parsed()
        for name in self.FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(tweet, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(tweet, name)
        assert tweet == Tweet(**self.FIELDS)

    def test_replace_and_asdict(self):
        tweet = self.parsed()
        assert dataclasses.replace(tweet, text="x") == Tweet(**{**self.FIELDS, "text": "x"})
        assert dataclasses.asdict(tweet) == self.FIELDS

    def test_no_instance_dict(self):
        # A per-instance __dict__ would add a dict to every Tweet kept.
        minimal = Tweet(id="1", text="x", created_at_utc=self.FIELDS["created_at_utc"])
        for tweet in (self.parsed(), Tweet(**self.FIELDS), minimal):
            assert not hasattr(tweet, "__dict__")

    def test_time_is_required(self):
        # parse_tweet always sets it, so a Tweet without one is a mistake.
        with pytest.raises(TypeError, match="created_at_utc"):
            Tweet(id="1", text="x")


class TestReadStream:
    def good(self, i: str) -> str:
        return line(id=i, text=f"tweet {i}", created_at="2017-08-27T12:00:00Z")

    def test_well_formed_lines_in_order(self):
        tweets = list(read_stream([self.good("a"), self.good("b"), self.good("c")]))
        assert [t.id for t in tweets] == ["a", "b", "c"]

    def test_malformed_middle_line_is_skipped_and_counted(self):
        stats = IngestStats()
        tweets = list(read_stream([self.good("a"), "{oops", self.good("b")], stats))
        assert [t.id for t in tweets] == ["a", "b"]
        assert stats.malformed == 1
        assert stats.parsed == 2

    def test_duplicate_ids_are_dropped(self):
        stats = IngestStats()
        tweets = list(read_stream([self.good("a"), self.good("a")], stats))
        assert len(tweets) == 1
        assert stats.duplicates == 1

    def test_blank_lines_ignored(self):
        tweets = list(read_stream(["", "  ", self.good("a"), "\n"]))
        assert len(tweets) == 1

    @pytest.mark.parametrize("mode", ["r", "rb"], ids=["text", "binary"])
    def test_bom_led_file_reads_alike_as_text_and_binary(self, tmp_path, mode):
        path = tmp_path / "bom.ndjson"
        path.write_bytes(codecs.BOM_UTF8 + f"{self.good('a')}\n{self.good('b')}\n".encode())
        stats = IngestStats()
        with path.open(mode, **({"encoding": "utf-8"} if mode == "r" else {})) as source:
            tweets = list(read_stream(source, stats))
        assert [t.id for t in tweets] == ["a", "b"]
        assert (stats.parsed, stats.malformed) == (2, 0)


def tweet_with(text="", coords=None, hashtags=None) -> Tweet:
    return Tweet(
        id="t",
        text=text,
        created_at_utc=datetime(2017, 8, 27, tzinfo=UTC),
        hashtags=tuple(hashtags or extract_hashtags(text)),
        coordinates=coords,
    )


class TestStreamFilter:
    def test_keyword_hit(self):
        assert passes_stream_filter(tweet_with("Hurricane coming"), StreamConfig())

    def test_bbox_hit_without_keyword(self):
        cfg = StreamConfig(track_keywords=("#HurricaneHarvey",))
        assert passes_stream_filter(tweet_with("nice day", coords=(-95.37, 29.76)), cfg)

    def test_outside_bbox_no_keyword(self):
        assert not passes_stream_filter(tweet_with("nice day", coords=(0.0, 0.0)), StreamConfig())

    def test_no_coordinates_fails_bbox_leg(self):
        cfg = StreamConfig(track_keywords=("zzz",))
        assert not passes_stream_filter(tweet_with("nice day"), cfg)

    def test_keyword_matches_hashtag_with_hash_stripped(self):
        cfg = StreamConfig(track_keywords=("#HurricaneHarvey",), bbox=None)
        assert passes_stream_filter(tweet_with("storm", hashtags=["hurricaneharvey"]), cfg)

    @pytest.mark.parametrize(
        "tags", [["Straße"], ["STRASSE"], ["#straße"]], ids=["eszett", "double_s", "hash_eszett"]
    )
    def test_keyword_matches_hashtag_folded_like_the_keyword(self, tags):
        cfg = StreamConfig(track_keywords=("#Straße",), bbox=None)
        assert passes_stream_filter(parse_tweet(line(
            id="1", text="storm", created_at="2017-08-27T14:03:00Z", hashtags=tags,
        )), cfg)

    def test_boundary_is_inclusive(self):
        cfg = StreamConfig(track_keywords=("zzz",))
        assert passes_stream_filter(tweet_with("x", coords=(-99.0, 27.6)), cfg)

    @given(
        text=st.text(max_size=60),
        keywords=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4),
        extra=st.text(min_size=1, max_size=8),
    )
    def test_adding_a_keyword_never_unfilters(self, text, keywords, extra):
        base = StreamConfig(track_keywords=tuple(keywords), bbox=None)
        widened = StreamConfig(track_keywords=tuple(keywords) + (extra,), bbox=None)
        tweet = tweet_with(text)
        if passes_stream_filter(tweet, base):
            assert passes_stream_filter(tweet, widened)


class TestBoundingBox:
    def test_invalid_boxes_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(-90.8, 27.6, -99.0, 33.5)
        with pytest.raises(ValueError):
            BoundingBox(-99.0, 33.5, -90.8, 27.6)

    @pytest.mark.parametrize("keywords", [(), ("",), ("", "")])
    def test_stream_config_requires_some_criterion(self, keywords):
        with pytest.raises(ValueError):
            StreamConfig(track_keywords=keywords, bbox=None)


class TestToLocalTime:
    def test_summer_offset_is_minus_five(self):
        local = to_local_time(datetime(2017, 8, 27, 12, 0, 0, tzinfo=UTC))
        assert local.isoformat() == "2017-08-27T07:00:00-05:00"

    def test_day_boundary_crossing(self):
        local = to_local_time(datetime(2017, 8, 27, 3, 0, 0, tzinfo=UTC))
        assert local.isoformat() == "2017-08-26T22:00:00-05:00"

    def test_winter_offset_is_minus_six(self):
        # January is CST per the US/Central DST table.
        local = to_local_time(datetime(2017, 1, 15, 12, 0, 0, tzinfo=UTC))
        assert local.isoformat() == "2017-01-15T06:00:00-06:00"

    @given(
        st.datetimes(
            min_value=datetime(2000, 1, 1),
            max_value=datetime(2030, 1, 1),
            timezones=st.just(UTC),
        )
    )
    def test_conversion_preserves_the_instant(self, utc_dt):
        assert to_local_time(utc_dt).astimezone(UTC) == utc_dt


@given(st.text(max_size=120))
def test_every_extracted_hashtag_is_in_the_text(text):
    for tag in extract_hashtags(text):
        assert ("#" + tag) in text.casefold()


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=40))
def test_read_stream_preserves_input_order(ids):
    lines = [
        json.dumps({"id": f"t{i}", "text": "x", "created_at": "2017-08-27T12:00:00Z"})
        for i in ids
    ]
    got = [t.id for t in read_stream(lines)]
    expected = []
    seen = set()
    for i in ids:
        if f"t{i}" not in seen:
            seen.add(f"t{i}")
            expected.append(f"t{i}")
    assert got == expected


_GOOD_BYTE_LINES = [
    b'{"id": "%d", "text": "x", "created_at": "2017-08-27T12:00:00Z"}\n' % i for i in range(3)
]


@given(st.lists(st.one_of(st.binary(max_size=60), st.sampled_from(_GOOD_BYTE_LINES)), max_size=20))
def test_every_byte_line_is_parsed_malformed_duplicate_or_blank(lines):
    stats = IngestStats()
    tweets = list(read_stream(lines, stats))
    blank = sum(1 for raw in lines if raw.decode("utf-8", "replace").isspace() or not raw)
    assert stats.parsed == len(tweets)
    assert stats.parsed + stats.malformed + stats.duplicates + blank == len(lines)


def _parsed(record: str | bytes) -> object:
    try:
        return parse_tweet(record)
    except TweetParseError as exc:
        return ("TweetParseError", str(exc))


_str_lines = st.one_of(
    st.builds(json.dumps, _records, ensure_ascii=st.booleans()),
    st.sampled_from([raw.decode("utf-8", "replace") for raw in _RAW_LINES]),
).filter(_encodable)


@settings(max_examples=300, deadline=None)
@given(body=_str_lines, bom=st.sampled_from(["", "\ufeff", "\ufeff\ufeff"]))
def test_str_and_bytes_forms_of_a_line_parse_alike(body, bom):
    text = bom + body
    assert _parsed(text) == _parsed(text.encode("utf-8"))


# Characters str.isspace calls whitespace, of which bytes.isspace knows only the
# first six; and the BOM, which neither does.
_WHITESPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\ufeff"), max_size=4)


def _replayed(lines: list) -> tuple[list[tuple[Tweet, str]], IngestStats]:
    stats = IngestStats()
    return [(tweet, repr(tweet)) for tweet in read_stream(lines, stats)], stats


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.one_of(_str_lines, _WHITESPACE, st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)),
    max_size=12,
))
@example(["\u3000\n", "\x85\n", "\x1c\n"])
def test_str_and_bytes_forms_of_a_stream_read_alike(lines):
    assert _replayed(lines) == _replayed([text.encode("utf-8") for text in lines])


# --- created_at: the written grammar ----------------------------------------

_EARLIEST_LOCAL_UTC = datetime.min.replace(tzinfo=US_CENTRAL).astimezone(UTC)
_MONTH_NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _grammar(**patterns: str) -> tuple[str, str]:
    """The ISO and Twitter-v1 branches of the created_at grammar the README
    writes down, each field a named group. A keyword replaces the pattern of
    the field it names, to draw that field from a narrower set."""

    def field(name: str, pattern: str = "[0-9]{2}") -> str:
        return f"(?P<{name}>{patterns.get(name, pattern)})"

    year = field("y", "[0-9]{4}")
    iso = (
        rf"{year}-{field('m')}-{field('d')}(?:[Tt ]{field('H')}:{field('M')}"
        rf"(?::{field('S')}(?:\.(?P<f>[0-9]{{1,6}}))?)?"
        rf"(?:Z|(?P<sign>[+-]){field('oh')}(?::?{field('om', '[0-5][0-9]')})?)?)?"
    )
    twitter = (
        rf"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (?P<mon>{'|'.join(_MONTH_NAMES)}) {field('d')}"
        rf" {field('H')}:{field('M')}:{field('S')} (?P<sign>[+-]){field('oh')}(?P<om>[0-5][0-9]) {year}"
    )
    return iso, twitter


_GRAMMAR = _grammar()


def _in_grammar(text: str) -> bool:
    return any(re.fullmatch(pattern, text) for pattern in _GRAMMAR)


# --- created_at: ISO first against the strptime-first parser -----------------


def _strptime_first_created_at(value: str) -> datetime:
    """Reference: the string branch of the parser that tried strptime first."""
    text = value.strip()
    try:
        # A deliberate difference: a value outside the written grammar is
        # malformed, though strptime or fromisoformat reads it. So after a
        # YYYY-MM-DD date only "T", "t" or a space may follow, where
        # fromisoformat takes any character.
        if not _in_grammar(text):
            raise ValueError
        try:
            parsed = datetime.strptime(text, "%a %b %d %H:%M:%S %z %Y")
        except ValueError:
            parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=UTC)
        parsed = parsed.astimezone(UTC)
    except (ValueError, OverflowError, OSError):
        raise TweetParseError(f"unparseable created_at: {value!r}") from None
    if parsed < _EARLIEST_LOCAL_UTC:
        raise TweetParseError(f"created_at has no US/Central time: {value!r}")
    return parsed


def _cased(names):
    return st.tuples(st.sampled_from(names), st.sampled_from((str, str.lower, str.upper))).map(
        lambda t: t[1](t[0])
    )


def _number(low: int, high: int, width: int):
    """A number in [low, high], mostly zero-padded to ``width``, else not padded."""
    return st.tuples(st.integers(low, high), st.sampled_from((True, True, True, False))).map(
        lambda t: f"{t[0]:0{width}d}" if t[1] else str(t[0])
    )


_YEARS = st.one_of(st.sampled_from(("0001", "9999", "1", "2017")), _number(1, 9999, 4))
_CLOCKS = st.builds(
    lambda h, m, s, frac: f"{h}:{m}:{s}{frac}",
    _number(0, 23, 2), _number(0, 59, 2), _number(0, 59, 2),
    st.sampled_from(("", "", ".5", ".123", ".123456", ".1234567", ",5")),
)
_TWITTER_TIMES = st.builds(
    lambda weekday, month, day, clock, offset, year: (
        f"{weekday} {month} {day} {clock} {offset} {year}"
    ),
    _cased(("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")),
    _cased(("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")),
    _number(1, 31, 2),
    _CLOCKS,
    st.sampled_from(("+0000", "-0500", "+0530", "+05:30", "Z", "-2359", "+2400")),
    _YEARS,
)
_ISO_TIMES = st.builds(
    lambda year, month, day, sep, clock, suffix: f"{year}-{month}-{day}{sep}{clock}{suffix}",
    _YEARS,
    _number(1, 12, 2),
    _number(1, 31, 2),
    st.sampled_from(("T", " ", "t", "x", "+", "Z", "\u3000")),
    _CLOCKS,
    st.sampled_from(("", "Z", "z", "+00:00", "-05:00", "+0530", "+05", "-23:59", "+24:00")),
)
_CREATED_AT = st.one_of(
    _TWITTER_TIMES,
    _ISO_TIMES,
    st.text(alphabet="0123456789-:.+ TZSunAug", max_size=32),
).flatmap(lambda v: st.sampled_from((v, f" {v}", f"{v}\n")))


@settings(max_examples=1000)
@given(_CREATED_AT)
@example("2017-08-29")
@example("2017-08-29T11:00")
@example("2017-08-29t11:00")
@example("2017-08-29 11:00")
@example("2017-08-29+05:00")
@example("2017-08-29x11:00")
@example("2017-08-29Z")
def test_iso_first_created_at_agrees_with_strptime_first(value):
    record = line(id="1", text="x", created_at=value)
    try:
        expected = _strptime_first_created_at(value)
    except TweetParseError:
        with pytest.raises(TweetParseError):
            parse_tweet(record)
        return
    got = parse_tweet(record).created_at_utc
    assert got == expected
    assert got.utcoffset() == expected.utcoffset()


# --- created_at: the Twitter-v1 branch against strptime ---------------------


def _strptime_created_at(value: str) -> datetime:
    """Reference: the Twitter-v1 branch read by strptime alone."""
    try:
        # A deliberate difference: a value outside the written grammar is
        # malformed, though strptime reads it: another letter case, a
        # one-digit or space-padded field, a run of whitespace, a "Z" or
        # "+HH:MM" offset, or digits other than ASCII.
        if not _in_grammar(value.strip()):
            raise ValueError
        parsed = datetime.strptime(value.strip(), "%a %b %d %H:%M:%S %z %Y").astimezone(UTC)
    except (ValueError, OverflowError):
        raise TweetParseError(f"unparseable created_at: {value!r}") from None
    if parsed < _EARLIEST_LOCAL_UTC:
        raise TweetParseError(f"created_at has no US/Central time: {value!r}")
    return parsed


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_V1_DAYS = st.one_of(
    st.sampled_from(("00", "01", "28", "29", "30", "31", "32", "7")), _number(1, 31, 2)
)
_V1_CLOCKS = st.builds(
    lambda h, m, s: f"{h}:{m}:{s}",
    st.one_of(st.just("24"), _number(0, 23, 2)),
    _number(0, 59, 2),
    st.one_of(st.sampled_from(("59", "60", "61")), _number(0, 59, 2)),
)
_V1_OFFSETS = st.one_of(
    st.sampled_from(("+0060", "+9900", "-0000")),
    st.builds(
        lambda sign, h, m: f"{sign}{h:02d}{m:02d}",
        st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59),
    ),
)
_V1_YEARS = st.one_of(
    st.sampled_from(("0000", "0001", "9999", "1900", "2000", "2016", "2017")),
    st.integers(0, 9999).map("{:04d}".format),
)
_V1_TIMES = st.builds(
    lambda weekday, month, day, clock, offset, year, sep, digits: sep.join(
        (weekday, month, day, clock, offset, year)
    ).translate(digits),
    _cased(("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")),
    _cased(("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")),
    _V1_DAYS,
    _V1_CLOCKS,
    _V1_OFFSETS,
    _V1_YEARS,
    st.sampled_from((" ", " ", " ", "  ")),
    st.sampled_from(({}, {}, {}, _ARABIC_INDIC)),
).flatmap(lambda v: st.sampled_from((v, f" {v}", f"{v}\n")))


@settings(max_examples=1000)
@given(_V1_TIMES)
@example("Tue Aug 29 11:16:11 +0000 2017")
@example("Mon Feb 29 12:00:00 +0000 2016")  # leap year
@example("Mon Feb 29 12:00:00 +0000 2017")
@example("Mon Feb 29 12:00:00 +0000 1900")
@example("Tue Feb 30 12:00:00 +0000 2016")
@example("Sun Aug 00 12:00:00 +0000 2017")
@example("Sun Aug 32 12:00:00 +0000 2017")
@example("Sun Aug 27 12:00:60 +0000 2017")
@example("Sun Aug 27 12:00:61 +0000 2017")
@example("Sun Aug 27 24:00:00 +0000 2017")
@example("Sun Aug 27 12:00:00 +2359 2017")
@example("Sun Aug 27 12:00:00 -2359 2017")
@example("Sun Aug 27 12:00:00 +0060 2017")
@example("Sun Aug 27 12:00:00 +9900 2017")
@example("Sun Aug 27 12:00:00 +0000 0000")
@example("Mon Jan 01 05:50:36 +0000 0001")
@example("Mon Jan 01 00:00:00 +0100 0001")
@example("Fri Dec 31 23:59:59 +0000 9999")
@example("Fri Dec 31 23:59:59 -2359 9999")
@example("Sun aug 27 12:00:00 +0000 2017")  # lowercase month: malformed
@example("Sun Aug 7 12:00:00 +0000 2017")  # one-digit day: malformed
@example("Sun Aug 27  12:00:00 +0000 2017")  # double space: malformed
@example("Sun Aug 27 12:00:00 +0000 \u0662\u0660\u0661\u0667")  # Arabic-Indic year: malformed
@example("Sun Aug \u0662\u0667 12:00:00 +0000 2017")  # Arabic-Indic day
def test_v1_fast_path_agrees_with_strptime(value):
    record = line(id="1", text="x", created_at=value)
    try:
        expected = _strptime_created_at(value)
    except TweetParseError as exc:
        with pytest.raises(TweetParseError) as got_exc:
            parse_tweet(record)
        assert str(got_exc.value) == str(exc)
        return
    got = parse_tweet(record).created_at_utc
    assert got == expected
    assert got.utcoffset() == expected.utcoffset()


# --- created_at: the grammar against datetime(...) of its digits ------------


def _datetime_of_digits(text: str) -> datetime:
    """Oracle: the UTC instant of ``datetime(...)`` built from the fields of a
    value in the grammar, a value with no offset read as UTC. Raises ValueError
    outside the grammar and where the constructor does, OverflowError where the
    instant has no UTC datetime."""
    iso, twitter = _GRAMMAR
    match = re.fullmatch(iso, text) or re.fullmatch(twitter, text)
    if match is None:
        raise ValueError("not in the grammar")
    fields = match.groupdict()
    month = _MONTH_NAMES.index(fields["mon"]) + 1 if fields.get("mon") else int(fields["m"])
    offset = timedelta(hours=int(fields["oh"] or 0), minutes=int(fields["om"] or 0))
    return datetime(
        int(fields["y"]), month, int(fields["d"]),
        int(fields["H"] or 0), int(fields["M"] or 0), int(fields["S"] or 0),
        int((fields.get("f") or "0").ljust(6, "0")),
        tzinfo=timezone(-offset if fields["sign"] == "-" else offset),
    ).astimezone(UTC)


# Each field in its range, to draw mostly valid values; the grammar's own
# patterns draw mostly invalid ones.
_IN_RANGE = _grammar(
    y="20[0-9]{2}|0001|9999", m="0[1-9]|1[0-2]", d="0[1-9]|[12][0-9]|3[01]",
    H="[01][0-9]|2[0-3]", M="[0-5][0-9]", S="[0-5][0-9]", oh="[01][0-9]|2[0-3]", om="[0-5][0-9]",
)


@settings(max_examples=300)
@given(
    st.one_of([st.from_regex(pattern, fullmatch=True) for pattern in (*_GRAMMAR, *_IN_RANGE)]).flatmap(
        lambda v: st.sampled_from((v, f" {v}", f"{v}\n"))
    )
)
@example("2017-08-29")
@example("2017-08-29T11:00.5")
@example("2017-08-29T11:00:00.123456+05")
@example("2017-08-29t11:00-0530")
@example("2017-13-29T11:00")
@example("2016-02-29 23:59:59-23:59")
@example("2017-02-29T00:00")
@example("2017-08-29T24:00")
@example("2017-08-29T11:00+24:00")
@example("0001-01-01T05:50:35Z")
@example("9999-12-31T23:59-00:01")
def test_created_at_in_the_grammar_reads_as_datetime_of_its_digits(value):
    record = line(id="1", text="x", created_at=value)
    try:
        expected = _datetime_of_digits(value.strip())
    except (ValueError, OverflowError):
        with pytest.raises(TweetParseError) as exc_info:
            parse_tweet(record)
        assert str(exc_info.value) == f"unparseable created_at: {value!r}"
        return
    if expected < _EARLIEST_LOCAL_UTC:
        with pytest.raises(TweetParseError) as exc_info:
            parse_tweet(record)
        assert str(exc_info.value) == f"created_at has no US/Central time: {value!r}"
        return
    got = parse_tweet(record).created_at_utc
    assert got == expected
    assert got.utcoffset() == expected.utcoffset()
