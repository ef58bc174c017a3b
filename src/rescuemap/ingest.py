"""Corpus ingestion: replay archived tweet records from newline-delimited JSON.

Each input line is one JSON object. The reader is tolerant: malformed lines
are counted and skipped, duplicate ids are dropped, and the stream order of
accepted records is preserved.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from typing import Iterable, Iterator, Optional
from zoneinfo import ZoneInfo

from ._jsondecode import _NUMBER_TYPES, _decode_json

US_CENTRAL = ZoneInfo("America/Chicago")
# US/Central is behind UTC, so only instants before this one overflow when
# converted by to_local_time.
_EARLIEST_LOCAL_UTC = datetime.min.replace(tzinfo=US_CENTRAL).astimezone(timezone.utc)

# The collection keywords used during the Harvey event.
HARVEY_KEYWORDS = ("#HurricaneHarvey", "#Harvey", "Hurricane", "flooding")

_HASHTAG_RE = re.compile(r"#(\w+)")  # \w is unicode-aware; '#ayúdanos' stays whole
_MONTHS = {
    name: f"{number:02d}"
    for number, name in enumerate(
        ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"), start=1
    )
}
# The one grammar of a created_at string (README, "Input and data formats"),
# ASCII digits only, in two branches:
# - Twitter-v1, groups 1-5 (month, day, clock, offset, year): the canonical
#   "Tue Aug 29 11:16:11 +0000 2017", English names in this case, single
#   spaces, offset minutes 00-59. The weekday is not checked against the date.
# - ISO, no group: YYYY-MM-DD, then optionally "T", "t" or a space, HH:MM,
#   optional :SS with an optional "." and 1-6 digits, and an optional Z,
#   ±HH:MM, ±HHMM or ±HH offset, offset minutes 00-59.
# No part that follows an optional ISO part can match what it took, so the
# optional parts are possessive (?+): the engine never gives their text back,
# and matching an ISO value takes about 30% less time. fromisoformat, which
# would take any character as the date/time separator and forms such as
# "20170829" or "2017-W35-2", reads only text this pattern matched. It checks
# the field ranges: month 13, Feb 29 of a common year, hour 24, second 60,
# year 0000 and an offset of 24 hours stay malformed.
_CREATED_AT_RE = re.compile(
    r"(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun) (%s) ([0-9]{2}) ([0-9]{2}:[0-9]{2}:[0-9]{2})"
    r" ([+-][0-9]{2}[0-5][0-9]) ([0-9]{4})"
    r"|[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[Tt ][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{1,6}+)?+)?+(?:Z|[+-][0-9]{2}(?::?[0-5][0-9])?+)?+)?+"
    % "|".join(_MONTHS)
)

class TweetParseError(ValueError):
    """A single record could not be parsed; ingestion continues."""


@dataclass(frozen=True, slots=True)
class Tweet:
    """One ingested social-media record.

    ``hashtags`` always includes every ``#`` token found in ``text``
    (casefolded, ``#`` stripped). ``coordinates`` is (longitude, latitude).
    """

    id: str
    text: str
    created_at_utc: datetime
    hashtags: tuple[str, ...] = ()
    coordinates: Optional[tuple[float, float]] = None


# parse_tweet fills each new Tweet through its slots' member descriptors: the
# same store the generated __init__ makes through object.__setattr__, at about
# half the cost per record.
_set_id, _set_text, _set_created_at_utc, _set_hashtags, _set_coordinates = (
    vars(Tweet)[name].__set__ for name in ("id", "text", "created_at_utc", "hashtags", "coordinates")
)


@dataclass(frozen=True)
class BoundingBox:
    west: float
    south: float
    east: float
    north: float

    def __post_init__(self) -> None:
        if not self.west < self.east:
            raise ValueError(f"bounding box requires west < east, got {self}")
        if not self.south < self.north:
            raise ValueError(f"bounding box requires south < north, got {self}")

    def contains(self, longitude: float, latitude: float) -> bool:
        """Boundary-inclusive containment."""
        return self.west <= longitude <= self.east and self.south <= latitude <= self.north


# The collection bounding box used during the Harvey event.
HARVEY_BBOX = BoundingBox(-99.0, 27.6, -90.8, 33.5)


@dataclass(frozen=True)
class StreamConfig:
    """Pre-filter applied while replaying the stream.

    A record passes if it matches any keyword or falls inside the bounding box.
    """

    track_keywords: tuple[str, ...] = HARVEY_KEYWORDS
    bbox: Optional[BoundingBox] = HARVEY_BBOX

    def __post_init__(self) -> None:
        if not any(self.track_keywords) and self.bbox is None:
            raise ValueError("stream config needs keywords or a bounding box")

    @cached_property
    def folded_keywords(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """On first use: the casefolded keywords to find in the text, and the
        same without leading '#' to find in hashtags, empty ones dropped."""
        folded = tuple(map(str.casefold, self.track_keywords))
        return (
            tuple(filter(None, folded)),
            tuple(filter(None, (keyword.lstrip("#") for keyword in folded))),
        )


@dataclass
class IngestStats:
    """Counters updated in place while :func:`read_stream` runs."""

    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0


def extract_hashtags(text: str) -> tuple[str, ...]:
    """Every '#'-prefixed token in the text, casefolded, '#' stripped."""
    if "#" not in text:
        return ()
    return tuple(map(str.casefold, _HASHTAG_RE.findall(text)))


def merge_hashtags(text: str, extra: Iterable[object]) -> tuple[str, ...]:
    """The text's hashtags, then each further string tag not already present.

    Extra tags are casefolded with leading '#' stripped; empty tags and
    non-strings are skipped.
    """
    tags = extract_hashtags(text)
    for tag in extra:
        if isinstance(tag, str):
            cleaned = tag.lstrip("#").casefold()
            if cleaned and cleaned not in tags:
                tags += (cleaned,)
    return tags


def _shown(value: object) -> str:
    """``repr(value)`` for an error message, or the type's name when repr
    raises. The decoder refuses an integer past int-to-str's digit limit, but
    a value nested deep enough to decode may still be too deep to print on a
    Python that counts C recursion otherwise."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"<unprintable {type(value).__name__}>"


def _parse_created_at(value: object) -> datetime:
    if type(value) is not str and (isinstance(value, bool) or not isinstance(value, (int, float, str))):
        raise TweetParseError(f"unsupported created_at type: {type(value).__name__}")
    # Out-of-range instants (1e20, NaN, year 1 with an offset) raise
    # ValueError, OverflowError or OSError from the datetime functions.
    try:
        if not isinstance(value, str):
            parsed = datetime.fromtimestamp(value, tz=timezone.utc)
        else:
            text = value.strip()
            match = _CREATED_AT_RE.fullmatch(text)
            if match is None:
                raise ValueError("not in the created_at grammar")
            if match.lastindex:  # the Twitter-v1 branch; the ISO branch has no group
                month, day, clock, offset, year = match.groups()
                text = f"{year}-{_MONTHS[month]}-{day}T{clock}{offset}"
            parsed = datetime.fromisoformat(text)
            if parsed.tzinfo is None:
                parsed = parsed.replace(tzinfo=timezone.utc)
            parsed = parsed.astimezone(timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise TweetParseError(f"unparseable created_at: {_shown(value)}") from None
    if parsed < _EARLIEST_LOCAL_UTC:
        raise TweetParseError(f"created_at has no US/Central time: {_shown(value)}")
    return parsed


def _parse_coordinates(value: object) -> tuple[float, float]:
    # Accept [lon, lat] or the GeoJSON-style {"coordinates": [lon, lat]}.
    if type(value) is dict:
        value = value.get("coordinates")
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TweetParseError(f"coordinates must be a [lon, lat] pair: {_shown(value)}")
    try:
        if type(value[0]) not in _NUMBER_TYPES or type(value[1]) not in _NUMBER_TYPES:
            raise TypeError  # float() would read "29.7" and " 2_9.7", and true as 1.0
        lon, lat = float(value[0]), float(value[1])
    except (TypeError, OverflowError):  # OverflowError: an integer of 309+ digits
        raise TweetParseError(f"non-numeric coordinates: {_shown(value)}") from None
    if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
        raise TweetParseError(f"coordinates out of range: ({lon}, {lat})")
    return (lon, lat)


def _encodable(value: str) -> bool:
    """False when ``value`` holds a lone surrogate, which UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_tweet(record: str | bytes) -> Tweet:
    """Parse one newline-delimited JSON line into a :class:`Tweet`.

    The line is a str, or UTF-8 bytes; one leading BOM is dropped. Twitter-v1
    style field names (``id_str``, ``full_text``, ``entities.hashtags``) are
    understood alongside the plain schema; ``user_location`` and
    ``user.location`` are accepted and ignored.
    """
    try:
        # json.loads would guess UTF-16 or UTF-32 for bytes, and let an
        # encoded surrogate through. Both forms drop one leading BOM.
        text = record if isinstance(record, str) else record.decode("utf-8")
        obj = _decode_json(text.removeprefix("\ufeff"))
    except json.JSONDecodeError as exc:
        raise TweetParseError(f"invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError:
        raise TweetParseError("line is not UTF-8") from None
    except (ValueError, RecursionError) as exc:  # e.g. too deep, or a huge integer
        raise TweetParseError(f"invalid JSON ({type(exc).__name__})") from None
    if type(obj) is not dict:
        raise TweetParseError("record is not a JSON object")

    raw_id = obj.get("id_str") or obj.get("id")
    if type(raw_id) is not str and (isinstance(raw_id, bool) or not isinstance(raw_id, (str, int))):
        raise TweetParseError("missing id, or id is not a string or an integer")
    tweet_id = str(raw_id)  # the decoder refuses an integer too long to print
    if not tweet_id.strip():
        raise TweetParseError("missing id, or id is not a string or an integer")
    text = obj.get("text")
    if text is None:
        text = obj.get("full_text")
    if not isinstance(text, str):
        raise TweetParseError("missing text")
    # Both are written to the UTF-8 outputs; the decoder lets "\ud800" through.
    if not _encodable(text) or (isinstance(raw_id, str) and not _encodable(raw_id)):
        raise TweetParseError("id or text holds a lone surrogate")
    if "created_at" not in obj:
        raise TweetParseError("missing created_at")
    created = _parse_created_at(obj["created_at"])

    provided = obj.get("hashtags")
    if provided is None:
        entities = obj.get("entities")
        if type(entities) is dict:
            entities = entities.get("hashtags")
            if isinstance(entities, list):
                provided = [e.get("text") for e in entities if type(e) is dict]
    hashtags = merge_hashtags(text, provided if isinstance(provided, list) else ())

    coords = obj.get("coordinates")
    if coords is not None:
        coords = _parse_coordinates(coords)

    tweet = object.__new__(Tweet)
    _set_id(tweet, tweet_id)
    _set_text(tweet, text)
    _set_created_at_utc(tweet, created)
    _set_hashtags(tweet, hashtags)
    _set_coordinates(tweet, coords)
    return tweet


def read_stream(
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
        # The same test as `not line.strip()`, for str and bytes, without the copy.
        if not line or line.isspace():
            continue
        try:
            tweet = parse_tweet(line)
        except TweetParseError:
            # bytes.isspace knows only ASCII whitespace. A bytes line that
            # decodes to other whitespace ("\u3000", "\x85") is blank, as its
            # str form is; an undecodable byte becomes U+FFFD, not whitespace.
            if isinstance(line, bytes) and line.decode("utf-8", "replace").isspace():
                continue
            stats.malformed += 1
            continue
        if tweet.id in seen:
            stats.duplicates += 1
            continue
        seen.add(tweet.id)
        stats.parsed += 1
        yield tweet


def passes_stream_filter(tweet: Tweet, cfg: StreamConfig) -> bool:
    """OR-combined keyword/bounding-box pre-filter.

    Keywords match as case-insensitive substrings of the text or of any
    hashtag (the keyword's own leading '#' is ignored for hashtag matching).
    Bounding-box containment is boundary-inclusive and requires coordinates.
    """
    text_keywords, tag_keywords = cfg.folded_keywords
    text = tweet.text.casefold()
    for keyword in text_keywords:
        if keyword in text:
            return True
    for tag in tweet.hashtags:
        for keyword in tag_keywords:
            if keyword in tag:
                return True
    if cfg.bbox is not None and tweet.coordinates is not None:
        return cfg.bbox.contains(*tweet.coordinates)
    return False


def to_local_time(utc: datetime) -> datetime:
    """Express an instant in US/Central time (CDT/CST per the date)."""
    if utc.tzinfo is None:
        utc = utc.replace(tzinfo=timezone.utc)
    return utc.astimezone(US_CENTRAL)
