"""Street-address detection, full-address extraction and Houston/Texas completion.

A street address is a house number followed by either 1-3 street-name words
and a street suffix ("4055 South Braeswood Blvd") or a designator and a
number or letter ("1108 Highway 7"). Starting from the first such match, the
parser greedily takes the optional components of a US address: unit, city
(possibly hashtagged), state, and zip code. Components are separated by
"connector" runs of spaces, tabs, newlines, carriage returns, form feeds,
commas, and periods. Under-specified addresses are completed so the final
search string always names Texas.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .lexicons import load_street_suffixes


class CompletionRule(Enum):
    NONE = "none"
    HOUSTON_HASHTAG = "houston_hashtag"
    TEXAS_DEFAULT = "texas_default"
    TEXAS_APPENDED = "texas_appended"


@dataclass(frozen=True)
class FullAddress:
    """Decomposed address components plus completion provenance.

    ``completed`` holds the assembled components after extraction and the
    final geocoder search string once :func:`complete_address` has run;
    ``completion_rule`` is None until then.
    """

    house_number: str
    street: str
    unit: Optional[str] = None
    city: Optional[str] = None
    state: Optional[str] = None
    zip: Optional[str] = None
    completed: str = ""
    completion_rule: Optional[CompletionRule] = None


# --- street address detection -------------------------------------------------

# A street-name word: optional '#', letters, optional hyphenated parts,
# optional trailing period ("South", "#Braeswood", "S.", "Mid-Town").
_WORD = r"#?[A-Za-z]+(?:-[A-Za-z]+)*\.?"


def _trie_alternation(words: frozenset[str]) -> str:
    """A regex matching exactly one of ``words``, factored as a character trie.

    "AV", "AVE" and "AVENUE" become ``AV(?:E(?:NUE)?)?``-shaped nesting, so
    the engine tests each character once instead of trying every word in
    turn. A node where a word ends makes its continuations optional.
    """
    trie: dict = {}
    # Sorted insertion keeps every node's branches sorted, so the pattern is
    # the same in every process whatever the set's iteration order.
    for word in sorted(words):
        node = trie
        for ch in word:
            node = node.setdefault(ch, {})
        node[""] = None

    def render(node: dict) -> str:
        branches = [re.escape(ch) + render(child) for ch, child in node.items() if ch]
        if "" in node:
            return f"(?:{'|'.join(branches)})?" if branches else ""
        return branches[0] if len(branches) == 1 else f"(?:{'|'.join(branches)})"

    return render(trie)


_SUFFIX_ALT = _trie_alternation(load_street_suffixes())

_DESIGNATORS = (
    "AVENUE", "AVE", "AV", "AVEN", "AVENU", "AVN", "AVNUE",
    "HIGHWAY", "HWY", "HIWAY", "HIWY", "HWAY",
    "ROAD", "RD", "ROADS", "RDS",
    "ROUTE", "RTE",
    "STREET", "ST", "STRT", "STR", "STREETS", "STS",
)
_DESIGNATOR_ALT = "|".join(sorted(_DESIGNATORS, key=len, reverse=True))

# <house number> then either <1-3 street-name words> <street suffix>[.]
# or <designator>[.] <digits | single letter>. The number and the whitespace
# after it can match only one way, so at each start the name branch, tried
# first, wins over the designator branch.
_ADDRESS_RE = re.compile(
    rf"\b(?P<num>\d{{1,6}})\s+(?:"
    rf"(?P<name>(?:{_WORD}\s+){{1,3}}(?:{_SUFFIX_ALT})\.?)"
    rf"|(?P<designator>(?:{_DESIGNATOR_ALT})\.?\s+(?:\d+|[A-Za-z]))"
    r")(?![A-Za-z0-9])",
    re.IGNORECASE,
)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def detect_address(text: str) -> Optional[re.Match]:
    """The leftmost street-address match in ``text``, or None.

    ``group("num")`` is the house number. The street is ``group("name")``
    for the name+suffix form ("4055 South Braeswood Blvd") or
    ``group("designator")`` for the designator form ("1108 Highway 7"), and
    ``lastgroup`` names which. At equal start offsets the name+suffix form
    wins.
    """
    return _ADDRESS_RE.search(text)


# --- full-address extraction --------------------------------------------------

_STATE_NAMES_BY_ABBREV = {
    "AL": "Alabama", "AK": "Alaska", "AZ": "Arizona", "AR": "Arkansas",
    "CA": "California", "CO": "Colorado", "CT": "Connecticut", "DE": "Delaware",
    "DC": "District of Columbia", "FL": "Florida", "GA": "Georgia", "HI": "Hawaii",
    "ID": "Idaho", "IL": "Illinois", "IN": "Indiana", "IA": "Iowa",
    "KS": "Kansas", "KY": "Kentucky", "LA": "Louisiana", "ME": "Maine",
    "MD": "Maryland", "MA": "Massachusetts", "MI": "Michigan", "MN": "Minnesota",
    "MS": "Mississippi", "MO": "Missouri", "MT": "Montana", "NE": "Nebraska",
    "NV": "Nevada", "NH": "New Hampshire", "NJ": "New Jersey", "NM": "New Mexico",
    "NY": "New York", "NC": "North Carolina", "ND": "North Dakota", "OH": "Ohio",
    "OK": "Oklahoma", "OR": "Oregon", "PA": "Pennsylvania", "RI": "Rhode Island",
    "SC": "South Carolina", "SD": "South Dakota", "TN": "Tennessee", "TX": "Texas",
    "UT": "Utah", "VT": "Vermont", "VA": "Virginia", "WA": "Washington",
    "WV": "West Virginia", "WI": "Wisconsin", "WY": "Wyoming",
}
_STATE_ABBREVS = frozenset(_STATE_NAMES_BY_ABBREV)
_STATE_NAMES = frozenset(n.lower() for n in _STATE_NAMES_BY_ABBREV.values())

_STATE_NAME_RE = re.compile(
    "(?:"
    + "|".join(
        re.escape(name).replace(r"\ ", r"\s+")
        for name in sorted(_STATE_NAMES_BY_ABBREV.values(), key=len, reverse=True)
    )
    + r")(?![A-Za-z])",
    re.IGNORECASE,
)
_STATE_ABBREV_RE = re.compile(r"[A-Za-z]{2}(?![A-Za-z0-9])")

_CONNECTOR_RE = re.compile(r"[ \t\n\r\f,.]+")
_ZIP_RE = re.compile(r"\d{5}(?:-\d{4})?(?![0-9A-Za-z])")

_UNIT_KEY_RE = re.compile(r"(?:apartment|suite|unit|apt|ste)\b\.?", re.IGNORECASE)
_UNIT_DESIGNATOR_RE = re.compile(r"#?\s?([A-Za-z0-9][A-Za-z0-9-]{0,5})(?![A-Za-z0-9])")
_UNIT_REST_RE = re.compile(r"[ \t]*" + _UNIT_DESIGNATOR_RE.pattern)

_CITY_WORD = r"(?:#[A-Za-z]+|[A-Z][A-Za-z]*)"
_CITY_RE = re.compile(rf"{_CITY_WORD}(?: {_CITY_WORD})?(?![A-Za-z0-9])")

_TEXAS_RE = re.compile(r"texas|\btx\b", re.IGNORECASE)


def contains_texas(text: str) -> bool:
    """'texas' anywhere or 'TX' as a standalone token, case-insensitive."""
    return _TEXAS_RE.search(text) is not None


def _connector(text: str, pos: int) -> Optional[re.Match]:
    m = _CONNECTOR_RE.match(text, pos)
    return m if m and m.end() > pos else None


# Each component matcher takes the text, the offset after a connector run and
# that run's text, and returns (component, end offset) or None.

def _match_unit(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    key = _UNIT_KEY_RE.match(text, pos)
    if key is not None:
        rest = _UNIT_REST_RE.match(text, key.end())
        if rest is not None:
            return _normalize_ws(text[pos : rest.end()]), rest.end()
        return None
    # Bare '#' unit: keep it distinguishable from a hashtagged city by
    # requiring a digit or a single letter ("#4B", "#B", not "#Houston").
    bare = _UNIT_DESIGNATOR_RE.match(text, pos)
    if bare is not None and text[pos] == "#":
        designator = bare.group(1)
        if any(ch.isdigit() for ch in designator) or len(designator) == 1:
            return _normalize_ws(bare.group(0)), bare.end()
    return None


def _is_state_word(word: str) -> bool:
    cleaned = word.lstrip("#")
    return cleaned.lower() in _STATE_NAMES or (
        len(cleaned) == 2 and cleaned.upper() in _STATE_ABBREVS and cleaned.isupper()
    )


def _zip_follows(text: str, pos: int) -> bool:
    conn = _connector(text, pos)
    return conn is not None and _ZIP_RE.match(text, conn.end()) is not None


def _match_state(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    m = _STATE_NAME_RE.match(text, pos)
    if m is not None:
        return _normalize_ws(m.group(0)), m.end()
    m = _STATE_ABBREV_RE.match(text, pos)
    if m is None:
        return None
    token = m.group(0)
    if token.upper() not in _STATE_ABBREVS or not token.isupper():
        return None
    # Bare two-letter codes collide with English words ("IN", "OR", "OK"):
    # require a comma lead-in, a trailing zip, or the home-state code.
    if token.upper() == "TX" or "," in prev_connector or _zip_follows(text, m.end()):
        return token, m.end()
    return None


def _state_or_zip_follows(text: str, pos: int) -> bool:
    conn = _connector(text, pos)
    if conn is None:
        return False
    after = conn.end()
    if _ZIP_RE.match(text, after) is not None:
        return True
    return _match_state(text, after, conn.group(0)) is not None


def _match_city(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    m = _CITY_RE.match(text, pos)
    if m is None:
        return None
    words = m.group(0).split(" ")
    # Never swallow the state into the city; retry with one word.
    if len(words) == 2 and _is_state_word(words[1]):
        words = words[:1]
    end = pos + len(" ".join(words))
    if _is_state_word(words[0]) and len(words) == 1:
        return None
    # Guard against trailing narrative words: a city needs a comma lead-in
    # or a recognized state/zip right after it.
    if "," not in prev_connector and not _state_or_zip_follows(text, end):
        return None
    city = " ".join(w.lstrip("#") for w in words)
    return city, end


def _match_zip(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    m = _ZIP_RE.match(text, pos)
    return (m.group(0), m.end()) if m else None


# The optional components, in the order they may follow the street address.
_COMPONENTS = (_match_unit, _match_city, _match_state, _match_zip)


def extract_full_address(match: re.Match) -> FullAddress:
    """Parse the longest component chain after a :func:`detect_address` match.

    The chain is read from ``match.string``, starting at ``match.end()``. The
    result is uncompleted: run :func:`complete_address` to obtain the final
    search string.
    """
    text = match.string
    cursor = match.end()
    completed = _normalize_ws(match.group())
    values: list[Optional[str]] = []
    for match_component in _COMPONENTS:
        conn = _connector(text, cursor)
        found = None if conn is None else match_component(text, conn.end(), conn.group(0))
        value = None
        if found is not None:
            value, cursor = found
            completed += (", " if "," in conn.group(0) else " ") + value
        values.append(value)
    unit, city, state, zip_code = values

    return FullAddress(
        house_number=match.group("num"),
        street=_normalize_ws(match.group(match.lastgroup)),
        unit=unit,
        city=city,
        state=state,
        zip=zip_code,
        completed=completed,
        completion_rule=None,
    )


def complete_address(addr: FullAddress, hashtags: list[str] | tuple[str, ...]) -> FullAddress:
    """Fill in missing locality so the search string always names Texas.

    With no extracted city/state/zip: a hashtag containing "houston" appends
    ", Houston, TX"; otherwise ", Texas" is appended. With some locality
    extracted the string is kept as-is when it already names Texas, else
    ", Texas" is appended. Idempotent: completed addresses pass through.
    """
    if addr.completion_rule is not None:
        return addr
    completed = addr.completed
    if addr.city is None and addr.state is None and addr.zip is None:
        rule, suffix = CompletionRule.TEXAS_DEFAULT, ", Texas"
        for tag in hashtags:
            if "houston" in tag.lower():
                rule, suffix = CompletionRule.HOUSTON_HASHTAG, ", Houston, TX"
                break
        completed += suffix
    elif contains_texas(completed):
        rule = CompletionRule.NONE
    else:
        rule = CompletionRule.TEXAS_APPENDED
        completed += ", Texas"
    # Positional arguments, in field order, cost less per call than keywords.
    return FullAddress(
        addr.house_number, addr.street, addr.unit, addr.city, addr.state, addr.zip, completed, rule
    )
