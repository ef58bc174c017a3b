"""Differential tests: the one-pattern detector, the one-match component chain
and the one-construction completion against the two-pattern detector, the
per-kind walk and the `dataclasses.replace` completion they replaced, kept here
as the reference implementations."""
from __future__ import annotations

import re
from dataclasses import replace
from typing import NamedTuple, Optional

from hypothesis import assume, example, given, settings, strategies as st

from rescuemap import (
    CompletionRule,
    FullAddress,
    complete_address,
    contains_texas,
    detect_address,
    extract_full_address,
)
from rescuemap.lexicons import load_street_suffixes

# --- reference: two patterns, the leftmost match wins, form 1 on ties ----------

_REF_WORD = r"#?[A-Za-z]+(?:-[A-Za-z]+)*\.?"
_REF_SUFFIXES = sorted(load_street_suffixes())
_REF_SUFFIX_ALT = "|".join(sorted((re.escape(s) for s in _REF_SUFFIXES), key=len, reverse=True))
_REF_FORM1_RE = re.compile(
    rf"\b(?P<num>\d{{1,6}})\s+(?P<street>(?:{_REF_WORD}\s+){{1,3}}(?:{_REF_SUFFIX_ALT})\.?)(?![A-Za-z0-9])",
    re.IGNORECASE,
)
_REF_DESIGNATORS = (
    "AVENUE", "AVE", "AV", "AVEN", "AVENU", "AVN", "AVNUE",
    "HIGHWAY", "HWY", "HIWAY", "HIWY", "HWAY",
    "ROAD", "RD", "ROADS", "RDS",
    "ROUTE", "RTE",
    "STREET", "ST", "STRT", "STR", "STREETS", "STS",
)
_REF_DESIGNATOR_ALT = "|".join(sorted(_REF_DESIGNATORS, key=len, reverse=True))
_REF_FORM2_RE = re.compile(
    rf"\b(?P<num>\d{{1,6}})\s+(?P<street>(?:{_REF_DESIGNATOR_ALT})\.?\s+(?:\d+|[A-Za-z]))(?![A-Za-z0-9])",
    re.IGNORECASE,
)


class ReferenceMatch(NamedTuple):
    span: tuple[int, int]
    matched_text: str
    form: str  # "name" (name + suffix) or "designator"
    house_number: str
    street: str


def reference_detect_address(text: str) -> list[ReferenceMatch]:
    """Every non-overlapping leftmost match, sorted by start."""
    matches: list[ReferenceMatch] = []
    pos = 0
    length = len(text)
    while pos < length:
        m1 = _REF_FORM1_RE.search(text, pos)
        m2 = _REF_FORM2_RE.search(text, pos)
        if m1 is None and m2 is None:
            break
        if m2 is None or (m1 is not None and m1.start() <= m2.start()):
            m, form = m1, "name"
        else:
            m, form = m2, "designator"
        matches.append(
            ReferenceMatch(
                span=(m.start(), m.end()),
                matched_text=m.group(0),
                form=form,
                house_number=m.group("num"),
                street=" ".join(m.group("street").split()),
            )
        )
        pos = m.end()
    return matches


# --- reference: one advance(kind) call per component ---------------------------
#
# Copies of the component rules as they stood when this reference was written,
# so that a change to a rule in `rescuemap.address` shows here.

def _ref_normalize_ws(text: str) -> str:
    return " ".join(text.split())


_REF_STATE_NAMES_BY_ABBREV = {
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
_REF_STATE_ABBREVS = frozenset(_REF_STATE_NAMES_BY_ABBREV)
_REF_STATE_NAMES = frozenset(n.lower() for n in _REF_STATE_NAMES_BY_ABBREV.values())
_REF_STATE_NAME_RE = re.compile(
    "(?:"
    + "|".join(
        re.escape(name).replace(r"\ ", r"\s+")
        for name in sorted(_REF_STATE_NAMES_BY_ABBREV.values(), key=len, reverse=True)
    )
    + r")(?![A-Za-z])",
    re.IGNORECASE,
)
_REF_STATE_ABBREV_RE = re.compile(r"[A-Za-z]{2}(?![A-Za-z0-9])")
_REF_CONNECTOR_RE = re.compile(r"[ \t\n\r\f,.]+")
_REF_ZIP_RE = re.compile(r"\d{5}(?:-\d{4})?(?![0-9A-Za-z])")
_REF_UNIT_KEY_RE = re.compile(r"(?:apartment|suite|unit|apt|ste)\b\.?", re.IGNORECASE)
_REF_UNIT_DESIGNATOR_RE = re.compile(r"#?\s?([A-Za-z0-9][A-Za-z0-9-]{0,5})(?![A-Za-z0-9])")
_REF_CITY_WORD = r"(?:#[A-Za-z]+|[A-Z][A-Za-z]*)"
# A city's second word may not start a state name of two or more words.
_REF_MULTI_WORD_STATE_NAME = (
    "(?i:"
    + "|".join(
        re.escape(name).replace(r"\ ", r"\s+")
        for name in sorted(_REF_STATE_NAMES_BY_ABBREV.values(), key=len, reverse=True)
        if " " in name
    )
    + r")(?![A-Za-z])"
)
_REF_CITY_RE = re.compile(
    rf"{_REF_CITY_WORD}(?: (?!{_REF_MULTI_WORD_STATE_NAME}){_REF_CITY_WORD})?(?![A-Za-z0-9])"
)


def _ref_connector(text: str, pos: int) -> Optional[re.Match]:
    m = _REF_CONNECTOR_RE.match(text, pos)
    return m if m and m.end() > pos else None


def _ref_is_state_word(word: str) -> bool:
    cleaned = word.lstrip("#")
    return cleaned.lower() in _REF_STATE_NAMES or (
        len(cleaned) == 2 and cleaned.upper() in _REF_STATE_ABBREVS and cleaned.isupper()
    )


def _ref_zip_follows(text: str, pos: int) -> bool:
    conn = _ref_connector(text, pos)
    return conn is not None and _REF_ZIP_RE.match(text, conn.end()) is not None


def _ref_match_state(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    m = _REF_STATE_NAME_RE.match(text, pos)
    if m is not None:
        return _ref_normalize_ws(m.group(0)), m.end()
    m = _REF_STATE_ABBREV_RE.match(text, pos)
    if m is None:
        return None
    token = m.group(0)
    if token.upper() not in _REF_STATE_ABBREVS or not token.isupper():
        return None
    if token.upper() == "TX" or "," in prev_connector or _ref_zip_follows(text, m.end()):
        return token, m.end()
    return None


def _ref_state_or_zip_follows(text: str, pos: int) -> bool:
    conn = _ref_connector(text, pos)
    if conn is None:
        return False
    after = conn.end()
    if _REF_ZIP_RE.match(text, after) is not None:
        return True
    return _ref_match_state(text, after, conn.group(0)) is not None


def _ref_match_city(text: str, pos: int, prev_connector: str) -> Optional[tuple[str, int]]:
    m = _REF_CITY_RE.match(text, pos)
    if m is None:
        return None
    words = m.group(0).split(" ")
    if len(words) == 2 and _ref_is_state_word(words[1]):
        words = words[:1]
    end = pos + len(" ".join(words))
    if _ref_is_state_word(words[0]) and len(words) == 1:
        return None
    if "," not in prev_connector and not _ref_state_or_zip_follows(text, end):
        return None
    return " ".join(w.lstrip("#") for w in words), end


def _reference_match_unit(text: str, pos: int) -> Optional[tuple[str, int]]:
    key = _REF_UNIT_KEY_RE.match(text, pos)
    if key is not None:
        rest = re.match(r"[ \t]*" + _REF_UNIT_DESIGNATOR_RE.pattern, text[key.end():])
        if rest is not None:
            return _ref_normalize_ws(text[pos : key.end() + rest.end()]), key.end() + rest.end()
        return None
    bare = _REF_UNIT_DESIGNATOR_RE.match(text, pos)
    if bare is not None and text[pos] == "#":
        designator = bare.group(1)
        if any(ch.isdigit() for ch in designator) or len(designator) == 1:
            return _ref_normalize_ws(bare.group(0)), bare.end()
    return None


def reference_extract_full_address(text: str) -> Optional[FullAddress]:
    matches = reference_detect_address(text)
    if not matches:
        return None
    first = matches[0]
    cursor = first.span[1]
    head = _ref_normalize_ws(first.matched_text)
    pieces: list[tuple[str, str]] = []

    def advance(kind: str) -> Optional[str]:
        nonlocal cursor
        conn = _ref_connector(text, cursor)
        if conn is None:
            return None
        start = conn.end()
        connector_text = conn.group(0)
        if kind == "unit":
            found = _reference_match_unit(text, start)
        elif kind == "city":
            found = _ref_match_city(text, start, connector_text)
        elif kind == "state":
            found = _ref_match_state(text, start, connector_text)
        else:
            m = _REF_ZIP_RE.match(text, start)
            found = (m.group(0), m.end()) if m else None
        if found is None:
            return None
        value, end = found
        pieces.append((value, connector_text))
        cursor = end
        return value

    unit = advance("unit")
    city = advance("city")
    state = advance("state")
    zip_code = advance("zip")
    completed = head
    for value, connector_text in pieces:
        completed += (", " if "," in connector_text else " ") + value
    return FullAddress(
        house_number=first.house_number,
        street=first.street,
        unit=unit,
        city=city,
        state=state,
        zip=zip_code,
        completed=completed,
    )


# --- reference: completion through dataclasses.replace --------------------------

def reference_complete_address(addr: FullAddress, hashtags) -> FullAddress:
    if addr.completion_rule is not None:
        return addr
    base = addr.completed
    if addr.city is None and addr.state is None and addr.zip is None:
        if any("houston" in tag.lower() for tag in hashtags):
            return replace(
                addr,
                completed=base + ", Houston, TX",
                completion_rule=CompletionRule.HOUSTON_HASHTAG,
            )
        return replace(
            addr, completed=base + ", Texas", completion_rule=CompletionRule.TEXAS_DEFAULT
        )
    if contains_texas(base):
        return replace(addr, completion_rule=CompletionRule.NONE)
    return replace(
        addr, completed=base + ", Texas", completion_rule=CompletionRule.TEXAS_APPENDED
    )


# --- generated text ---------------------------------------------------------------

_CASES = (str.lower, str.upper, str.title, str.swapcase, lambda s: s)
_GRAMMAR_WORDS = _REF_SUFFIXES + list(_REF_DESIGNATORS)


def _cased(words: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.tuples(words, st.sampled_from(_CASES)).map(lambda t: t[1](t[0]))


_designators = _cased(st.sampled_from(_REF_DESIGNATORS))
_street_words = _cased(st.one_of(
    st.sampled_from(_GRAMMAR_WORDS),
    # prefixes and extensions of suffixes: "Av", "Aven", "Avenues", "Stx", "Rd1"
    st.builds(lambda w, k: w[:k], st.sampled_from(_GRAMMAR_WORDS), st.integers(1, 4)),
    st.builds(
        lambda w, tail: w + tail,
        st.sampled_from(_GRAMMAR_WORDS),
        st.sampled_from(["s", "x", "UE", "1", "-A", ".", "#"]),
    ),
    st.from_regex(r"[A-Za-z]|[0-9]{1,3}", fullmatch=True),
    st.sampled_from(["Main", "South", "#Braeswood", "Mid-Town", "S.", "Apt"]),
))
_digits = st.integers(1, 7).flatmap(lambda n: st.text("0123456789", min_size=n, max_size=n))
_spaces = st.sampled_from([" ", " ", " ", "  ", "\n", "\t", " \n"])
_gaps = st.one_of(_spaces, st.sampled_from(["", ".", "-", "#", ". ", ", "]))
# A house number and 1-4 street words, often led by a designator and a letter
# ("4 Ave G Ct"), so that both branches of the grammar, and near-misses of
# each, start at one offset.
_lead = st.one_of(
    _street_words,
    _designators,
    st.builds(lambda d, space, letter: d + space + letter, _designators, _spaces, st.sampled_from("GbZ")),
)
_candidates = st.builds(
    lambda num, space, lead, gap, words: num + space + lead + gap + "".join(w + g for w, g in words),
    _digits,
    _spaces,
    _lead,
    _gaps,
    st.lists(st.tuples(_street_words, _gaps), max_size=3),
)
_tokens = st.one_of(_candidates, _digits, _street_words, st.sampled_from(["#", ".", "-", "\n"]))
_texts = st.lists(st.tuples(_tokens, _gaps), max_size=6).map(
    lambda parts: "".join(token + gap for token, gap in parts)
)


@settings(max_examples=300, deadline=None)
@given(text=_texts)
@example(text="4 Ave G Ct")
@example(text="123456 Main St, 1234567 Elm Rd")
@example(text="12 Hwy 6x and 9 Main Stx")
# The search starts at a digit and looks back for the word boundary: no match
# after a letter, '_' or 'é', a match after a space or '#', and `\d` takes any
# Unicode digit.
@example(text="a12 Main St")
@example(text="_12 Main St")
@example(text="é12 Main St")
@example(text="x 12 Main St")
@example(text="#12 Main St")
@example(text="١٢ Main St")
@example(text="１２ Main St")
def test_detect_address_matches_two_pattern_reference(text):
    match = detect_address(text)
    expected = reference_detect_address(text)
    assert (match is None) == (not expected)
    if match is not None:
        assert ReferenceMatch(
            span=match.span(),
            matched_text=match.group(),
            form=match.lastgroup,
            house_number=match.group("num"),
            street=" ".join(match.group(match.lastgroup).split()),
        ) == expected[0]


_CONNECTORS = (" ", ", ", ",", ".", ". ", "\n", " ,\t", "")
_COMPONENTS = (
    "Apt 4B", "apt. 12", "Suite \tA", "Apt\t 4B", "unit", "Ste 1-2", "#4B", "#B", "# 7", "#Houston",
    "Houston", "#Houston", "Sugar Land", "Katy TX", "houston", "New York", "Of",
    "TX", "Texas", "tx", "New  Mexico", "OK", "IN", "Ok", "#TX",
    "#A-BCDE", "Katy", "Sugar Land9", "New\nMexico", "Texas City",
    "North Dakota", "West", "District of Columbia", "Fargo",
    "77025", "77025-1234", "7702", "770251", "77025x",
    "please", "Help", "now",
)
_ADDRESSES = ("4055 South Braeswood Blvd", "123 Ave. G", "900 Elm St", "12 Clay Rd", "no address")
_chains = st.builds(
    lambda head, parts: head + "".join(conn + part for conn, part in parts),
    st.sampled_from(_ADDRESSES),
    st.lists(st.tuples(st.sampled_from(_CONNECTORS), st.sampled_from(_COMPONENTS)), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_chains, _texts))
@example(text="4055 South Braeswood Blvd Apt 4B, Houston, TX 77025")
@example(text="900 Elm St, Katy 77494")
# Each case below is one where a pattern that may backtrack into a component
# finds a shorter match that the first match's rule would not allow.
@example(text="900 Elm St #A-BCDE")  # "A-BCDE" has no digit; "#A" is no unit
@example(text="900 Elm St #AB-CD1X2")  # the designator "AB" ends before the digit
@example(text="12 Main St Katy OK")  # "OK" without a zip is no state, so no city
@example(text="12 Main St Katy OK 77494")
@example(text="12 Main St Sugar Land9")  # the city is "Sugar", which needs a state or zip
@example(text="12 Main St, Foo New York")  # "Foo" then "New York": no city "Foo New"
@example(text="12 Main St Foo New York")
@example(text="12 Main St, Fargo North Dakota 58102")
@example(text="12 Main St Buffalo New York")
@example(text="12 Main St Charleston West Virginia")  # not "Charleston West", "Virginia"
@example(text="12 Main St, Foo New  york")  # the state's case and whitespace rules
@example(text="12 Main St, Foo New Yorker")  # no state follows, so "Foo New" is the city
@example(text="12 Main St, South Houston, TX")
@example(text="12 Main St, Port New Orleans")
@example(text="12 Main St Apt")
@example(text="12 Main St New\nMexico")
@example(text="12 Main St, Texa\u017f 77025")  # the city "Texa": "ſ" is no ASCII letter
@example(text="12 Main St Texa\u017f 77025")  # the state "Texaſ": "ſ" is "s" in any case
@example(text="# 0 avenue  0 ")  # the chain starts one connector before the end
def test_extract_full_address_matches_advance_walk_reference(text):
    match = detect_address(text)
    expected = reference_extract_full_address(text)
    assert (match is None) == (expected is None)
    if match is not None:
        result = extract_full_address(match)
        assert result == expected
        street = " ".join(match.group(match.lastgroup).split())
        assert (result.house_number, result.street) == (match.group("num"), street)


_HASHTAGS = st.lists(
    st.one_of(
        st.sampled_from(["HOUSTON", "Houston", "houstonflood", "#HoustonStrong", "harvey", "htx", "", "\u0130"]),
        st.text(max_size=8),
    ),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(text=_chains, hashtags=_HASHTAGS, as_tuple=st.booleans(), already_completed=st.booleans())
@example(text="4055 South Braeswood Blvd", hashtags=["HOUSTON"], as_tuple=False, already_completed=False)
@example(text="4055 South Braeswood Blvd", hashtags=["Houston"], as_tuple=True, already_completed=False)
@example(text="123 Ave. G", hashtags=["harvey"], as_tuple=False, already_completed=False)
@example(text="4055 South Braeswood Blvd, Houston, TX", hashtags=[], as_tuple=False, already_completed=False)
@example(text="900 Elm St, Katy 77494", hashtags=["Houston"], as_tuple=False, already_completed=False)
@example(text="900 Elm St Apt 4B", hashtags=["HOUSTON"], as_tuple=False, already_completed=True)
def test_complete_address_matches_replace_reference(text, hashtags, as_tuple, already_completed):
    match = detect_address(text)
    assume(match is not None)
    addr = extract_full_address(match)
    tags = tuple(hashtags) if as_tuple else hashtags
    if already_completed:
        addr = reference_complete_address(addr, tags)
    done = complete_address(addr, tags)
    expected = reference_complete_address(addr, tags)
    assert done == expected and repr(done) == repr(expected)
