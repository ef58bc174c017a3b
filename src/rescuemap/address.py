"""Street-address detection, full-address extraction and Houston/Texas completion.

A street address is a house number followed by either 1-3 street-name words
and a street suffix ("4055 South Braeswood Blvd") or a designator and a
number or letter ("1108 Highway 7"). From the end of the first such match,
one anchored match of one chain pattern reads the optional components of a
US address: unit, city (possibly hashtagged), state, and zip code, each
taken greedily and kept only where its context rules allow. Components are
separated by "connector" runs of spaces, tabs, newlines, carriage returns,
form feeds, commas, and periods. Under-specified addresses are completed so
the final search string always names Texas.
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


@dataclass(frozen=True, slots=True)
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
            if len(branches) == 1 and len(branches[0]) == 1:
                return f"{branches[0]}?"  # "STS?" for "ST(?:S)?": one program, less to parse
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
# first, wins over the designator branch. The pattern starts with a digit and
# checks the word boundary behind it, so the search scans ahead for a digit
# before it tries the pattern; a leading `\b` kept the scan from being built.
_ADDRESS_RE = re.compile(
    rf"(?P<num>\d(?<=\b\d)\d{{0,5}})\s+(?:"
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

_TEXAS_RE = re.compile(r"texas|\btx\b", re.IGNORECASE)


def contains_texas(text: str) -> bool:
    """'texas' anywhere or 'TX' as a standalone token, case-insensitive."""
    return _TEXAS_RE.search(text) is not None


def _connector_run(name: str) -> str:
    """A connector run; the group ``name`` is set when the run holds a comma.

    No component starts with a connector character, so a component always
    follows the whole run.
    """
    return rf"(?:(?P<{name}>[ \t\n\r\f.]*,[ \t\n\r\f,.]*)|[ \t\n\r\f.]+)"


_CITY_WORD = r"(?:#[A-Za-z]+|[A-Z][A-Za-z]*)"
_ZIP = r"\d{5}(?:-\d{4})?(?![0-9A-Za-z])"

# The optional unit, city, state and zip after a street address, in that
# order, read by one anchored match; each component's connector run comes
# before it. A component is the first match of its own pattern, judged once:
# where a rule can reject that match, an atomic group, ``(?>...)``, keeps the
# engine from backtracking into a shorter match the rule would accept. A
# rejected component leaves the position for the next one. Only extraction
# reads the pattern, so extract_full_address builds it on its first call. Two
# threads may both build it; each gets the same pattern.
_CHAIN_RE: Optional[re.Pattern] = None


def _compile_chain() -> re.Pattern:
    """Build and keep ``_CHAIN_RE``, with the state alternations only it reads."""
    global _CHAIN_RE
    state_names = frozenset(name.lower() for name in _STATE_NAMES_BY_ABBREV.values())
    state_abbrev_alt = _trie_alternation(frozenset(_STATE_NAMES_BY_ABBREV))
    # A state name in any case, with any whitespace run between its words.
    state_name_alt = _trie_alternation(state_names).replace(r"\ ", r"\s+")
    # A whole city word that is a state word: a one-word state name in any ASCII
    # case (city words are ASCII letters, so "Texa" before "ſ" is none) or an
    # uppercase code, '#'-prefixed or not ("texas", "#TX").
    one_word_state_name_alt = _trie_alternation(frozenset(n for n in state_names if " " not in n))
    state_word = rf"#?(?:(?ai:{one_word_state_name_alt})|{state_abbrev_alt})(?![A-Za-z])"
    # A state name of two or more words where the state would read one.
    multi_word_state_name = (
        rf"(?i:{_trie_alternation(frozenset(n for n in state_names if ' ' in n))})(?![A-Za-z])"
    ).replace(r"\ ", r"\s+")
    _CHAIN_RE = re.compile(
        # Unit: a key word and a designator ("Apt 4B", "Suite A"), or '#' and a
        # designator ("#4B", "#B"). The lookbehinds reject a bare designator of
        # two to six letters and hyphens, so that "#Houston" is no unit.
        rf"(?:{_connector_run('unit_comma')}(?P<unit>"
        r"(?i:apartment|suite|unit|apt|ste)\b\.?[ \t]*#?\s?[A-Za-z0-9][A-Za-z0-9-]{0,5}(?![A-Za-z0-9])"
        r"|#\s?(?>[A-Za-z0-9][A-Za-z0-9-]{0,5}(?![A-Za-z0-9]))"
        + "".join(rf"(?<![#\s][A-Za-z-]{{{n}}})" for n in range(2, 7))
        + "))?"
        # City: the first match of one or two words (city_1, city_2) gives both
        # words unless the second is a state word, else the first alone unless
        # it is a state word. A second word never starts a state name of two or
        # more words: "Fargo North Dakota" is "Fargo", then "North Dakota". The
        # final condition asks a city for a comma before it or a state or zip
        # right after it.
        + rf"(?:{_connector_run('city_comma')}"
        rf"(?P<city>(?>(?=(?P<city_1>{_CITY_WORD})"
        rf"(?: (?!{multi_word_state_name})(?P<city_2>{_CITY_WORD}))?(?![A-Za-z0-9]))"
        rf"(?:(?P=city_1) (?=(?P=city_2)))?(?!{state_word})#?[A-Za-z]+)))?"
        # State: a full name, or an uppercase code that is TX, follows a comma
        # or has a zip after it (bare codes collide with "IN", "OR", "OK").
        rf"(?:{_connector_run('state_comma')}(?P<state>(?i:(?:{state_name_alt})(?![A-Za-z]))"
        rf"|(?:{state_abbrev_alt})(?![A-Za-z0-9])"
        rf"(?(state_comma)|(?:(?<=TX)|(?=[ \t\n\r\f,.]+{_ZIP})))))?"
        rf"(?:{_connector_run('zip_comma')}(?P<zip>{_ZIP}))?"
        # Failing here drops the city, and the state and zip are read again
        # from where the city started.
        r"(?(city)(?(city_comma)|(?(state)|(?(zip)|(?!)))))"
    )
    return _CHAIN_RE


_CHAIN_GROUPS = (
    "unit_comma", "unit", "city_comma", "city", "state_comma", "state", "zip_comma", "zip",
)

# Both builders fill each new FullAddress through its slots' member
# descriptors: the same store the generated __init__ makes through
# object.__setattr__, at about half the cost.
(
    _set_house_number, _set_street, _set_unit, _set_city,
    _set_state, _set_zip, _set_completed, _set_completion_rule,
) = (vars(FullAddress)[field].__set__ for field in FullAddress.__match_args__)


def _new_full_address(
    house_number: str,
    street: str,
    unit: Optional[str],
    city: Optional[str],
    state: Optional[str],
    zip_code: Optional[str],
    completed: str,
    completion_rule: Optional[CompletionRule],
) -> FullAddress:
    addr = object.__new__(FullAddress)
    _set_house_number(addr, house_number)
    _set_street(addr, street)
    _set_unit(addr, unit)
    _set_city(addr, city)
    _set_state(addr, state)
    _set_zip(addr, zip_code)
    _set_completed(addr, completed)
    _set_completion_rule(addr, completion_rule)
    return addr


def extract_full_address(match: re.Match) -> FullAddress:
    """Parse the longest component chain after a :func:`detect_address` match.

    The chain is read from ``match.string``, starting at ``match.end()``. The
    result is uncompleted: run :func:`complete_address` to obtain the final
    search string.
    """
    unit_comma, unit, city_comma, city, state_comma, state, zip_comma, zip_code = (
        _CHAIN_RE or _compile_chain()
    ).match(match.string, match.end()).group(*_CHAIN_GROUPS)
    house_number, street = match.group("num", match.lastgroup)
    street = _normalize_ws(street)
    # The number holds no whitespace and `\s+` follows it, so this is the
    # whole match with its whitespace runs normalized.
    completed = f"{house_number} {street}"
    if unit is not None:
        unit = _normalize_ws(unit)
        completed += (" " if unit_comma is None else ", ") + unit
    if city is not None:
        city = city.replace("#", "")  # '#' only ever leads a city word
        completed += (" " if city_comma is None else ", ") + city
    if state is not None:
        state = _normalize_ws(state)
        completed += (" " if state_comma is None else ", ") + state
    if zip_code is not None:
        completed += (" " if zip_comma is None else ", ") + zip_code
    return _new_full_address(house_number, street, unit, city, state, zip_code, completed, None)


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
    return _new_full_address(
        addr.house_number, addr.street, addr.unit, addr.city, addr.state, addr.zip, completed, rule
    )
