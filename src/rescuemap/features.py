"""Boolean text features and the logic filter that combines them.

A tweet is classified a rescue request when it carries a street address AND
either a help request or disaster context, AND none of the five negative
features (status update, help offer, news report, political commentary,
advertisement) fire.
"""
from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from enum import Enum

from .lexicons import LexiconConfig, load_street_suffixes


class Verdict(Enum):
    RESCUE_REQUEST = "RescueRequest"
    NOT_RESCUE_REQUEST = "NotRescueRequest"


class AddressForm(Enum):
    NAME_SUFFIX = "name_suffix"            # e.g. "4055 South Braeswood Blvd"
    SUFFIX_DESIGNATOR = "suffix_designator"  # e.g. "1108 Highway 7", "123 Ave. G"


@dataclass(frozen=True)
class AddressMatch:
    span: tuple[int, int]
    matched_text: str
    form: AddressForm
    house_number: str
    street: str


@dataclass(frozen=True)
class FeatureVector:
    has_address: bool
    has_ask_help: bool
    has_disaster_context: bool
    has_status_update: bool
    has_offer_help: bool
    has_news_report: bool
    has_political: bool
    has_ads: bool

    def as_dict(self) -> dict[str, bool]:
        return asdict(self)


# --- street address detection -------------------------------------------------

# A street-name word: optional '#', letters, optional hyphenated parts,
# optional trailing period ("South", "#Braeswood", "S.", "Mid-Town").
_WORD = r"#?[A-Za-z]+(?:-[A-Za-z]+)*\.?"

_SUFFIXES = load_street_suffixes()
_SUFFIX_ALT = "|".join(sorted((re.escape(s) for s in _SUFFIXES), key=len, reverse=True))

# Form 1: <house number> <1-3 street-name words> <street suffix>[.]
_FORM1_RE = re.compile(
    rf"\b(?P<num>\d{{1,6}})\s+(?P<street>(?:{_WORD}\s+){{1,3}}(?:{_SUFFIX_ALT})\.?)(?![A-Za-z0-9])",
    re.IGNORECASE,
)

# Form 2: <house number> <designator>[.] <digits | single letter>
_DESIGNATORS = (
    "AVENUE", "AVE", "AV", "AVEN", "AVENU", "AVN", "AVNUE",
    "HIGHWAY", "HWY", "HIWAY", "HIWY", "HWAY",
    "ROAD", "RD", "ROADS", "RDS",
    "ROUTE", "RTE",
    "STREET", "ST", "STRT", "STR", "STREETS", "STS",
)
_DESIGNATOR_ALT = "|".join(sorted(_DESIGNATORS, key=len, reverse=True))
_FORM2_RE = re.compile(
    rf"\b(?P<num>\d{{1,6}})\s+(?P<street>(?:{_DESIGNATOR_ALT})\.?\s+(?:\d+|[A-Za-z]))(?![A-Za-z0-9])",
    re.IGNORECASE,
)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def detect_address(text: str) -> list[AddressMatch]:
    """All non-overlapping leftmost street-address matches, sorted by start.

    At equal start offsets the name+suffix form wins over the
    designator form.
    """
    matches: list[AddressMatch] = []
    pos = 0
    length = len(text)
    while pos < length:
        m1 = _FORM1_RE.search(text, pos)
        m2 = _FORM2_RE.search(text, pos)
        if m1 is None and m2 is None:
            break
        if m2 is None or (m1 is not None and m1.start() <= m2.start()):
            m, form = m1, AddressForm.NAME_SUFFIX
        else:
            m, form = m2, AddressForm.SUFFIX_DESIGNATOR
        matches.append(
            AddressMatch(
                span=(m.start(), m.end()),
                matched_text=m.group(0),
                form=form,
                house_number=m.group("num"),
                street=_normalize_ws(m.group("street")),
            )
        )
        pos = m.end()
    return matches


# --- feature detectors ------------------------------------------------------

def detect_ask_help(text: str, lex: LexiconConfig) -> bool:
    """True when any help-request phrase occurs in the text."""
    return lex.patterns.help.search(text) is not None


def detect_disaster_context(text: str, lex: LexiconConfig) -> bool:
    """True for a disaster name, a full region/disaster pair, or a situation word."""
    patterns = lex.patterns
    return (
        patterns.names.search(text) is not None
        or any(region.search(text) and words.search(text) for region, words in patterns.pairs)
        or patterns.situation.search(text) is not None
    )


def detect_negative_features(
    text: str, lex: LexiconConfig
) -> tuple[bool, bool, bool, bool, bool]:
    """(status_update, offer_help, news_report, political, ads) flags."""
    return tuple(rx.search(text) is not None for rx in lex.patterns.negatives)  # type: ignore[return-value]


def extract_features(
    text: str,
    lex: LexiconConfig,
    *,
    address_matches: list[AddressMatch] | None = None,
) -> FeatureVector:
    """Evaluate all eight feature predicates on one text.

    ``address_matches`` lets callers that already ran :func:`detect_address`
    avoid scanning twice.
    """
    if address_matches is None:
        address_matches = detect_address(text)
    status, offer, news, political, ads = detect_negative_features(text, lex)
    return FeatureVector(
        has_address=bool(address_matches),
        has_ask_help=detect_ask_help(text, lex),
        has_disaster_context=detect_disaster_context(text, lex),
        has_status_update=status,
        has_offer_help=offer,
        has_news_report=news,
        has_political=political,
        has_ads=ads,
    )


def classify(fv: FeatureVector) -> Verdict:
    """Combine the eight feature predicates into the final verdict."""
    positive = (
        fv.has_address
        and (fv.has_ask_help or fv.has_disaster_context)
        and not (
            fv.has_status_update
            or fv.has_offer_help
            or fv.has_news_report
            or fv.has_political
            or fv.has_ads
        )
    )
    return Verdict.RESCUE_REQUEST if positive else Verdict.NOT_RESCUE_REQUEST
