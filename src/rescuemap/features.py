"""Boolean text features and the logic filter that combines them.

A tweet is classified a rescue request when it carries a street address AND
either a help request or disaster context, AND none of the five negative
features (status update, help offer, news report, political commentary,
advertisement) fire.

:func:`extract_features` and :func:`classify` compute all eight features,
which ``rescuemap classify`` and ``rescuemap eval`` report. The pipeline
needs only the verdict, so it calls :func:`is_rescue_request`, which decides
the rule for a text that carries an address with one search of the lexicon's
positive union, the region pairs only when that fails, and one search of its
negative union: two searches on most texts instead of up to fourteen.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

from .address import AddressMatch, detect_address
from .lexicons import LexiconConfig


class Verdict(Enum):
    RESCUE_REQUEST = "RescueRequest"
    NOT_RESCUE_REQUEST = "NotRescueRequest"


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


# --- feature detectors ------------------------------------------------------

def detect_ask_help(text: str, lex: LexiconConfig) -> bool:
    """True when any help-request phrase occurs in the text."""
    return lex.list_patterns.help.search(text) is not None


def detect_disaster_context(text: str, lex: LexiconConfig) -> bool:
    """True for a disaster name, a full region/disaster pair, or a situation word."""
    lists = lex.list_patterns
    return (
        lists.names.search(text) is not None
        or any(region.search(text) and words.search(text) for region, words in lex.pair_patterns)
        or lists.situation.search(text) is not None
    )


def detect_negative_features(
    text: str, lex: LexiconConfig
) -> tuple[bool, bool, bool, bool, bool]:
    """(status_update, offer_help, news_report, political, ads) flags."""
    return tuple(rx.search(text) is not None for rx in lex.list_patterns.negatives)  # type: ignore[return-value]


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


def is_rescue_request(text: str, lex: LexiconConfig) -> bool:
    """The logic rule's verdict for a text already known to carry an address.

    Equal to ``classify(extract_features(text, lex)) is
    Verdict.RESCUE_REQUEST`` whenever :func:`detect_address` finds a match,
    but it searches the ``positive`` and ``negative`` unions of
    :class:`UnionPatterns` and stops at the first search that settles the
    verdict.
    """
    unions = lex.union_patterns
    return (
        unions.positive.search(text) is not None
        or any(region.search(text) and words.search(text) for region, words in lex.pair_patterns)
    ) and unions.negative.search(text) is None
