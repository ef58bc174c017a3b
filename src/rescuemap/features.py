"""Boolean text features and the logic filter that combines them.

A tweet is classified a rescue request when it carries a street address AND
either a help request or disaster context, AND none of the five negative
features (status update, help offer, news report, political commentary,
advertisement) fire.

:func:`extract_features` and :func:`classify` compute all eight features,
which ``rescuemap classify`` reports. The pipeline and ``rescuemap eval``
need only the verdict, so they call :func:`is_rescue_request`, which decides
the rule for a text that carries an address with one search of the lexicon's
positive union, the region pairs only when that fails, and one search of its
negative union: two searches on most texts instead of up to fourteen.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

from .address import detect_address
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


def extract_features(text: str, lex: LexiconConfig) -> FeatureVector:
    """Evaluate all eight feature predicates on one text.

    Disaster context is a disaster name, a full region/disaster pair, or a
    situation word; the five negative flags follow ``NEGATIVE_FEATURES``.
    """
    lists = lex.list_patterns
    status, offer, news, political, ads = (rx.search(text) is not None for rx in lists.negatives)
    return FeatureVector(
        has_address=detect_address(text) is not None,
        has_ask_help=lists.help.search(text) is not None,
        has_disaster_context=(
            lists.names.search(text) is not None
            or any(region.search(text) and words.search(text) for region, words in lex.pair_patterns)
            or lists.situation.search(text) is not None
        ),
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
