"""Lexicon configuration for the rule-based rescue-request classifier.

All phrase lists ship as editable data files under ``rescuemap/data/`` so the
classifier stays auditable: one entry per line, UTF-8, lines starting with
``#`` are comments. The region/disaster pair file is tab-separated. The files
are read from the package's own directory, so the package must be installed
unpacked, as pip installs it, not imported from a zip archive.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

_PACKAGED = Path(__file__).with_name("data")

NEGATIVE_FEATURES = ("status_update", "offer_help", "news_report", "political", "ads")

_DATA_FILES = {
    "help_keywords": "help_keywords.txt",
    "disaster_names": "disaster_names.txt",
    "region_disaster_pairs": "region_disaster_pairs.tsv",
    "situation_words": "situation_words.txt",
    "status_update": "negative_status_update.txt",
    "offer_help": "negative_offer_help.txt",
    "news_report": "negative_news_report.txt",
    "political": "negative_political.txt",
    "ads": "negative_ads.txt",
    "spanish_help": "spanish_help_keywords.txt",
    "spanish_situation": "spanish_situation_words.txt",
}


class LexiconError(ValueError):
    """Raised when a lexicon file cannot be parsed."""


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for each entry of a data file.

    Lines split as ``str.splitlines`` splits them and count from 1; blank
    and ``#`` comment lines are skipped but counted.
    """
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def _parse_pairs(text: str, source: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for i, line in data_lines(text):
        cols = [c.strip() for c in line.split("\t")]
        if len(cols) != 2 or not all(cols):
            raise LexiconError(f"{source}:{i}: expected 'region<TAB>disaster word'")
        pairs.append((cols[0], cols[1]))
    return tuple(pairs)


def load_street_suffixes() -> frozenset[str]:
    """The shipped street-suffix lexicon (uppercased entries)."""
    text = (_PACKAGED / "street_suffixes.txt").read_text(encoding="utf-8")
    return frozenset(s.upper() for _, s in data_lines(text))


def _compile_phrases(phrases: Iterable[str]) -> re.Pattern:
    """One case-insensitive regex that finds any of the phrases as whole words.

    No word character may touch either end of a match, also where a phrase
    starts or ends with punctuation ("sos!" matches "send sos! now" but not
    "sos!x"). A match may carry a leading '#', and the words of a phrase may
    be joined by any run of whitespace or none ("please help" also matches
    "#PleaseHelp"). An empty list never matches. The leading lookahead on
    '#' and each phrase's first character lets the engine skip most start
    positions without trying the alternation.
    """
    words = [p.split() for p in phrases if p.strip()]
    if not words:
        return re.compile("(?!)")
    bodies = [r"\s*".join(re.escape(w) for w in ws) for ws in words]
    first = "".join(sorted({re.escape(ws[0][0]) for ws in words}))
    return re.compile(
        r"(?=[#" + first + r"])#?(?<!\w)(?:" + "|".join(bodies) + r")(?!\w)", re.IGNORECASE
    )


@dataclass(frozen=True)
class ListPatterns:
    """One compiled regex per phrase list of a :class:`LexiconConfig`.

    ``negatives`` follows ``NEGATIVE_FEATURES`` order.
    """

    help: re.Pattern
    names: re.Pattern
    situation: re.Pattern
    negatives: tuple[re.Pattern, ...]


@dataclass(frozen=True)
class UnionPatterns:
    """The phrase lists of a :class:`LexiconConfig` united into two regexes.

    ``positive`` unites the help, disaster-name and situation lists and
    ``negative`` the five negative lists. A union matches somewhere exactly
    when one of its lists does, so one search of it stands for a search of
    each of its lists.
    """

    positive: re.Pattern
    negative: re.Pattern


@dataclass(frozen=True)
class LexiconConfig:
    """The phrase lists driving every text feature detector.

    The Spanish overlay, when loaded, is already folded into
    ``help_keywords`` and ``situation_words``.
    """

    help_keywords: tuple[str, ...]
    disaster_names: tuple[str, ...]
    region_disaster_pairs: tuple[tuple[str, str], ...]
    situation_words: tuple[str, ...]
    negative_lexicons: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        missing = [k for k in NEGATIVE_FEATURES if k not in self.negative_lexicons]
        if missing:
            raise LexiconError(f"negative_lexicons missing entries for: {missing}")

    # Each group compiles on first use, so a caller pays only for what it
    # searches: extract_features the lists and pairs, the pipeline the unions
    # and pairs.
    @cached_property
    def list_patterns(self) -> ListPatterns:
        return ListPatterns(
            help=_compile_phrases(self.help_keywords),
            names=_compile_phrases(self.disaster_names),
            situation=_compile_phrases(self.situation_words),
            negatives=tuple(
                _compile_phrases(self.negative_lexicons[k]) for k in NEGATIVE_FEATURES
            ),
        )

    @cached_property
    def pair_patterns(self) -> tuple[tuple[re.Pattern, re.Pattern], ...]:
        """One (region, any of its disaster words) pattern pair per distinct region."""
        regions: dict[str, list[str]] = {}
        for region, word in self.region_disaster_pairs:
            regions.setdefault(region, []).append(word)
        return tuple(
            (_compile_phrases((region,)), _compile_phrases(words))
            for region, words in regions.items()
        )

    @cached_property
    def union_patterns(self) -> UnionPatterns:
        return UnionPatterns(
            positive=_compile_phrases(
                (*self.help_keywords, *self.disaster_names, *self.situation_words)
            ),
            negative=_compile_phrases(
                p for k in NEGATIVE_FEATURES for p in self.negative_lexicons[k]
            ),
        )


def _load(directory: Path | None, spanish: bool) -> LexiconConfig:
    """Each list from ``directory`` if it holds the file, else the packaged one.

    With ``spanish``, the Spanish lists are appended to the help and
    situation lists.
    """

    def read(name: str) -> tuple[str, str]:
        if directory is not None:
            path = directory / _DATA_FILES[name]
            if path.is_file():
                try:
                    return path.read_text(encoding="utf-8-sig"), str(path)
                except UnicodeDecodeError:
                    raise LexiconError(f"{path}: not valid UTF-8") from None
        return (_PACKAGED / _DATA_FILES[name]).read_text(encoding="utf-8"), _DATA_FILES[name]

    def phrases(name: str) -> tuple[str, ...]:
        return tuple(line for _, line in data_lines(read(name)[0]))

    help_keywords = phrases("help_keywords")
    situation = phrases("situation_words")
    if spanish:
        help_keywords += phrases("spanish_help")
        situation += phrases("spanish_situation")
    return LexiconConfig(
        help_keywords=help_keywords,
        disaster_names=phrases("disaster_names"),
        region_disaster_pairs=_parse_pairs(*read("region_disaster_pairs")),
        situation_words=situation,
        negative_lexicons={k: phrases(k) for k in NEGATIVE_FEATURES},
    )


def default_lexicon(spanish: bool = False) -> LexiconConfig:
    """The lexicon shipped with the package; ``spanish`` appends the Spanish overlay."""
    return _load(None, spanish)


def lexicon_from_dir(directory: str | Path, spanish: bool = False) -> LexiconConfig:
    """Build a lexicon from a directory of override files.

    Any file named like a packaged one (``help_keywords.txt``,
    ``spanish_help_keywords.txt`` etc.) replaces that shipped list; every
    other list keeps its default. ``spanish`` appends the Spanish lists,
    overridden or shipped, to the help and situation lists.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise LexiconError(f"lexicon directory not found: {directory}")
    return _load(directory, spanish)
