from __future__ import annotations

import importlib.resources
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rescuemap import (
    LexiconConfig,
    LexiconError,
    Verdict,
    classify,
    default_lexicon,
    extract_features,
    lexicon_from_dir,
    load_street_suffixes,
)
from rescuemap.lexicons import NEGATIVE_FEATURES, data_lines

# The override file of each phrase list: the name of the packaged data file.
PHRASE_FILES = {
    "help_keywords": "help_keywords.txt",
    "disaster_names": "disaster_names.txt",
    "situation_words": "situation_words.txt",
    "status_update": "negative_status_update.txt",
    "offer_help": "negative_offer_help.txt",
    "news_report": "negative_news_report.txt",
    "political": "negative_political.txt",
    "ads": "negative_ads.txt",
    "spanish_help": "spanish_help_keywords.txt",
    "spanish_situation": "spanish_situation_words.txt",
}
PAIRS_FILE = "region_disaster_pairs.tsv"
SPANISH_OVERLAYS = [
    ("help_keywords", "spanish_help_keywords.txt"),
    ("situation_words", "spanish_situation_words.txt"),
]


def packaged_text(filename: str) -> str:
    return importlib.resources.files("rescuemap.data").joinpath(filename).read_text("utf-8")


def entries(text: str) -> tuple[str, ...]:
    stripped = (line.strip() for line in text.splitlines())
    return tuple(line for line in stripped if line and not line.startswith("#"))


def pairs(text: str) -> tuple[tuple[str, str], ...]:
    return tuple(tuple(c.strip() for c in row.split("\t")) for row in entries(text))


def reference_lexicon(directory: Path | None, spanish: bool) -> LexiconConfig:
    """Each list from its override file if present, else packaged; Spanish appended."""

    def text(filename: str) -> str:
        if directory is not None and (directory / filename).is_file():
            return (directory / filename).read_text("utf-8")
        return packaged_text(filename)

    lists = {name: entries(text(filename)) for name, filename in PHRASE_FILES.items()}
    help_keywords, situation = lists["help_keywords"], lists["situation_words"]
    if spanish:
        help_keywords += lists["spanish_help"]
        situation += lists["spanish_situation"]
    return LexiconConfig(
        help_keywords=help_keywords,
        disaster_names=lists["disaster_names"],
        region_disaster_pairs=pairs(text(PAIRS_FILE)),
        situation_words=situation,
        negative_lexicons={k: lists[k] for k in NEGATIVE_FEATURES},
    )


def earlier_default_lexicon(spanish: bool) -> LexiconConfig:
    """default_lexicon as it was built before every list went through one loader."""
    help_keywords = entries(packaged_text("help_keywords.txt"))
    situation = entries(packaged_text("situation_words.txt"))
    if spanish:
        help_keywords += entries(packaged_text("spanish_help_keywords.txt"))
        situation += entries(packaged_text("spanish_situation_words.txt"))
    return LexiconConfig(
        help_keywords=help_keywords,
        disaster_names=entries(packaged_text("disaster_names.txt")),
        region_disaster_pairs=pairs(packaged_text(PAIRS_FILE)),
        situation_words=situation,
        negative_lexicons={
            k: entries(packaged_text(f"negative_{k}.txt")) for k in NEGATIVE_FEATURES
        },
    )


class TestFileFormats:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "help_keywords.txt"
        path.write_text("# a comment\n\nfirst phrase\nsecond\n  \n", encoding="utf-8")
        assert lexicon_from_dir(tmp_path).help_keywords == ("first phrase", "second")

    def test_pairs_are_tab_separated(self, tmp_path):
        path = tmp_path / "region_disaster_pairs.tsv"
        path.write_text("# region<TAB>word\nBay City\tFlood\n", encoding="utf-8")
        assert lexicon_from_dir(tmp_path).region_disaster_pairs == (("Bay City", "Flood"),)

    def test_malformed_pair_row_raises(self, tmp_path):
        path = tmp_path / "region_disaster_pairs.tsv"
        path.write_text("Houston Flood\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="region_disaster_pairs.tsv:1"):
            lexicon_from_dir(tmp_path)

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            pytest.param(
                "# head\n\nfirst\n\nsecond\n", [(3, "first"), (5, "second")],
                id="numbers_count_skipped_lines",
            ),
            pytest.param("  # indented\nkept\n", [(2, "kept")], id="indented_comment_skipped"),
            pytest.param("a # b\n", [(1, "a # b")], id="inline_hash_kept"),
            pytest.param(" \t \nx", [(2, "x")], id="whitespace_only_line_skipped"),
            pytest.param(
                "a\x0bb\x1cc\u2028d", [(1, "a"), (2, "b"), (3, "c"), (4, "d")],
                id="splitlines_boundaries",
            ),
        ],
    )
    def test_data_lines(self, text, expected):
        assert list(data_lines(text)) == expected

    def test_street_suffixes_are_plentiful(self):
        suffixes = load_street_suffixes()
        assert len(suffixes) > 200
        for expected in ("ALLEY", "AVE", "BLVD", "HWY", "ST", "WAY", "XING"):
            assert expected in suffixes


class TestDefaults:
    def test_default_negative_lexicons_complete(self, lex):
        assert set(lex.negative_lexicons) == {
            "status_update",
            "offer_help",
            "news_report",
            "political",
            "ads",
        }

    def test_quoted_phrases_are_shipped(self, lex):
        lowered = {p.lower() for p in lex.help_keywords}
        assert {"hurricanerescue", "floodrescue", "please help", "need to be rescued"} <= lowered
        assert {"stranded", "stuck", "trapped", "rooftop", "attic"} <= set(lex.situation_words)
        names = {n.lower() for n in lex.disaster_names}
        assert {"hurricane harvey", "hurricaneharvey", "hurricaneflood", "houstonflood"} <= names
        pairs = {(r.lower(), w.lower()) for r, w in lex.region_disaster_pairs}
        assert {("texas", "harvey"), ("bay city", "flood"), ("houston", "flood")} <= pairs


class TestSpanishOverlay:
    SPANISH_TEXT = "Ayuda por favor, estamos atrapados en la azotea, 7412 Canal St"

    def test_disabled_by_default(self, lex):
        assert not extract_features(self.SPANISH_TEXT, lex).has_ask_help
        assert classify(extract_features(self.SPANISH_TEXT, lex)) is Verdict.NOT_RESCUE_REQUEST

    def test_enabled_overlay_catches_spanish_requests(self):
        spanish = default_lexicon(spanish=True)
        features = extract_features(self.SPANISH_TEXT, spanish)
        assert features.has_ask_help
        assert features.has_disaster_context
        assert classify(features) is Verdict.RESCUE_REQUEST


class TestOverrideDirectory:
    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(LexiconError):
            lexicon_from_dir(tmp_path / "nope")

    def test_partial_override_keeps_other_defaults(self, tmp_path, lex):
        (tmp_path / "help_keywords.txt").write_text("send a helicopter\n", encoding="utf-8")
        overridden = lexicon_from_dir(tmp_path)
        assert overridden.help_keywords == ("send a helicopter",)
        assert overridden.disaster_names == lex.disaster_names
        assert extract_features("SEND A HELICOPTER now", overridden).has_ask_help
        assert not extract_features("please help", overridden).has_ask_help

    def test_negative_override(self, tmp_path):
        (tmp_path / "negative_ads.txt").write_text("crypto\n", encoding="utf-8")
        overridden = lexicon_from_dir(tmp_path)
        features = extract_features("best crypto deals at 1 Main St", overridden)
        assert features.has_ads

    @pytest.mark.parametrize("field, spanish_file", SPANISH_OVERLAYS)
    def test_override_keeps_shipped_spanish_overlay(self, tmp_path, field, spanish_file):
        (tmp_path / f"{field}.txt").write_text("send a helicopter\n", encoding="utf-8")
        overridden = lexicon_from_dir(tmp_path, spanish=True)
        expected = ("send a helicopter",) + entries(packaged_text(spanish_file))
        assert getattr(overridden, field) == expected

    @pytest.mark.parametrize("field, spanish_file", SPANISH_OVERLAYS)
    def test_spanish_override_alone_is_read(self, tmp_path, lex, field, spanish_file):
        (tmp_path / spanish_file).write_text("socorro urgente\n", encoding="utf-8")
        overridden = lexicon_from_dir(tmp_path, spanish=True)
        assert getattr(overridden, field) == getattr(lex, field) + ("socorro urgente",)
        assert lexicon_from_dir(tmp_path) == lex


class TestLoader:
    @pytest.mark.parametrize("spanish", [False, True])
    def test_default_lexicon_matches_earlier_construction(self, spanish):
        assert default_lexicon(spanish=spanish) == earlier_default_lexicon(spanish)

    _phrase = st.text(alphabet="abcxyz é", min_size=1, max_size=12).map(str.strip).filter(bool)

    @settings(max_examples=150, deadline=None)
    @given(
        overrides=st.dictionaries(
            st.sampled_from(sorted(PHRASE_FILES)), st.lists(_phrase, max_size=4)
        ),
        override_pairs=st.none() | st.lists(st.tuples(_phrase, _phrase), max_size=3),
        spanish=st.booleans(),
    )
    def test_from_dir_takes_each_file_from_the_override_else_the_package(
        self, overrides, override_pairs, spanish
    ):
        with tempfile.TemporaryDirectory() as name:
            directory = Path(name)
            for field, phrases in overrides.items():
                body = "# override\n" + "".join(f"{p}\n\n" for p in phrases)
                (directory / PHRASE_FILES[field]).write_text(body, encoding="utf-8")
            if override_pairs is not None:
                body = "".join(f"{region}\t{word}\n" for region, word in override_pairs)
                (directory / PAIRS_FILE).write_text(body, encoding="utf-8")
            assert lexicon_from_dir(directory, spanish=spanish) == reference_lexicon(
                directory, spanish
            )
