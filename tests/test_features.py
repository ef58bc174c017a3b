from __future__ import annotations

import dataclasses
import itertools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rescuemap import (
    FeatureVector,
    Verdict,
    classify,
    default_lexicon,
    detect_address,
    extract_features,
    lexicon_from_dir,
)
from rescuemap.lexicons import NEGATIVE_FEATURES

FIELDS = (
    "has_address",
    "has_ask_help",
    "has_disaster_context",
    "has_status_update",
    "has_offer_help",
    "has_news_report",
    "has_political",
    "has_ads",
)


def fv(*bits: int) -> FeatureVector:
    return FeatureVector(**dict(zip(FIELDS, (bool(b) for b in bits))))


class TestDetectAddress:
    def test_braeswood_tweet(self):
        text = "3 friends stuck at 4055 South #Braeswood Boulevard and S. Gessner"
        match = detect_address(text)
        assert match is not None
        assert match.group() == "4055 South #Braeswood Boulevard"
        assert match.lastgroup == "name"
        assert match.group("num") == "4055"
        assert match.group("name") == "South #Braeswood Boulevard"
        assert text[match.start() : match.end()] == match.group()

    def test_highway_number_form(self):
        match = detect_address("1108 Highway 7")
        assert match is not None
        assert match.lastgroup == "designator"
        assert match.group() == "1108 Highway 7"

    def test_ave_letter_form(self):
        match = detect_address("123 Ave. G")
        assert match is not None
        assert match.lastgroup == "designator"
        assert match.group("designator") == "Ave. G"

    def test_empty_text(self):
        assert detect_address("") is None

    def test_counting_sentence_has_no_address(self):
        # Hand-check: no token sequence "<digits> <words> <suffix>" exists;
        # neither "cats", "and" nor "dogs" is a street suffix.
        assert detect_address("I have 2 cats and 3 dogs") is None

    def test_no_house_number_means_no_match(self):
        assert detect_address("stranded at Creech Elementary on Mason Rd") is None

    def test_house_number_capped_at_six_digits(self):
        assert detect_address("107900 Overseas Hwy") is not None
        assert detect_address("1234567 Main St") is None

    def test_first_of_several_addresses_is_found(self):
        text = "go to 100 Main St or 200 Elm Ave"
        match = detect_address(text)
        assert match.group() == "100 Main St"
        assert match.span() == (6, 17)

    def test_form1_wins_at_same_offset(self):
        # Both forms match at offset 0: "4 Ave G" (designator+letter) and
        # "4 Ave G Ct" (two name words + suffix). Name+suffix wins.
        match = detect_address("4 Ave G Ct")
        assert match.lastgroup == "name"
        assert match.group() == "4 Ave G Ct"

    def test_suffix_word_inside_street_name(self):
        match = detect_address("500 Park Avenue")
        assert match.lastgroup == "name"
        assert match.group() == "500 Park Avenue"

    def test_trailing_period_is_kept_with_suffix(self):
        match = detect_address("meet at 123 Main St. tomorrow")
        assert match.group() == "123 Main St."

    def test_case_insensitive(self):
        assert detect_address("4055 SOUTH BRAESWOOD BLVD")
        assert detect_address("4055 south braeswood blvd")

    @given(st.text(alphabet=" #.,1234567890abcdefghijklmnop\nStAveRdB", max_size=200))
    def test_first_match_span_slices_to_group(self, text):
        match = detect_address(text)
        if match is not None:
            start, end = match.span()
            assert 0 <= start < end <= len(text)
            assert text[start:end] == match.group()


def _negatives(f: FeatureVector) -> tuple[bool, bool, bool, bool, bool]:
    return (f.has_status_update, f.has_offer_help, f.has_news_report, f.has_political, f.has_ads)


class TestPhraseDetectors:
    def test_please_help(self, lex):
        assert extract_features("Please help, water rising", lex).has_ask_help

    def test_empty_text_is_not_ask_help(self, lex):
        assert not extract_features("", lex).has_ask_help

    def test_hashtagged_keyword(self, lex):
        assert extract_features("#FloodRescue 2 adults", lex).has_ask_help

    def test_hashtag_compressed_phrase(self, lex):
        assert extract_features("#PleaseHelp water is rising", lex).has_ask_help

    def test_disaster_name(self, lex):
        assert extract_features("#HoustonFlood at my street", lex).has_disaster_context

    def test_region_without_disaster_word_is_not_context(self, lex):
        # Pairs need both members; "Houston" alone satisfies none.
        assert not extract_features("Houston is fine today", lex).has_disaster_context

    def test_region_pair_needs_both_members(self, lex):
        assert extract_features("Houston is a flood zone right now", lex).has_disaster_context

    def test_situation_words(self, lex):
        assert extract_features("we are trapped in the attic", lex).has_disaster_context

    def test_situation_words_are_whole_words(self, lex):
        assert not extract_features("the strandedish word is not a word", lex).has_disaster_context
        assert not extract_features("unstuckable", lex).has_disaster_context  # "stuck" only as substring

    def test_offer_lexicon(self, lex):
        flags = _negatives(extract_features("We are offering shelter and food at 2100 Main St", lex))
        assert flags == (False, True, False, False, False)

    def test_empty_text_has_no_negative_flags(self, lex):
        assert _negatives(extract_features("", lex)) == (False,) * 5

    def test_status_lexicon(self, lex):
        flags = _negatives(extract_features("Rescued! Everyone safe now at 12 Oak St", lex))
        assert flags[0] is True

    def test_news_lexicon(self, lex):
        assert _negatives(extract_features("Breaking news: flooding in Houston", lex))[2] is True


class TestExtractFeatures:
    def test_positive_example(self, lex):
        features = extract_features(
            "Please help! 4055 South #Braeswood Boulevard #HoustonFlood", lex
        )
        assert features.has_address
        assert features.has_ask_help
        assert features.has_disaster_context
        assert not (
            features.has_status_update
            or features.has_offer_help
            or features.has_news_report
            or features.has_political
            or features.has_ads
        )

    def test_empty_text_is_all_false(self, lex):
        assert extract_features("", lex) == fv(0, 0, 0, 0, 0, 0, 0, 0)

    def test_news_text(self, lex):
        features = extract_features("Breaking news: flooding in Houston", lex)
        assert features.has_news_report
        assert not features.has_address

    def test_determinism(self, lex):
        text = "Please help! 4055 South #Braeswood Boulevard #HoustonFlood"
        assert extract_features(text, lex) == extract_features(text, lex)

    @given(st.text(alphabet=" #.,!1234567890abcdefghijklmnopqrstuvwxyz\n", max_size=160))
    def test_uppercasing_never_changes_features(self, lex, text):
        assert extract_features(text, lex) == extract_features(text.upper(), lex)


# The combination formula, coded as data for an independent truth-table check.
_FORMULA = (
    "has_address and (has_ask_help or has_disaster_context) "
    "and not (has_status_update or has_offer_help or has_news_report "
    "or has_political or has_ads)"
)


def oracle(vector: FeatureVector) -> Verdict:
    env = {name: getattr(vector, name) for name in FIELDS}
    return Verdict.RESCUE_REQUEST if eval(_FORMULA, {}, env) else Verdict.NOT_RESCUE_REQUEST


class TestClassify:
    def test_address_and_ask_help(self):
        assert classify(fv(1, 1, 0, 0, 0, 0, 0, 0)) is Verdict.RESCUE_REQUEST

    def test_no_address_is_never_positive(self):
        assert classify(fv(0, 1, 1, 0, 0, 0, 0, 0)) is Verdict.NOT_RESCUE_REQUEST

    def test_news_report_negates(self):
        assert classify(fv(1, 0, 1, 0, 0, 1, 0, 0)) is Verdict.NOT_RESCUE_REQUEST

    def test_agrees_with_truth_table_oracle_on_all_256_vectors(self):
        for bits in itertools.product((False, True), repeat=8):
            vector = FeatureVector(**dict(zip(FIELDS, bits)))
            assert classify(vector) is oracle(vector), bits

    def test_setting_a_negative_flag_never_creates_a_positive(self):
        negative_fields = FIELDS[3:]
        for bits in itertools.product((False, True), repeat=8):
            vector = FeatureVector(**dict(zip(FIELDS, bits)))
            before = classify(vector)
            for name in negative_fields:
                flipped = FeatureVector(**{**vector.as_dict(), name: True})
                after = classify(flipped)
                if before is Verdict.NOT_RESCUE_REQUEST:
                    assert after is Verdict.NOT_RESCUE_REQUEST

    def test_without_address_all_other_flags_are_irrelevant(self):
        for bits in itertools.product((False, True), repeat=7):
            vector = FeatureVector(**dict(zip(FIELDS, (False,) + bits)))
            assert classify(vector) is Verdict.NOT_RESCUE_REQUEST


# --- compiled lexicon against one regex per phrase --------------------------
#
# The oracle gives every phrase its own `#?(?<!\w)...(?!\w)` alternative and checks each
# region/disaster pair on its own, with no grouping by region and no gate.

def _oracle_phrase_pattern(phrase: str) -> str:
    words = [re.escape(w) for w in phrase.split()]
    return r"#?(?<!\w)" + r"\s*".join(words) + r"(?!\w)"


def _oracle_hit(phrases, text: str) -> bool:
    patterns = [_oracle_phrase_pattern(p) for p in phrases if p.strip()]
    if not patterns:
        return False
    return re.search("|".join(patterns), text, re.IGNORECASE) is not None


def _oracle_detectors(text: str, lex) -> tuple[bool, bool, tuple[bool, ...]]:
    context = (
        _oracle_hit(lex.disaster_names, text)
        or any(
            _oracle_hit((region,), text) and _oracle_hit((word,), text)
            for region, word in lex.region_disaster_pairs
        )
        or _oracle_hit(lex.situation_words, text)
    )
    negatives = tuple(_oracle_hit(lex.negative_lexicons[k], text) for k in NEGATIVE_FEATURES)
    return _oracle_hit(lex.help_keywords, text), context, negatives


def _comment_only_help_lexicon():
    with tempfile.TemporaryDirectory() as directory:
        (Path(directory) / "help_keywords.txt").write_text("# no help phrases\n", encoding="utf-8")
        return lexicon_from_dir(directory)


def _class_specials_lexicon():
    """Phrases starting with characters special inside [...] or with odd case folds."""
    base = default_lexicon()
    return dataclasses.replace(
        base,
        help_keywords=(
            "-help me", "]trapped", "^sos", "\\rescue", "ſtuck", "\u212aelvin", "İstanbul"
        ),
        disaster_names=("^harvey", "\u212aaty"),
        region_disaster_pairs=(("]houston", "\\flood"), ("İzmir", "ſurge"), ("-gulf", "^storm")),
        situation_words=("\\water", "-k", "ſ"),
        negative_lexicons={
            **base.negative_lexicons,
            "offer_help": ("]boats", "İ can help"),
            "ads": ("^sale", "\u212aoupon", "-50% off"),
        },
    )


LEXICONS = {
    "default": default_lexicon(),
    "spanish": default_lexicon(spanish=True),
    "empty_help": _comment_only_help_lexicon(),
    "class_specials": _class_specials_lexicon(),
}


def _phrases(lex) -> list[str]:
    return [
        *lex.help_keywords,
        *lex.disaster_names,
        *lex.situation_words,
        *(p for k in NEGATIVE_FEATURES for p in lex.negative_lexicons[k]),
        "water", "at", "12 Oak St", "the",
    ]


_SPANISH = LEXICONS["spanish"]
_SPECIALS = LEXICONS["class_specials"]
_CASES = (str.lower, str.upper, str.title, str.swapcase, lambda s: s)
_JOINERS = ("", " ", "  ", "\t", "\n ")
_SEPARATORS = (
    "", " ", "   ", "\t", "\n", "#", " #", "-", ".", ", ", "_", "x", "1",
    "]", "^", "\\", "ſ", "\u212a", "İ", "k", "s", "i",
)
# Half the tokens are pair members, so region/disaster pairs co-occur often.
_tokens = st.tuples(
    st.one_of(
        st.sampled_from(sorted({
            p for lex in (_SPANISH, _SPECIALS) for pair in lex.region_disaster_pairs for p in pair
        })),
        st.sampled_from(sorted(set(_phrases(_SPANISH) + _phrases(_SPECIALS)))),
    ),
    st.sampled_from(_JOINERS),
    st.sampled_from(_CASES),
    st.sampled_from(_SEPARATORS),
).map(lambda t: t[2](t[1].join(t[0].split())) + t[3])
_texts = st.lists(_tokens, max_size=6).map("".join)


class TestCompiledLexicon:
    @pytest.mark.parametrize("name", sorted(LEXICONS))
    @settings(max_examples=300, deadline=None)
    @given(text=_texts)
    def test_detectors_agree_with_per_phrase_oracle(self, name, text):
        lex = LEXICONS[name]
        ask, context, negatives = _oracle_detectors(text, lex)
        features = extract_features(text, lex)
        assert features.has_ask_help is ask
        assert features.has_disaster_context is context
        assert _negatives(features) == negatives

    def test_patterns_are_built_once_per_lexicon(self, lex):
        assert lex.list_patterns is lex.list_patterns
        assert lex.pair_patterns is lex.pair_patterns
        assert lex.union_patterns is lex.union_patterns

    def test_replaced_lexicon_matches_its_own_phrases(self, lex):
        assert extract_features("please help", lex).has_ask_help  # the original's patterns exist now
        boat = dataclasses.replace(lex, help_keywords=("send a boat",))
        assert extract_features("pls SEND A BOAT", boat).has_ask_help
        assert not extract_features("please help", boat).has_ask_help
        assert extract_features("please help", lex).has_ask_help
