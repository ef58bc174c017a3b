"""Differential tests: the pipeline's two-union verdict, `is_rescue_request`,
against the eight-feature rule it replaced on the hot path and in `evaluate`,
`classify(extract_features(...))`, kept as the reference."""
from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rescuemap import (
    ConfusionMatrix,
    Verdict,
    classify,
    default_lexicon,
    detect_address,
    evaluate,
    extract_features,
    extract_full_address,
    is_rescue_request,
    lexicon_from_dir,
    load_labelled,
)
from rescuemap.lexicons import NEGATIVE_FEATURES


def _override_lexicon():
    """A generated override directory: two lists empty, odd first characters elsewhere."""
    files = {
        "help_keywords.txt": "#sos\nneed a boat\n-help me\nſtuck\n",
        "situation_words.txt": "# no situation words\n",
        "disaster_names.txt": "Katy flood\nİke\n",
        "region_disaster_pairs.tsv": "Katy\tsurge\nKaty\train\nİzmir\tquake\n",
        "negative_political.txt": "vote\n#maga\n",
        "negative_ads.txt": "# no ads\n",
    }
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            (Path(directory) / name).write_text(text, encoding="utf-8")
        return lexicon_from_dir(directory)


LEXICONS = {
    "default": default_lexicon(),
    "spanish": default_lexicon(spanish=True),
    "override": _override_lexicon(),
}


def _reference(text: str, lex) -> bool:
    return classify(extract_features(text, lex)) is Verdict.RESCUE_REQUEST


def _reference_with_address(text: str, lex) -> bool:
    """The reference verdict as if `detect_address` had found a match."""
    features = dataclasses.replace(extract_features(text, lex), has_address=True)
    return classify(features) is Verdict.RESCUE_REQUEST


def _lists(lex) -> dict[str, tuple[str, ...]]:
    return {
        "help": lex.help_keywords,
        "names": lex.disaster_names,
        "situation": lex.situation_words,
        "regions": tuple(region for region, _ in lex.region_disaster_pairs),
        "pair_words": tuple(word for _, word in lex.region_disaster_pairs),
        **{k: lex.negative_lexicons[k] for k in NEGATIVE_FEATURES},
    }


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_evaluate_tallies_the_eight_feature_verdicts(name, data_dir):
    lex = LEXICONS[name]
    corpus = load_labelled(data_dir / "labelled_corpus.csv")
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for item in corpus:
        predicted = _reference(item.text, lex)
        counts[("t" if predicted == item.label else "f") + ("p" if predicted else "n")] += 1
    assert evaluate(corpus, lex) == ConfusionMatrix(**counts)


def test_override_lexicon_has_never_matching_lists():
    lists = LEXICONS["override"].list_patterns
    assert lists.situation.pattern == "(?!)"
    assert lists.negatives[NEGATIVE_FEATURES.index("ads")].pattern == "(?!)"


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_unions_match_exactly_when_one_of_their_lists_does(name):
    lex = LEXICONS[name]
    lists, unions = lex.list_patterns, lex.union_patterns
    for phrases in _lists(lex).values():
        for phrase in phrases:
            for text in (phrase, "#" + phrase, phrase.upper(), "x" + phrase):
                assert (unions.positive.search(text) is not None) == any(
                    rx.search(text) for rx in (lists.help, lists.names, lists.situation)
                )
                assert (unions.negative.search(text) is not None) == any(
                    rx.search(text) for rx in lists.negatives
                )


@pytest.mark.parametrize("name", sorted(LEXICONS))
def test_every_phrase_and_pair_agrees_with_reference(name):
    """Each phrase alone, each region/word pair, and each of those with each negative phrase."""
    lex = LEXICONS[name]
    lists = _lists(lex)
    texts = [p for phrases in lists.values() for p in phrases]
    texts += [f"{region} {word}" for region, word in lex.region_disaster_pairs]
    negatives = [p for k in NEGATIVE_FEATURES for p in lists[k]]
    texts += [f"{text} {negative}" for text in list(texts) for negative in negatives]
    for text in texts:
        assert is_rescue_request(text, lex) == _reference_with_address(text, lex), text


# --- generated text ---------------------------------------------------------------

_CASES = (str.lower, str.upper, str.title, str.swapcase, lambda s: s)
_JOINERS = ("", " ", "  ", "\t", "\n ")
_GAPS = ("", " ", "   ", "\n", "#", " #", "-", ".", ", ", "_", "x", "1", "ſ", "K", "İ")
_FILLER = st.one_of(
    st.sampled_from(["at", "the", "water", "please", "4055 Main St", "12 Oak St, Houston, TX", "7"]),
    st.text("abcdefghijklmnopqrstuvwxyz #0123456789", max_size=8),
)


def _phrase_tokens(lex) -> st.SearchStrategy[str]:
    """Lexicon phrases, with words collapsed or stretched, recased, maybe '#'-led."""
    phrases = sorted({p for phrases in _lists(lex).values() for p in phrases})
    return st.tuples(
        st.sampled_from(phrases),
        st.sampled_from(_JOINERS),
        st.sampled_from(_CASES),
        st.sampled_from(["", "", "#"]),
    ).map(lambda t: t[3] + t[2](t[1].join(t[0].split())))


@pytest.mark.parametrize("name", sorted(LEXICONS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_is_rescue_request_matches_eight_feature_rule(name, data):
    lex = LEXICONS[name]
    # A region and one of its disaster words often open the text, so that the
    # pair branch decides the verdict as often as the positive union.
    opener = data.draw(st.one_of(
        st.just(""),
        st.sampled_from(lex.region_disaster_pairs).map(lambda pair: f"{pair[0]} {pair[1]} "),
    ))
    tokens = data.draw(st.lists(
        st.tuples(st.one_of(_phrase_tokens(lex), _FILLER), st.sampled_from(_GAPS)),
        max_size=6,
    ))
    text = opener + "".join(token + gap for token, gap in tokens)
    verdict = is_rescue_request(text, lex)
    assert verdict == _reference_with_address(text, lex)
    match = detect_address(text)
    assert (match is not None and verdict) == _reference(text, lex)
    # The pipeline extracts after the verdict; every match yields an address.
    assert match is None or extract_full_address(match).house_number == match.group("num")
