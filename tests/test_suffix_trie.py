"""The street-suffix trie matches exactly the suffix lexicon, in any letter case."""
from __future__ import annotations

import re
import string

from hypothesis import given, strategies as st

from rescuemap.address import _SUFFIX_ALT, _trie_alternation
from rescuemap.lexicons import load_street_suffixes

SUFFIXES = load_street_suffixes()
_EXTENSION_CHARS = string.ascii_uppercase + string.digits + "."


def _is_suffix(candidate: str) -> bool:
    return re.fullmatch(_SUFFIX_ALT, candidate, re.IGNORECASE) is not None


def _near_suffixes() -> set[str]:
    """Every suffix, every proper prefix of one, and every one-character extension."""
    near = set()
    for suffix in SUFFIXES:
        near.update(suffix[:k] for k in range(1, len(suffix) + 1))
        near.update(suffix + ch for ch in _EXTENSION_CHARS)
    return near


def test_trie_matches_exactly_the_suffixes_and_nothing_near_them():
    wrong = sorted(s for s in _near_suffixes() if _is_suffix(s) != (s in SUFFIXES))
    assert wrong == []


@st.composite
def _near_suffix_in_mixed_case(draw) -> str:
    suffix = draw(st.sampled_from(sorted(SUFFIXES)))
    kind = draw(st.sampled_from(["whole", "prefix", "extension"]))
    if kind == "prefix":
        word = suffix[: draw(st.integers(1, len(suffix) - 1))]  # every suffix has 2+ characters
    elif kind == "extension":
        word = suffix + draw(st.sampled_from(_EXTENSION_CHARS + string.ascii_lowercase))
    else:
        word = suffix
    lower = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(ch.lower() if low else ch for ch, low in zip(word, lower))


@given(_near_suffix_in_mixed_case())
def test_trie_matches_in_any_case(candidate):
    assert _is_suffix(candidate) == (candidate.upper() in SUFFIXES)


def test_trie_shape():
    assert _trie_alternation(frozenset({"AV", "AVE", "AVENUE"})) == "AV(?:E(?:NUE)?)?"
    assert _trie_alternation(frozenset({"ALLEE", "ALLEY", "ALY"})) == "AL(?:LE(?:E|Y)|Y)"
    assert re.fullmatch(_trie_alternation(frozenset({"A.B"})), "AXB") is None
