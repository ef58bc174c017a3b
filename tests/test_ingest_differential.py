"""Differential test: the stream filter with keywords folded once per
`StreamConfig` against the filter that folded them for every record, kept here
as the reference."""
from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from rescuemap import HARVEY_BBOX, StreamConfig, Tweet, extract_hashtags, passes_stream_filter


def reference_passes_stream_filter(tweet: Tweet, cfg: StreamConfig) -> bool:
    text = tweet.text.casefold()
    for keyword in cfg.track_keywords:
        folded = keyword.casefold()
        if folded and folded in text:
            return True
        bare = folded.lstrip("#")
        if bare and any(bare in tag for tag in tweet.hashtags):
            return True
    if cfg.bbox is not None and tweet.coordinates is not None:
        return cfg.bbox.contains(*tweet.coordinates)
    return False


# Characters whose case folds grow or change: ß -> ss, İ -> i + U+0307,
# ſ -> s, Kelvin sign -> k; also dotless ı, a bare U+0307 and é.
_ALPHABET = "aiksSK #\u00df\u0130\u0131\u017f\u212a\u0307\u00e9"
_words = st.text(_ALPHABET, max_size=6)
_keywords = st.one_of(
    _words, st.sampled_from(["", "#", "##", "#\u00df", "SS", "\u0130", "i\u0307", "#harvey"])
)
_coordinates = st.one_of(
    st.none(),
    st.tuples(st.floats(-100.0, -90.0), st.floats(27.0, 34.0)),
)


@settings(max_examples=500, deadline=None)
@given(
    keywords=st.lists(_keywords, max_size=4),
    text=st.lists(_words, max_size=4).map(" ".join),
    extra_tags=st.lists(_words, max_size=2),
    coordinates=_coordinates,
    use_bbox=st.booleans(),
)
@example(keywords=["#"], text="#", extra_tags=[], coordinates=None, use_bbox=False)
@example(keywords=["\u00df"], text="STRASSE", extra_tags=[], coordinates=None, use_bbox=False)
@example(keywords=["#\u0130"], text="x", extra_tags=["i\u0307"], coordinates=None, use_bbox=False)
def test_folded_keywords_match_per_record_folding(keywords, text, extra_tags, coordinates, use_bbox):
    bbox = HARVEY_BBOX if use_bbox else None
    if not keywords and bbox is None:
        bbox = HARVEY_BBOX
    cfg = StreamConfig(track_keywords=tuple(keywords), bbox=bbox)
    hashtags = extract_hashtags(text) + tuple(tag.lower() for tag in extra_tags)
    tweet = Tweet(id="1", text=text, hashtags=hashtags, coordinates=coordinates)
    assert passes_stream_filter(tweet, cfg) is reference_passes_stream_filter(tweet, cfg)
    # The folds are cached on the instance but are not a field.
    fresh = StreamConfig(track_keywords=tuple(keywords), bbox=bbox)
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
