"""rescuemap: find rescue requests in disaster tweets and put them on a map.

The package chains five stages: NDJSON corpus replay with a keyword /
bounding-box pre-filter, an eight-feature logic classifier, US street-address
extraction with Houston/Texas completion, cached geocoding (offline gazetteer
or HTTP backend), and GeoJSON / interactive-map emission. An evaluation
harness reproduces confusion-matrix metrics over a labelled corpus.

Each public name but the evaluation harness's loads its module on first use
(PEP 562), so ``import rescuemap`` and each CLI subcommand load only the
modules they run. A submodule read off the package, such as
``rescuemap.pipeline``, loads the same way. ``__all__`` is built from the
``_LAZY`` table, so adding a public name means one ``_LAZY`` entry.
"""
from importlib import import_module

# Bound now, not on first use: ``rescuemap.evaluate`` names the function, and a
# first import of the submodule would bind the module over a lazy name.
from .evaluate import (
    ConfusionMatrix,
    CorpusFormatError,
    LabelledTweet,
    Metrics,
    compute_metrics,
    evaluate,
    load_labelled,
)

__version__ = "0.1.0"

# The modules whose names load on first use, each with the names it defines.
# cli defines none, but reads off the package as the others do.
_LAZY = {
    "address": (
        "CompletionRule", "FullAddress", "complete_address", "contains_texas",
        "detect_address", "extract_full_address",
    ),
    "cli": (),
    "features": ("FeatureVector", "Verdict", "classify", "extract_features", "is_rescue_request"),
    "geocode": (
        "Gazetteer", "GazetteerError", "GeoPoint", "GeocodeResult", "GeocodeStatus", "Geocoder",
        "HttpBackend", "normalize_query",
    ),
    "ingest": (
        "BoundingBox", "HARVEY_BBOX", "HARVEY_KEYWORDS", "IngestStats", "StreamConfig", "Tweet",
        "TweetParseError", "extract_hashtags", "parse_tweet", "passes_stream_filter", "read_stream",
        "to_local_time",
    ),
    "lexicons": (
        "LexiconConfig", "LexiconError", "default_lexicon", "lexicon_from_dir", "load_street_suffixes",
    ),
    "output": ("RescueRequest", "to_geojson", "to_map_document", "write_geojson", "write_map_document"),
    "pipeline": ("RunSummary", "run_pipeline"),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([
    "ConfusionMatrix", "CorpusFormatError", "LabelledTweet", "Metrics", "compute_metrics",
    "evaluate", "load_labelled", *_MODULE_OF,
])


def __getattr__(name: str):
    """Load a public name's module, or a submodule, on first use (PEP 562).

    The name is then bound here, so later reads never reach this function.
    """
    if name in _LAZY:  # importing a submodule binds it on the package
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
