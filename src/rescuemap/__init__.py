"""rescuemap: find rescue requests in disaster tweets and put them on a map.

The package chains five stages: NDJSON corpus replay with a keyword /
bounding-box pre-filter, an eight-feature logic classifier, US street-address
extraction with Houston/Texas completion, cached geocoding (offline gazetteer
or HTTP backend), and GeoJSON / interactive-map emission. An evaluation
harness reproduces confusion-matrix metrics over a labelled corpus.
"""
from .address import (
    CompletionRule,
    FullAddress,
    complete_address,
    contains_texas,
    detect_address,
    extract_full_address,
)
from .evaluate import (
    ConfusionMatrix,
    CorpusFormatError,
    LabelledTweet,
    Metrics,
    compute_metrics,
    evaluate,
    load_labelled,
)
from .features import (
    FeatureVector,
    Verdict,
    classify,
    extract_features,
    is_rescue_request,
)
from .geocode import (
    Gazetteer,
    GazetteerError,
    GeocodeResult,
    GeocodeStatus,
    Geocoder,
    GeoPoint,
    HttpBackend,
    normalize_query,
)
from .ingest import (
    BoundingBox,
    HARVEY_BBOX,
    HARVEY_KEYWORDS,
    IngestStats,
    StreamConfig,
    Tweet,
    TweetParseError,
    extract_hashtags,
    parse_tweet,
    passes_stream_filter,
    read_stream,
    to_local_time,
)
from .lexicons import LexiconConfig, LexiconError, default_lexicon, lexicon_from_dir, load_street_suffixes
from .output import RescueRequest, to_geojson, to_map_document
from .pipeline import RunSummary, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "CompletionRule",
    "ConfusionMatrix",
    "CorpusFormatError",
    "FeatureVector",
    "FullAddress",
    "Gazetteer",
    "GazetteerError",
    "GeoPoint",
    "GeocodeResult",
    "GeocodeStatus",
    "Geocoder",
    "HARVEY_BBOX",
    "HARVEY_KEYWORDS",
    "HttpBackend",
    "IngestStats",
    "LabelledTweet",
    "LexiconConfig",
    "LexiconError",
    "Metrics",
    "RescueRequest",
    "RunSummary",
    "StreamConfig",
    "Tweet",
    "TweetParseError",
    "Verdict",
    "classify",
    "complete_address",
    "compute_metrics",
    "contains_texas",
    "default_lexicon",
    "detect_address",
    "evaluate",
    "extract_features",
    "extract_full_address",
    "extract_hashtags",
    "is_rescue_request",
    "lexicon_from_dir",
    "load_labelled",
    "load_street_suffixes",
    "normalize_query",
    "parse_tweet",
    "passes_stream_filter",
    "read_stream",
    "run_pipeline",
    "to_geojson",
    "to_local_time",
    "to_map_document",
]
