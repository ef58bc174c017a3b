"""Command-line interface: per-stage subcommands over the same pipeline.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime IO error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, Optional

from .evaluate import (
    ConfusionMatrix,
    CorpusFormatError,
    compute_metrics,
    evaluate,
    load_labelled,
)
from .features import classify, extract_features
from .geocode import API_KEY_ENV_VAR, Gazetteer, GazetteerError, Geocoder, HttpBackend
from .ingest import BoundingBox, StreamConfig, read_stream
from .lexicons import LexiconConfig, LexiconError, data_lines, default_lexicon, lexicon_from_dir
from .output import to_geojson, to_map_document
from .pipeline import run_pipeline


class ConfigError(ValueError):
    """Bad configuration or command usage."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_CONFIG_PATH_KEYS = ("manifest", "gazetteer", "lexicons", "out_geojson", "out_map")
_CONFIG_KEYS = (*_CONFIG_PATH_KEYS, "inputs", "keywords", "bbox", "geocoder_backend", "spanish", "http")
_HTTP_CONFIG_KEYS = ("url", "min_interval")


def _check_keys(config: dict, known: tuple[str, ...], prefix: str = "") -> None:
    """Refuse a key not in ``known``: a misspelt key would otherwise be ignored."""
    for key in config:
        if key not in known:
            import difflib  # only here: a valid config never needs it

            message = f"config: unknown key {prefix + key!r}"
            close = difflib.get_close_matches(key, known, n=1)
            if close:
                message += f" (did you mean {prefix + close[0]!r}?)"
            raise ConfigError(message)


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config: file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {p}: invalid JSON ({exc.msg})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config: {p}: not valid UTF-8") from None
    if not isinstance(config, dict):
        raise ConfigError(f"config: {p}: top level must be an object")
    _check_keys(config, _CONFIG_KEYS)
    for key in (*_CONFIG_PATH_KEYS, "geocoder_backend"):
        if not isinstance(config.get(key), (str, type(None))):
            raise ConfigError(f"config: {key} must be a string")
    for key in ("inputs", "keywords"):
        value = config.get(key, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"config: {key} must be a list of strings")
    if not isinstance(config.get("spanish", False), bool):
        raise ConfigError("config: spanish must be true or false")
    if not isinstance(config.get("http", {}), dict):
        raise ConfigError("config: http must be an object")
    _check_keys(config.get("http", {}), _HTTP_CONFIG_KEYS, "http.")
    # Paths in the config are relative to the config file, not the cwd.
    base = p.parent

    def anchor(value: str) -> str:
        return value if Path(value).is_absolute() else str(base / value)

    for key in _CONFIG_PATH_KEYS:
        if isinstance(config.get(key), str):
            config[key] = anchor(config[key])
    if "inputs" in config:
        config["inputs"] = [anchor(v) if v != "-" else v for v in config["inputs"]]
    return config


def _build_lexicon(args, config: dict) -> LexiconConfig:
    spanish = bool(args.spanish or config.get("spanish", False))
    lexicon_dir = args.lexicons or config.get("lexicons")
    try:
        if lexicon_dir:
            return lexicon_from_dir(lexicon_dir, spanish=spanish)
        return default_lexicon(spanish=spanish)
    except LexiconError as exc:
        raise ConfigError(f"lexicons: {exc}") from None


def _build_stream_config(config: dict) -> StreamConfig:
    kwargs = {}
    if "keywords" in config:
        kwargs["track_keywords"] = tuple(config["keywords"])
    if "bbox" in config:
        box = config["bbox"]
        if box is None:
            kwargs["bbox"] = None
        else:
            if not isinstance(box, (list, tuple)) or len(box) != 4:
                raise ConfigError("config: bbox must be [west, south, east, north]")
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in box):
                raise ConfigError("config: bbox values must be numbers")
            try:
                kwargs["bbox"] = BoundingBox(*[float(v) for v in box])
            except (OverflowError, ValueError) as exc:  # OverflowError: an int too big for a float
                raise ConfigError(f"config: bbox: {exc}") from None
    try:
        return StreamConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"stream config: {exc}") from None


def _build_geocoder(args, config: dict) -> Geocoder:
    choice = args.geocoder or config.get("geocoder_backend")
    gazetteer_path = args.gazetteer or config.get("gazetteer")
    http_config = config.get("http", {})
    if choice is None:
        choice = "gazetteer" if gazetteer_path else ("http" if http_config else None)
    if choice == "gazetteer":
        if not gazetteer_path:
            raise ConfigError("geocoder: gazetteer backend needs --gazetteer PATH")
        path = Path(gazetteer_path)
        if not path.is_file():
            raise ConfigError(f"geocoder: gazetteer file not found: {path}")
        try:
            return Geocoder(Gazetteer.load(path))
        except GazetteerError as exc:
            raise ConfigError(f"geocoder: {exc}") from None
    if choice == "http":
        url = http_config.get("url")
        if not url or not isinstance(url, str):
            raise ConfigError("geocoder: http backend needs config {\"http\": {\"url\": ...}}")
        try:
            backend = HttpBackend(url, min_interval=http_config.get("min_interval", 0.0))
        except ValueError as exc:  # names an "http" key, or the key's environment variable
            where = "" if str(exc).startswith(API_KEY_ENV_VAR) else "http."
            raise ConfigError(f"config: {where}{exc}") from None
        return Geocoder(backend)
    raise ConfigError("geocoder: select a backend via --geocoder/--gazetteer or config")


def _input_lines(args, config: dict) -> Iterable[bytes]:
    paths: list[str] = list(args.input or [])
    if not paths:
        paths = list(config.get("inputs", []))
    manifest = args.manifest or config.get("manifest")
    if manifest:
        manifest_path = Path(manifest)
        if not manifest_path.is_file():
            raise ConfigError(f"input: manifest not found: {manifest_path}")
        base = manifest_path.parent
        try:
            listing = manifest_path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError:
            raise ConfigError(f"input: manifest {manifest_path}: not valid UTF-8") from None
        for _, line in data_lines(listing):
            paths.append(str((base / line) if not Path(line).is_absolute() else line))
    if not paths:
        raise ConfigError("input: give --input FILE (or '-' for stdin), --manifest, or config inputs")

    # Raw byte lines: each is decoded on its own, so one bad byte costs one line.
    def generate() -> Iterable[bytes]:
        for path in paths:
            if path == "-":
                yield from sys.stdin.buffer
            else:
                with open(path, "rb") as handle:
                    yield from handle

    missing = [p for p in paths if p != "-" and not Path(p).is_file()]
    if missing:
        raise FileNotFoundError(f"input file not found: {missing[0]}")
    return generate()


def _cmd_pipeline(args) -> int:
    config = _load_config(args.config)
    lex = _build_lexicon(args, config)
    stream_cfg = _build_stream_config(config)
    geocoder = _build_geocoder(args, config)
    lines = _input_lines(args, config)
    out_geojson = args.out_geojson or config.get("out_geojson")
    out_map = args.out_map or config.get("out_map")
    # Checked before the replay, so a typo costs no geocoding requests.
    for out in (out_geojson, out_map):
        if out and not Path(out).parent.is_dir():
            raise FileNotFoundError(f"output directory not found: {Path(out).parent}")
        if out and Path(out).is_dir():
            raise IsADirectoryError(f"output path is a directory: {out}")

    requests, summary = run_pipeline(
        lines,
        stream_cfg=stream_cfg,
        lex=lex,
        geocoder=geocoder,
        sequential=False,
    )

    if out_geojson:
        Path(out_geojson).write_text(to_geojson(requests), encoding="utf-8")
    if out_map:
        Path(out_map).write_text(to_map_document(requests), encoding="utf-8")
    json.dump(summary.as_dict(), sys.stdout, indent=2)
    print()
    return 0


def _cmd_classify(args) -> int:
    config = _load_config(args.config)
    lex = _build_lexicon(args, config)
    if args.raw:
        source = _raw_texts(args, config)
    else:
        source = _parsed_texts(args, config)
    for record_id, text in source:
        features = extract_features(text, lex)
        verdict = classify(features)
        record = {"id": record_id, "verdict": verdict.value, "features": features.as_dict()}
        print(json.dumps(record, sort_keys=True))
    return 0


def _raw_texts(args, config):
    for i, line in enumerate(_input_lines(args, config), start=1):
        yield str(i), line.decode("utf-8", errors="replace").rstrip("\r\n")


def _parsed_texts(args, config):
    for tweet in read_stream(_input_lines(args, config)):
        yield tweet.id, tweet.text


def _cmd_eval(args) -> int:
    config = _load_config(args.config)
    if args.input and (args.counts or len(args.input) > 1):  # never ignore an input
        raise ConfigError("eval: give one labelled corpus with --input, or --counts, not more")
    if args.counts:
        try:
            tp, fp, fn, tn = (int(v) for v in args.counts.split(","))
        except ValueError:
            raise ConfigError("eval: --counts expects 'tp,fp,fn,tn'") from None
        try:
            matrix = ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
            metrics = compute_metrics(matrix)
        except (OverflowError, ValueError) as exc:  # OverflowError: math.sqrt of a huge count
            raise ConfigError(f"eval: --counts: {exc}") from None
    else:
        if not args.input:
            raise ConfigError("eval: give a labelled corpus with --input or counts with --counts")
        corpus_path = Path(args.input[0])
        if not corpus_path.is_file():
            raise FileNotFoundError(f"labelled corpus not found: {corpus_path}")
        lex = _build_lexicon(args, config)
        corpus = load_labelled(corpus_path)
        if not corpus:
            raise ConfigError(f"eval: {corpus_path}: no labelled rows")
        matrix = evaluate(corpus, lex)
        metrics = compute_metrics(matrix)
    report = {
        "confusion_matrix": {"tp": matrix.tp, "fp": matrix.fp, "fn": matrix.fn, "tn": matrix.tn},
        "total": matrix.total,
        "metrics": metrics.as_dict(),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    print()
    print(f"{'metric':<12} value")
    print(f"{'-' * 12} -----")
    for name in ("sensitivity", "specificity", "precision", "mcc", "f1"):
        flag = " (degenerate)" if name in metrics.degenerate else ""
        print(f"{name:<12} {getattr(metrics, name):.4f}{flag}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rescuemap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--lexicons", help="directory of lexicon override files")
        p.add_argument("--spanish", action="store_true", help="enable the Spanish keyword overlay")

    p_pipe = sub.add_parser("pipeline", help="run ingest through map emission")
    common(p_pipe)
    p_pipe.add_argument("--input", action="append", help="NDJSON file, repeatable; '-' for stdin")
    p_pipe.add_argument("--manifest", help="file listing NDJSON inputs, one per line")
    p_pipe.add_argument("--gazetteer", help="offline gazetteer TSV")
    p_pipe.add_argument("--geocoder", choices=("gazetteer", "http"), help="backend selection")
    p_pipe.add_argument("--out-geojson", help="write the GeoJSON feature collection here")
    p_pipe.add_argument("--out-map", help="write the interactive map document here")
    p_pipe.set_defaults(func=_cmd_pipeline)

    p_classify = sub.add_parser("classify", help="print per-tweet features and verdicts")
    common(p_classify)
    p_classify.add_argument("--input", action="append", help="NDJSON file; '-' for stdin")
    p_classify.add_argument("--manifest", help="file listing NDJSON inputs")
    p_classify.add_argument(
        "--raw", action="store_true", help="treat each input line as bare tweet text"
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_eval = sub.add_parser("eval", help="confusion matrix and metrics over a labelled corpus")
    common(p_eval)
    p_eval.add_argument("--input", action="append", help="labelled CSV corpus")
    p_eval.add_argument("--counts", help="skip classification; compute metrics from 'tp,fp,fn,tn'")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CorpusFormatError, LexiconError) as exc:
        print(f"rescuemap: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"rescuemap: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rescuemap: io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
