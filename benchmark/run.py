#!/usr/bin/env python3
"""rescuemap benchmark: replay a generated stream end to end and time every layer.

Run from the repository root:

  python3 benchmark/run.py --workload replay_triage --seed 0 --seconds 10 --trace 0

Each run generates its input from the seed (benchmark/generate.py, in a
separate process), then mirrors `rescuemap pipeline` in this process: one
lexicon, StreamConfig and Gazetteer for the run, a fresh Geocoder per replay,
`run_pipeline` in the CLI's default (threaded) mode, then `to_geojson` and
`to_map_document`. Replays repeat until --seconds have passed and the median
is reported. Every replay is checked against the generator's predicted
counts; the shipped corpus and the labelled corpus are checked once per run.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1 prints
the per-layer metrics: it interleaves untraced threaded, untraced
sequential and traced sequential replays for --seconds, probes the inputs
that abort a replay, and writes the last traced replay's spans to
.bench_work/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in benchmark/
from generate import SHIPPED_SUMMARY, service_key  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DATA = ROOT / "data"
REQUIRED = (
    "BENCHMARK.json",
    "src/rescuemap/__init__.py",
    "data/replay_corpus.ndjson",
    "data/gazetteer.tsv",
    "data/labelled_corpus.csv",
    "data/pipeline_config.json",
)

# sha256 of out/rescue_requests.geojson and out/rescue_map.html as produced by
# `rescuemap pipeline --config data/pipeline_config.json`; the shipped corpus
# must keep giving byte-identical artifacts.
SHIPPED_GEOJSON_SHA256 = "c2e6364edc0b702d76e7ba7a3f88fbc1b1e72ff2c23fc4de319f69f63b130abb"
SHIPPED_MAP_SHA256 = "4f345c2e9bfe5b894f01be61343c9ff3af7ccf2ddba3ab1da61e4f3057b2f48b"
SHIPPED_MATRIX = {"tp": 66, "fp": 4, "fn": 8, "tn": 124}

SETUP_PROBES = 15
MIN_REPLAYS = 3
THREADED = {"sequential": False, "traced": False}  # the CLI's default mode
SEQUENTIAL = {"sequential": True, "traced": False}
SERVICE_LATENCY_S = 0.002
SERVICE_URL = "https://geocoder.invalid/maps/api/geocode/json?address={query}&key={key}"

# Each of these inputs aborts a whole replay (all 4 do when this benchmark was
# written), so they are kept out of noisy_stream and counted by the
# ingest.replay_aborts probe instead.
PROBE_GOOD = b'{"id": "p1", "text": "Need rescue at 12 Clay Rd #Harvey", "created_at": "2017-08-27T14:03:00Z"}\n'
PROBE_ABORTS = {
    "created_at_1e20": b'{"id": "p2", "text": "probe", "created_at": 1e20}\n',
    "created_at_nan": b'{"id": "p2", "text": "probe", "created_at": NaN}\n',
    "deep_nesting": b'{"id": "p2", "text": "probe", "created_at": "2017-08-27T14:03:00Z", "x": '
    + b"[" * 100_000 + b"]" * 100_000 + b"}\n",
    "non_utf8": b'{"id": "p2", "text": "probe \xff", "created_at": "2017-08-27T14:03:00Z"}\n',
}

# Names that rescuemap.pipeline looks up, and the span each call becomes.
PIPELINE_SPANS = {
    "read_stream": "ingest.read",
    "passes_stream_filter": "ingest.filter",
    "detect_address": "features.address",
    "extract_features": "features.lexicon",
    "classify": "features.classify",
    "extract_full_address": "address.extract",
    "complete_address": "address.complete",
}


def log(message: str) -> None:
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def import_program():
    """Import rescuemap from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import rescuemap
    import rescuemap.cli
    import rescuemap.pipeline

    if (ROOT / "src").resolve() not in Path(rescuemap.__file__).resolve().parents:
        raise SystemExit(f"benchmark: rescuemap imported from {rescuemap.__file__}, not ./src")
    return rescuemap


# --- inputs -----------------------------------------------------------------------

class FakeGeocodingService:
    """Stands in for the maps API behind HttpBackend: fixed latency, seeded answers."""

    def __init__(self, answers: dict[str, tuple[int, str]], latency_s: float):
        self._answers = answers
        self._latency_s = latency_s
        self._not_found = (200, json.dumps({"status": "ZERO_RESULTS", "results": []}))

    def fetch(self, url: str, timeout: float) -> tuple[int, str]:
        time.sleep(self._latency_s)
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(url).query)["address"][0]
        return self._answers.get(service_key(query), self._not_found)


@dataclass
class Workload:
    input: Path
    lines: int
    expect: dict
    service: FakeGeocodingService | None

    def backend(self, rm, gazetteer):
        if self.service is None:
            return gazetteer
        return rm.HttpBackend(SERVICE_URL, api_key="bench", fetch=self.service.fetch)


def generate(workload: str, seed: int, out_dir: Path) -> Workload:
    subprocess.run(
        [sys.executable, str(BENCH / "generate.py"), workload, str(seed), str(out_dir)],
        cwd=ROOT, check=True, timeout=120,
    )
    expect = json.loads((out_dir / "expect.json").read_text())
    service = None
    if (out_dir / "service.json").exists():
        answers = json.loads((out_dir / "service.json").read_text())
        service = FakeGeocodingService({k: tuple(v) for k, v in answers.items()}, SERVICE_LATENCY_S)
    return Workload(out_dir / "input.ndjson", expect["lines"], expect["summary"], service)


@dataclass
class Program:
    """What one `rescuemap pipeline` run builds before replaying."""

    rm: object
    lex: object
    stream_cfg: object
    gazetteer: object

    @classmethod
    def from_config(cls, rm) -> "Program":
        config = json.loads((DATA / "pipeline_config.json").read_text(encoding="utf-8"))
        return cls(
            rm,
            rm.default_lexicon(spanish=bool(config.get("spanish", False))),
            rm.StreamConfig(
                track_keywords=tuple(config["keywords"]), bbox=rm.BoundingBox(*config["bbox"])
            ),
            rm.Gazetteer.load(DATA / config["gazetteer"]),
        )


# --- one replay -------------------------------------------------------------------

@dataclass
class Replay:
    seconds: float | None = None  # None when the replay raised
    summary: dict = field(default_factory=dict)
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


@contextlib.contextmanager
def traced_pipeline_names(rm, tracer: Tracer | None):
    """Route the calls rescuemap.pipeline makes through ``tracer``."""
    if tracer is None:
        yield
        return
    module = rm.pipeline
    saved = {name: getattr(module, name) for name in PIPELINE_SPANS}
    try:
        for name, span in PIPELINE_SPANS.items():
            wrap = tracer.wrap_iter if name == "read_stream" else tracer.wrap
            setattr(module, name, wrap(span, saved[name]))
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def check_replay(summary: dict, expect: dict, geojson: str) -> list[str]:
    problems = [
        f"{key}={summary.get(key)}, generator predicts {value}"
        for key, value in expect.items()
        if summary.get(key) != value
    ]
    if summary["read"] != summary["stream_passed"] + summary["stream_rejected"]:
        problems.append(f"read is not passed + rejected: {summary}")
    if summary["classified_positive"] != summary["geocoded_ok"] + summary["geocode_failed"]:
        problems.append(f"positive is not ok + failed: {summary}")
    collection = json.loads(geojson)
    if len(collection["features"]) != summary["geocoded_ok"]:
        problems.append(f"{len(collection['features'])} GeoJSON features for {summary['geocoded_ok']} ok")
    if len(collection["ungeocoded"]) != summary["geocode_failed"]:
        problems.append(f"{len(collection['ungeocoded'])} ungeocoded for {summary['geocode_failed']} failed")
    return problems


def replay(program: Program, wl: Workload, *, sequential: bool, traced: bool) -> Replay:
    """One timed replay, from opening the input to both serialised artifacts."""
    rm = program.rm
    backend = wl.backend(rm, program.gazetteer)
    geocoder = rm.Geocoder(backend)
    run_pipeline, to_geojson, to_map_document = rm.run_pipeline, rm.to_geojson, rm.to_map_document
    tracer = Tracer() if traced else None
    if tracer is not None:
        backend.resolve = tracer.wrap("geocode.backend", backend.resolve, tag=lambda r: r.status.value)
        geocoder.geocode = tracer.wrap("geocode.call", geocoder.geocode, tag=lambda r: r.from_cache)
        run_pipeline = tracer.wrap("pipeline", run_pipeline)
        to_geojson = tracer.wrap("output.geojson", to_geojson)
        to_map_document = tracer.wrap("output.map", to_map_document)
    try:
        with traced_pipeline_names(rm, tracer):
            start = time.perf_counter()
            with wl.input.open(encoding="utf-8") as lines:
                requests, summary = run_pipeline(
                    lines,
                    stream_cfg=program.stream_cfg,
                    lex=program.lex,
                    geocoder=geocoder,
                    sequential=sequential,
                )
            geojson = to_geojson(requests)
            document = to_map_document(requests)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            del backend.resolve  # the gazetteer backend is shared between replays
    summary = summary.as_dict()
    return Replay(
        seconds=elapsed,
        summary=summary,
        output_bytes=len(geojson.encode("utf-8")) + len(document.encode("utf-8")),
        problems=check_replay(summary, wl.expect, geojson),
        tracer=tracer,
    )


def timed_replays(seconds: float, min_rounds: int, program, wl, modes: list[dict]) -> list[list[Replay]]:
    """Replays in round-robin over ``modes`` until ``seconds`` have passed.

    Interleaving keeps the modes' ratios honest when the machine's speed drifts.
    """
    results: list[list[Replay]] = [[] for _ in modes]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for mode, replays in zip(modes, results):
            gc.collect()
            try:
                replays.append(replay(program, wl, **mode))
            except Exception:
                replays.append(Replay(problems=[traceback.format_exc()]))
        rounds += 1
    for mode, replays in zip(modes, results):
        done = [r.seconds for r in replays if r.seconds is not None]
        if not done:
            raise RuntimeError(f"every replay raised: {replays[0].problems[0]}")
        log(f"{len(replays)} replays {mode}: median {statistics.median(done):.3f} s")
    return results


def median_rps(wl: Workload, replays: list[Replay]) -> float:
    return statistics.median(wl.lines / r.seconds for r in replays if r.seconds is not None)


# --- checks made once per run ---------------------------------------------------------

def quiet_cli(rm, argv: list[str]) -> tuple[bool, str]:
    """Run `rescuemap ...` in process; True when it returns 0 without raising."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            return rm.cli.main(argv) == 0, out.getvalue()
    except Exception:
        return False, out.getvalue()


def guarded(check, *args) -> list[str]:
    """A check's problems; a check that raises has failed."""
    try:
        return check(*args)
    except Exception:
        return [traceback.format_exc()]


def check_shipped(program: Program, work: Path) -> list[str]:
    """The benchmark's replay equals `rescuemap pipeline --config` on the shipped corpus."""
    rm = program.rm
    geojson_path, map_path = work / "shipped.geojson", work / "shipped.html"
    ok, stdout = quiet_cli(rm, [
        "pipeline", "--config", str(DATA / "pipeline_config.json"),
        "--out-geojson", str(geojson_path), "--out-map", str(map_path),
    ])
    if not ok:
        return ["rescuemap pipeline --config data/pipeline_config.json failed"]
    with (DATA / "replay_corpus.ndjson").open(encoding="utf-8") as lines:
        requests, summary = rm.run_pipeline(
            lines, stream_cfg=program.stream_cfg, lex=program.lex,
            geocoder=rm.Geocoder(program.gazetteer), sequential=False,
        )
    geojson = rm.to_geojson(requests).encode("utf-8")
    document = rm.to_map_document(requests).encode("utf-8")
    problems = []
    if json.loads(stdout) != SHIPPED_SUMMARY or summary.as_dict() != SHIPPED_SUMMARY:
        problems.append(f"shipped summary {summary.as_dict()} != {SHIPPED_SUMMARY}")
    if geojson != geojson_path.read_bytes() or document != map_path.read_bytes():
        problems.append("replay artifacts differ from the CLI's")
    if hashlib.sha256(geojson).hexdigest() != SHIPPED_GEOJSON_SHA256:
        problems.append("shipped GeoJSON changed")
    if hashlib.sha256(document).hexdigest() != SHIPPED_MAP_SHA256:
        problems.append("shipped map document changed")
    return problems


def check_evaluate(program: Program) -> list[str]:
    rm = program.rm
    matrix = rm.evaluate(rm.load_labelled(DATA / "labelled_corpus.csv"), program.lex)
    got = {"tp": matrix.tp, "fp": matrix.fp, "fn": matrix.fn, "tn": matrix.tn}
    return [] if got == SHIPPED_MATRIX else [f"labelled corpus matrix {got} != {SHIPPED_MATRIX}"]


def probe_replay_aborts(rm, work: Path) -> tuple[int, list[str]]:
    """How many PROBE_ABORTS inputs, each behind one good line, abort `rescuemap pipeline`."""
    def completes(payload: bytes) -> bool:
        path = work / "probe.ndjson"
        path.write_bytes(PROBE_GOOD + payload)
        return quiet_cli(rm, [
            "pipeline", "--input", str(path), "--gazetteer", str(DATA / "gazetteer.tsv"),
            "--out-geojson", str(work / "probe.geojson"), "--out-map", str(work / "probe.html"),
        ])[0]

    problems = [] if completes(b"") else ["abort probe: the good line alone does not complete"]
    aborted = [name for name, payload in PROBE_ABORTS.items() if not completes(payload)]
    log(f"replay aborts: {aborted}")
    return len(aborted), problems


def measure_setup() -> dict[str, float]:
    """Medians over fresh interpreters, after one discarded warm-up.

    The warm-up writes src/rescuemap/__pycache__, so the probes load cached
    bytecode as an installed package would, whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    runs = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            runs.append(json.loads(done.stdout.splitlines()[-1]))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


# --- metrics ----------------------------------------------------------------------

def end_to_end(program, wl, setup, seconds) -> tuple[dict, list[Replay]]:
    [replays] = timed_replays(seconds, MIN_REPLAYS, program, wl, [THREADED])
    done = [r for r in replays if r.seconds is not None]
    values = {
        "throughput_rps": median_rps(wl, replays),
        "unmapped_share": statistics.median(
            r.summary["geocode_failed"] / max(r.summary["classified_positive"], 1) for r in done
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup["setup_s"],
    }
    return values, replays


def per_layer(program, wl, setup, seconds, work, trace_path) -> tuple[dict, list[Replay], list[str]]:
    aborts, problems = probe_replay_aborts(program.rm, work)
    threaded, sequential, traced = timed_replays(
        seconds, 1, program, wl, [THREADED, SEQUENTIAL, {"sequential": True, "traced": True}]
    )
    traced_done = [r for r in traced if r.seconds is not None]
    traced_done[-1].tracer.write(trace_path)

    totals: dict[str, dict] = {}
    for r in traced_done:
        for name, entry in r.tracer.layer_totals().items():
            merged = totals.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "tags": {}})
            for key in ("calls", "total_ns", "self_ns"):
                merged[key] += entry[key]
            for tag, count in entry["tags"].items():
                merged["tags"][tag] = merged["tags"].get(tag, 0) + count
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "tags": {}}

    def layer(name: str) -> dict:
        return totals.get(name, empty)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    n = len(traced_done)
    s = traced_done[-1].summary
    lines, read, passed, positive = (
        wl.lines * n, s["read"] * n, s["stream_passed"] * n, s["classified_positive"] * n
    )
    backend = layer("geocode.backend")
    call = layer("geocode.call")
    sequential_rps = median_rps(wl, sequential)
    values = {
        "ingest.parse_us": per(layer("ingest.read")["self_ns"] / 1e3, lines),
        "ingest.filter_us": per(layer("ingest.filter")["self_ns"] / 1e3, read),
        "ingest.pass_ratio": per(s["stream_passed"], s["read"]),
        "ingest.malformed": s["malformed"],
        "ingest.duplicates": s["duplicates"],
        "ingest.replay_aborts": aborts,
        "features.address_us": per(layer("features.address")["self_ns"] / 1e3, passed),
        "features.lexicon_us": per(layer("features.lexicon")["self_ns"] / 1e3, passed),
        "features.classify_us": per(layer("features.classify")["self_ns"] / 1e3, passed),
        "features.positive_ratio": per(s["classified_positive"], s["stream_passed"]),
        "address.extract_us": per(
            (layer("address.extract")["self_ns"] + layer("address.complete")["self_ns"]) / 1e3, positive
        ),
        "geocode.call_us": per(call["self_ns"] / 1e3, call["calls"]),
        "geocode.backend_calls": backend["calls"] / n,
        "geocode.backend_wait_s": backend["total_ns"] / 1e9 / n,
        "geocode.cache_hit_ratio": per(call["tags"].get(True, 0), call["calls"]),
        "geocode.error_share": per(
            backend["tags"].get("backend_error", 0) + backend["tags"].get("rate_limited", 0),
            backend["calls"],
        ),
        "output.geojson_ms": layer("output.geojson")["self_ns"] / 1e6 / n,
        "output.map_ms": layer("output.map")["self_ns"] / 1e6 / n,
        "output.bytes": traced_done[-1].output_bytes,
        "lexicons.load_ms": setup["lexicons.load_ms"],
        "features.compile_ms": setup["features.compile_ms"],
        "geocode.gazetteer_load_ms": setup["geocode.gazetteer_load_ms"],
        "pipeline.self_us": per(layer("pipeline")["self_ns"] / 1e3, lines),
        "pipeline.sequential_rps": sequential_rps,
        "pipeline.threaded_over_sequential": median_rps(wl, threaded) / sequential_rps,
        "trace.overhead": median_rps(wl, traced) / sequential_rps,
    }
    return values, threaded + sequential + traced, problems


# --- main -------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"benchmark: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    log(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()}")

    rm = import_program()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = generate(args.workload, args.seed, work / "input")
        setup = measure_setup()
        program = Program.from_config(rm)
        check_results = [guarded(check_shipped, program, work), guarded(check_evaluate, program)]
        problems = [p for found in check_results for p in found]
        checks_failed = sum(1 for found in check_results if found)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
            values, replays, probe_problems = per_layer(program, wl, setup, args.seconds, work, trace_path)
            problems += probe_problems
            checks_failed += bool(probe_problems)
            wanted = spec["per_layer"]
        else:
            values, replays = end_to_end(program, wl, setup, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_replays = [r for r in replays if r.problems]
    for r in failed_replays[:3]:
        problems += r.problems
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    failed = checks_failed + len(failed_replays)
    result = {
        "correct": failed == 0,
        "attempted": len(replays) + 2 + (1 if args.trace else 0),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
