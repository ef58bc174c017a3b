#!/usr/bin/env python3
"""Time rescuemap's set-up in this fresh interpreter and print it as JSON.

Set-up is what a `rescuemap pipeline` run pays before its first record: the
package import, default_lexicon(), Gazetteer.load and the first
extract_features call, which compiles the lexicon patterns. Run from the
repository root; the package is imported from ./src only.
"""
import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, "src")
import rescuemap  # noqa: E402

if Path("src").resolve() not in Path(rescuemap.__file__).resolve().parents:
    sys.exit(f"setup_probe: imported rescuemap from {rescuemap.__file__}, not ./src")
imported = time.perf_counter()
lex = rescuemap.default_lexicon()
lexicon_loaded = time.perf_counter()
rescuemap.Gazetteer.load("data/gazetteer.tsv")
gazetteer_loaded = time.perf_counter()
rescuemap.extract_features("Please help, 3 people trapped at 4055 Braeswood Blvd #Harvey", lex)
compiled = time.perf_counter()

print(json.dumps({
    "setup_s": compiled - start,
    "lexicons.load_ms": (lexicon_loaded - imported) * 1e3,
    "geocode.gazetteer_load_ms": (gazetteer_loaded - lexicon_loaded) * 1e3,
    "features.compile_ms": (compiled - gazetteer_loaded) * 1e3,
}))
