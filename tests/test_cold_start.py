"""What `import rescuemap` and each entry point load.

The package binds each public name on first use, so a run loads only the
modules it runs. Each probe runs in a fresh interpreter under -S, so no site
hook has imported a module before rescuemap does.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC.parent / "data"
CORPUS = DATA / "labelled_corpus.csv"
STAGES = ("rescuemap.geocode", "rescuemap.ingest", "rescuemap.output", "rescuemap.pipeline")
# Runs a CLI subcommand with its stdout discarded.
RUN_CLI = (
    "import contextlib, io\n"
    "from rescuemap import cli\n"
    "def run_cli(*argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        assert cli.main(list(argv)) == 0\n"
)


def probe(code: str) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter that imports ./src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded(*modules: str) -> str:
    """Code that prints which of ``modules`` are loaded, as a sorted list."""
    return f"import sys; print(sorted({set(modules)!r} & sys.modules.keys()))"


def test_import_loads_no_stage_beyond_classification():
    assert probe("\n".join([
        "import rescuemap",
        loaded(*STAGES, "rescuemap.cli"),
        "print(rescuemap.pipeline.__name__, rescuemap.cli.__name__)",
        "try:\n    rescuemap.no_such_name\nexcept AttributeError as exc:\n    print(exc)",
    ])) == [
        "[]",
        "rescuemap.pipeline rescuemap.cli",
        "module 'rescuemap' has no attribute 'no_such_name'",
    ]


def test_setup_probe_path_loads_no_tweet_parser_and_compiles_no_chain():
    # What benchmark/setup_probe.py times: lexicon, gazetteer, first features.
    assert probe("\n".join([
        "import rescuemap",
        "lex = rescuemap.default_lexicon()",
        f"rescuemap.Gazetteer.load({str(DATA / 'gazetteer.tsv')!r})",
        "rescuemap.extract_features('Please help, 3 people trapped at 4055 Braeswood Blvd', lex)",
        loaded("rescuemap.ingest", "rescuemap.output", "rescuemap.pipeline", "datetime", "zoneinfo"),
        "print(rescuemap.address._CHAIN_RE)",
    ])) == ["[]", "None"]


def test_eval_loads_no_ingest_geocode_output_or_pipeline():
    assert probe(RUN_CLI + "\n".join([
        f"run_cli('eval', '--input', {str(CORPUS)!r})",
        loaded(*STAGES),
    ])) == ["[]"]


def test_classify_loads_no_geocode_output_or_pipeline():
    assert probe(RUN_CLI + "\n".join([
        f"run_cli('classify', '--input', {str(DATA / 'replay_corpus.ndjson')!r})",
        loaded(*STAGES),
    ])) == ["['rescuemap.ingest']"]


def test_star_import_and_dir_give_every_public_name():
    out = probe("\n".join([
        "import importlib, pkgutil, rescuemap",
        "print(sorted(set(rescuemap.__all__) - set(dir(rescuemap))))",
        "names = {}",
        "exec('from rescuemap import *', names)",
        "print(sorted(set(rescuemap.__all__) - names.keys()))",
        # Every module that holds a public name must hold the object the package gave.
        "modules = [importlib.import_module(f'rescuemap.{m.name}')",
        "           for m in pkgutil.iter_modules(rescuemap.__path__)]",
        "holders = {name: [vars(m)[name] for m in modules if name in vars(m)] for name in rescuemap.__all__}",
        "print(sorted(n for n, objs in holders.items() if not objs))",
        "print(sorted(n for n, objs in holders.items() if any(o is not names[n] for o in objs)))",
    ]))
    assert out == ["[]"] * 4


def test_each_public_name_is_listed_once():
    out = probe("\n".join([
        "import collections, rescuemap",
        # _MODULE_OF would keep only the last module of a name listed under two.
        "lazy = collections.Counter(n for names in rescuemap._LAZY.values() for n in names)",
        "print(sorted(n for n, count in lazy.items() if count > 1))",
        # A lazy name is bound on first use; one bound at import is also an eager name.
        "print(sorted(n for n in rescuemap._MODULE_OF if n in vars(rescuemap)))",
        "print(sorted(n for n, count in collections.Counter(rescuemap.__all__).items() if count > 1))",
    ]))
    assert out == ["[]"] * 3


EVALUATE_NAME_ORDERS = {
    "import_submodule": "import rescuemap.evaluate",
    "from_submodule": "from rescuemap.evaluate import load_labelled",
    "import_cli": "import rescuemap.cli",
    "cli_eval": RUN_CLI + f"run_cli('eval', '--input', {str(CORPUS)!r})",
    # benchmark/run.py's import_program, then its check_evaluate.
    "benchmark": "\n".join([
        "import rescuemap, rescuemap.cli, rescuemap.pipeline",
        f"m = rescuemap.evaluate(rescuemap.load_labelled({str(CORPUS)!r}), rescuemap.default_lexicon())",
        "print(m.tp, m.fp, m.fn, m.tn)",
    ]),
}


@pytest.mark.parametrize("order", EVALUATE_NAME_ORDERS)
def test_rescuemap_evaluate_stays_the_function(order):
    # The submodule rescuemap.evaluate shares the function's name; importing
    # a submodule binds it on the package when it first loads.
    out = probe(EVALUATE_NAME_ORDERS[order] + "\nimport rescuemap, types\n"
                "print(type(rescuemap.evaluate) is types.FunctionType)")
    assert out == (["66 4 8 124"] if order == "benchmark" else []) + ["True"]
