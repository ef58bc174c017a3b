from __future__ import annotations

from pathlib import Path

import pytest

from rescuemap import Gazetteer, Geocoder, default_lexicon

REPO = Path(__file__).resolve().parents[1]
DATA = REPO / "data"


@pytest.fixture(scope="session")
def lex():
    return default_lexicon()


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture()
def sample_corpus_lines() -> list[str]:
    return (DATA / "harvey_sample.ndjson").read_text(encoding="utf-8").splitlines()


@pytest.fixture()
def sample_geocoder() -> Geocoder:
    return Geocoder(Gazetteer.load(DATA / "gazetteer_sample.tsv"))


class PooledGazetteer:
    """Answers as the wrapped gazetteer does, but is not a `Gazetteer`, so
    `run_pipeline(sequential=False)` sends its lookups through the pool."""

    def __init__(self, gazetteer: Gazetteer):
        self._gazetteer = gazetteer

    def resolve(self, query: str):
        return self._gazetteer.resolve(query)


@pytest.fixture(scope="session")
def pooled_geocoder():
    """Builds a fresh `Geocoder` whose lookups go through the pool, from a gazetteer file."""
    return lambda path: Geocoder(PooledGazetteer(Gazetteer.load(path)))
