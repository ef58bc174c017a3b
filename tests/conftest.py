from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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


class LoopbackServer(ThreadingHTTPServer):
    daemon_threads = False  # so that server_close joins the handler threads
    request_queue_size = 128  # the geocode pool connects 64 at once; a full backlog costs 1 s


@pytest.fixture()
def loopback(monkeypatch):
    """Starts HTTP servers on 127.0.0.1 (no network) and returns each one's base URL.

    A server answers every GET with ``answer(path) -> (status, headers, body
    bytes)``, called on the handler's thread. ``no_proxy`` is set so that
    requests from this process and its children go straight to the server.
    """
    monkeypatch.setenv("no_proxy", "*")
    servers = []

    def start(answer) -> str:
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                status, headers, body = answer(self.path)
                try:
                    self.send_response(status)
                    for name, value in headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client timed out and hung up

            def log_message(self, format, *args):
                pass

        server = LoopbackServer(("127.0.0.1", 0), Handler)
        # A short poll interval lets shutdown() return in milliseconds.
        thread = threading.Thread(target=server.serve_forever, args=(0.02,))
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
