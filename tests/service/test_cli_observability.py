"""``repro stats`` / ``repro health`` CLI verbs against a live server.

The verbs are first-class (not ``submit stats``): they render a
human-readable summary — request counters and a p50/p90/p99 latency
table — with ``--json`` as the machine-readable escape hatch.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service.cli import _fmt_seconds

WORKLOAD = "fft"


@pytest.fixture
def warm_server(server):
    with server.client() as client:
        client.submit_cell("indexing", WORKLOAD, "XOR")
        client.submit_cell("indexing", WORKLOAD, "XOR")  # warm
    return server


class TestStatsVerb:
    def test_stats_render_latency_table(self, warm_server, capsys):
        assert main(["stats", "--port", str(warm_server.port)]) == 0
        out = capsys.readouterr().out
        assert "repro.service server @ 127.0.0.1:" in out
        # The latency table carries the headline percentiles.
        for column in ("count", "mean", "p50", "p90", "p99", "max"):
            assert column in out
        assert "cell" in out
        assert "cache_hits=1" in out

    def test_stats_json_is_the_raw_snapshot(self, warm_server, capsys):
        assert main(["stats", "--port", str(warm_server.port), "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["cells"]["cache_hits"] == 1
        assert "cell" in snapshot["latency"]


class TestHealthVerb:
    def test_health_renders_liveness(self, warm_server, capsys):
        assert main(["health", "--port", str(warm_server.port)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok — ")
        assert "queue depth: 0" in out

    def test_health_json(self, warm_server, capsys):
        assert main(["health", "--port", str(warm_server.port), "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0

    def test_unreachable_daemon_is_exit_3(self, capsys):
        # Port 1 is never listening on loopback.
        assert main(["health", "--port", "1"]) == 3
        assert "cannot reach" in capsys.readouterr().err


class TestRendering:
    def test_fmt_seconds_scales_units(self):
        assert _fmt_seconds(0) == "0"
        assert _fmt_seconds(0.0000005).endswith("µs")
        assert _fmt_seconds(0.0042) == "4.2ms"
        assert _fmt_seconds(2.5) == "2.50s"
