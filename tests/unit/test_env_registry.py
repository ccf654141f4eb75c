"""repro.env: parsing semantics, write chokepoint, and docs generation."""

from __future__ import annotations

from pathlib import Path

import os

import pytest

from repro import env
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


def test_every_runtime_variable_is_declared():
    declared = set(env.REGISTRY)
    assert {
        "REPRO_JOBS", "REPRO_EVAL_CACHE", "REPRO_TRACE", "REPRO_TRACE_RUN",
        "REPRO_LOG_LEVEL", "REPRO_BATCHED_MONITOR",
        "REPRO_BENCH_JSON", "REPRO_BENCH_SMOKE", "REPRO_BENCH_STRICT",
    } <= declared
    for var in env.describe():
        assert var.name.startswith("REPRO_")
        assert var.kind in ("str", "int", "bool", "path")
        assert var.doc


def test_unknown_variable_raises():
    with pytest.raises(KeyError):
        env.get("REPRO_NOPE")
    with pytest.raises(KeyError):
        env.raw("REPRO_NOPE")
    with pytest.raises(KeyError):
        env.export_env("REPRO_NOPE", "1")
    with pytest.raises(KeyError):
        env.clear_env("REPRO_NOPE")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_bool_parsing_accepts_the_usual_words(monkeypatch):
    for off in ("0", "false", "no", "off", "FALSE", " Off "):
        monkeypatch.setenv("REPRO_BATCHED_MONITOR", off)
        assert env.get("REPRO_BATCHED_MONITOR") is False
    for on in ("1", "true", "yes", "on", "anything"):
        monkeypatch.setenv("REPRO_BATCHED_MONITOR", on)
        assert env.get("REPRO_BATCHED_MONITOR") is True
    monkeypatch.delenv("REPRO_BATCHED_MONITOR", raising=False)
    assert env.get("REPRO_BATCHED_MONITOR") is True  # declared default
    monkeypatch.setenv("REPRO_BATCHED_MONITOR", "")
    assert env.get("REPRO_BATCHED_MONITOR") is True  # empty -> default


def test_int_parsing_clamps_and_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert env.get("REPRO_JOBS") == 4
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert env.get("REPRO_JOBS") == 1  # clamped, matches old max(1, ...)
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert env.get("REPRO_JOBS") is None  # default: resolver uses cpu count
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert env.get("REPRO_JOBS") is None


def test_path_parsing_disable_sentinels(monkeypatch):
    for off in ("", "0", "off", "OFF"):
        monkeypatch.setenv("REPRO_TRACE", off)
        assert env.get("REPRO_TRACE") is None
    monkeypatch.setenv("REPRO_TRACE", "t.jsonl")
    assert env.get("REPRO_TRACE") == "t.jsonl"
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert env.get("REPRO_TRACE") is None

    monkeypatch.delenv("REPRO_EVAL_CACHE", raising=False)
    assert env.get("REPRO_EVAL_CACHE").endswith("eval_cache.json")
    monkeypatch.setenv("REPRO_EVAL_CACHE", "0")
    assert env.get("REPRO_EVAL_CACHE") is None


def test_consumers_resolve_through_the_registry(monkeypatch):
    from repro.monitor.agent import batched_monitor_default
    from repro.parallel.executor import resolve_jobs
    from repro.tuning.eval_cache import default_cache

    monkeypatch.setenv("REPRO_BATCHED_MONITOR", "off")
    assert batched_monitor_default() is False
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    monkeypatch.setenv("REPRO_EVAL_CACHE", "0")
    assert default_cache() is None
    monkeypatch.setenv("REPRO_EVAL_CACHE", "custom.json")
    cache = default_cache()
    assert cache is not None and str(cache.path) == "custom.json"


# ---------------------------------------------------------------------------
# Writes
# ---------------------------------------------------------------------------


def test_export_env_roundtrip(monkeypatch):
    monkeypatch.delenv("REPRO_BATCHED_MONITOR", raising=False)
    env.export_env("REPRO_BATCHED_MONITOR", False)
    assert env.raw("REPRO_BATCHED_MONITOR") == "0"
    assert env.get("REPRO_BATCHED_MONITOR") is False
    env.export_env("REPRO_BATCHED_MONITOR", True)
    assert env.raw("REPRO_BATCHED_MONITOR") == "1"
    env.clear_env("REPRO_BATCHED_MONITOR")
    assert env.raw("REPRO_BATCHED_MONITOR") is None


# ---------------------------------------------------------------------------
# Docs generation and the CLI subcommand
# ---------------------------------------------------------------------------


def test_markdown_table_lists_every_variable():
    table = env.markdown_table()
    assert table.startswith("| Variable | Type | Default | Meaning |")
    for var in env.describe():
        assert f"`{var.name}`" in table


def test_readme_env_table_is_generated_from_the_registry():
    """The README table is `python -m repro env --markdown` output."""
    readme = (REPO_ROOT / "README.md").read_text()
    assert env.markdown_table() in readme, (
        "README env-var table is stale; regenerate with "
        "`python -m repro env --markdown` and paste between the "
        "env-table markers"
    )


def test_cli_env_subcommand(capsys):
    assert main(["env"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_JOBS" in out and "default:" in out

    assert main(["env", "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("| Variable |")
    assert "`REPRO_TRACE`" in out
