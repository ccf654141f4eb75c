"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_list_schemes(capsys):
    assert main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    for scheme in ("default", "expert", "acc", "dcqcn+", "paraleon"):
        assert scheme in out


def test_pfc_plan(capsys):
    assert main(["pfc-plan", "--scale", "small", "--buffer-mb", "2"]) == 0
    out = capsys.readouterr().out
    assert "planned alpha" in out
    assert "headroom" in out


def test_run_command(capsys):
    code = main([
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.02", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean utility" in out
    assert "avg FCT slowdown" in out
    assert "dropped packets : 0" in out


def test_compare_command(capsys):
    code = main([
        "compare", "--schemes", "default,expert",
        "--workload", "hadoop", "--scale", "small",
        "--duration", "0.02", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Default" in out and "Expert" in out


def test_compare_rejects_unknown_scheme(capsys):
    code = main([
        "compare", "--schemes", "default,warpdrive",
        "--duration", "0.01", "--scale", "small",
    ])
    assert code == 2
    assert "unknown schemes" in capsys.readouterr().err


def test_run_with_jobs_flag_matches_default(capsys):
    argv = [
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.02", "--seed", "3",
    ]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    with_jobs = capsys.readouterr().out
    assert with_jobs == plain


def test_sweep_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # keep .repro_cache out of the repo
    code = main([
        "sweep", "--workload", "hadoop", "--scale", "small",
        "--duration", "0.004", "--jobs", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid points     : 81" in out
    assert "best utility" in out
    assert "cache" in out
    assert (tmp_path / ".repro_cache" / "eval_cache.json").exists()
    # Second run is served from the persisted cache.
    assert main([
        "sweep", "--workload", "hadoop", "--scale", "small",
        "--duration", "0.004", "--jobs", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "81 hits" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_rejects_unknown_scheme(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--scheme", "warpdrive"])
    # Stale engine modes and strategies fail the same way, naming the
    # choices that remain.
    for flag, stale, valid in (
        ("--hybrid-engine", "lanes", ("off", "hybrid")),
        ("--strategy", "thread", ("auto", "process", "inline")),
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", flag, stale])
        err = capsys.readouterr().err
        choices = err.split("choose from", 1)[1]
        assert f"invalid choice: '{stale}'" in err
        assert all(choice in choices for choice in valid)


# ---------------------------------------------------------------------------
# Flight recorder / run report / bench trend
# ---------------------------------------------------------------------------


def test_run_record_then_report_end_to_end(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    out = tmp_path / "report.html"
    code = main([
        "run", "--scheme", "paraleon", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.01", "--seed", "3",
        "--jobs", "1", "--no-cache", "--record", str(rec),
    ])
    assert code == 0
    assert "recording" in capsys.readouterr().out
    assert rec.exists()

    assert main(["report", str(rec), "--out", str(out)]) == 0
    assert "report written" in capsys.readouterr().out
    html = out.read_text()
    for section_id in ("fct-cdf", "queue-depth", "rate-alpha", "pfc-events"):
        assert f'id="{section_id}"' in html


def test_run_record_leaves_no_env_behind(tmp_path):
    import os
    assert main([
        "run", "--scheme", "default", "--workload", "hadoop",
        "--scale", "small", "--duration", "0.004", "--seed", "3",
        "--jobs", "1", "--no-cache", "--record", str(tmp_path / "r.json"),
    ]) == 0
    assert "REPRO_RECORD" not in os.environ


def test_report_missing_recording_is_graceful(capsys, tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == 0
    assert "no recording at" in capsys.readouterr().out


def test_report_corrupt_recording_fails(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["report", str(bad)]) == 2


def test_telemetry_missing_trace_is_graceful(capsys, tmp_path):
    assert main(["telemetry", str(tmp_path / "nope.jsonl")]) == 0
    assert "nothing to report" in capsys.readouterr().out


def test_telemetry_empty_trace_is_graceful(capsys, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert main(["telemetry", str(empty)]) == 0
    assert "empty trace" in capsys.readouterr().out


def test_telemetry_validate_missing_still_fails(tmp_path):
    assert main(["telemetry", "--validate", str(tmp_path / "nope.jsonl")]) == 2


def test_bench_trend_no_snapshots_is_graceful(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "trend"]) == 0
    assert "no BENCH_*.json snapshots" in capsys.readouterr().out


def test_bench_trend_over_explicit_files(capsys, tmp_path):
    import json as _json
    a, b = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
    a.write_text(_json.dumps({"engine": {"events_per_sec": 1000.0}}))
    b.write_text(_json.dumps({"engine": {"events_per_sec": 400.0}}))
    assert main(["bench", "trend", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "engine.events_per_sec" in out
    assert "REGRESSED" in out
