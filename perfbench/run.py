"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paraleon-hadoop --seed 1 \
        --seconds 24 --trace 0

The run clears every registered ``REPRO_*`` variable (so the default
path is measured), sets up, then repeats the workload's unit of work in
rounds until ``--seconds`` is used up, at least twice for each input.
Every repetition's digests and work counts must match the first; a
mismatch counts as a failed operation.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` spends part of the budget untraced and the rest with the
layer tracer installed, and reports the per-layer metrics; the span
totals are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Share of a traced run's budget spent untraced (the overhead base).
UNTRACED_SHARE = 0.4


def clear_registered_env() -> list:
    """Unset every variable ``repro.env`` registers, before importing repro.

    Some modules read their variable at import time, so the registry is
    loaded on its own (it imports only the standard library) and the
    environment is cleaned before the package itself is imported.
    """
    name = "_perfbench_repro_env"
    spec = importlib.util.spec_from_file_location(name, SRC / "repro" / "env.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        names = [var.name for var in module.describe()]
    finally:
        del sys.modules[name]
    for var in names:
        os.environ.pop(var, None)
    return names


def peak_rss_mb(pids) -> float:
    """Peak resident set (VmHWM) of this process plus ``pids``, in MB."""
    total_kb = 0
    for pid in ["self"] + [str(p) for p in pids]:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stop_helper_processes() -> None:
    """Stop every multiprocessing child and helper, waiting for each.

    The worker pool's shared-memory slots start multiprocessing's
    resource tracker, a helper process that otherwise ends only after
    this process has exited; stopping it here reaps it before exit.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_rounds(workload, inputs, budget, min_rounds, units, problems):
    """Repeat every input in rounds until ``budget`` seconds are spent."""
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < min_rounds or time.perf_counter() - start + last <= budget:
        round_start = time.perf_counter()
        for index, inp in enumerate(inputs):
            # Every unit starts from the same collector state.
            gc.collect()
            try:
                units.append((index, workload.run_unit(inp)))
            except Exception:  # one failed operation; the run goes on
                traceback.print_exc(file=sys.stderr)
                units.append((index, None))
                problems.append(f"input {index}: exception (see stderr)")
        last = time.perf_counter() - round_start
        rounds += 1
    return rounds


def check_repetitions(units, problems):
    """Failed operations from digest mismatches; False on unequal work."""
    failed, equal_work = 0, True
    first = {}
    for index, unit in units:
        if unit is None:
            continue
        ref = first.setdefault(index, unit)
        if unit.digests != ref.digests:
            failed += 1
            problems.append(f"input {index}: digest mismatch across repetitions")
        if unit.work != ref.work:
            equal_work = False
            problems.append(
                f"input {index}: work differs ({unit.work} vs {ref.work})"
            )
    return failed, equal_work, first


def end_to_end(plain, first, setups, rss, problems):
    from repro.experiments.fct import percentile

    walls = [u.wall for _i, u in plain if u is not None]
    units = [first[i] for i in sorted(first)]
    slowdowns = sorted(s for u in units for s in u.slowdowns)
    finishes = [f for u in units for f in u.last_finish_ms]
    steps = [s for _i, u in plain if u is not None for s in u.steps]
    if not slowdowns:
        problems.append("no completed flows to compute FCT slowdown")
        slowdowns = [0.0]
    beyond_p95 = len(slowdowns) - math.ceil(0.95 * len(slowdowns))
    if beyond_p95 < 10:
        problems.append(f"only {beyond_p95} flows beyond the FCT p95")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "mean_utility": (statistics.fmean(u.utility for u in units), "score"),
        "fct_slowdown_p50": (percentile(slowdowns, 50), "ratio"),
        "fct_slowdown_p95": (percentile(slowdowns, 95), "ratio"),
        "sim_jct_ms": (statistics.median(finishes) if finishes else 0.0, "sim_ms"),
        "interval_p50_ms": (statistics.median(steps) * 1e3 if steps else 0.0, "ms"),
    }


def per_layer(plain, traced, first, extra, tracer):
    from perfbench.tracing import LAYERS, SIM_MODULES

    plain_units = [u for _i, u in plain if u is not None]
    traced_units = [u for _i, u in traced if u is not None]
    n_traced = max(1, len(traced_units))
    units = [first[i] for i in sorted(first)]

    def count(name):
        # Deterministic per input: averaged over the inputs.
        return statistics.fmean(u.counts.get(name, 0.0) for u in units)

    def timed(name):
        # Host time recorded by an untraced unit: median over units.
        return statistics.median(u.counts.get(name, 0.0) for u in plain_units)

    def per_unit(value):
        return value / n_traced

    metrics = {}
    plain_wall = statistics.median(u.wall for u in plain_units)
    traced_wall = statistics.median(u.wall for u in traced_units)
    metrics["simulator.events"] = (count("simulator.events"), "count")
    metrics["simulator.ns_per_event"] = (timed("simulator.ns_per_event"), "ns")
    for module in SIM_MODULES:
        span = "simulator." + module
        metrics[span + ".self_s"] = (per_unit(tracer.self_s(span)), "s")
        if module != "engine":
            metrics[span + ".events"] = (per_unit(tracer.calls(span)), "count")
    metrics["simulator.other.self_s"] = (
        per_unit(tracer.self_s("simulator.other")), "s"
    )
    for name in ("ecn_marked", "pfc_pauses", "dropped"):
        metrics["simulator." + name] = (count("simulator." + name), "count")

    metrics["sketch.packets"] = (count("sketch.packets"), "count")
    metrics["sketch.insert_s"] = (per_unit(tracer.self_s("sketch.insert")), "s")
    metrics["sketch.fastpath_frac"] = (count("sketch.fastpath_frac"), "ratio")
    metrics["monitor.collect_s"] = (per_unit(tracer.self_s("monitor.collect")), "s")
    metrics["monitor.aggregate_s"] = (
        per_unit(tracer.self_s("monitor.aggregate")), "s"
    )
    metrics["monitor.flushes"] = (count("monitor.flushes"), "count")
    metrics["monitor.upload_bytes"] = (count("monitor.upload_bytes"), "B")

    metrics["core.controller.self_s"] = (
        per_unit(tracer.self_s("core.controller")), "s"
    )
    metrics["core.controller.kl_s"] = (
        per_unit(tracer.self_s("core.controller.kl")), "s"
    )
    for name in ("kl_triggers", "dispatches"):
        metrics["core.controller." + name] = (
            count("core.controller." + name), "count"
        )

    metrics["tuning.propose_s"] = (per_unit(tracer.self_s("tuning.propose")), "s")
    metrics["tuning.feedback_s"] = (per_unit(tracer.self_s("tuning.feedback")), "s")
    metrics["tuning.steps"] = (count("tuning.steps"), "count")
    metrics["tuning.accept_frac"] = (count("tuning.accept_frac"), "ratio")
    metrics["tuning.evals_to_best"] = (count("tuning.evals_to_best"), "count")
    metrics["tuning.time_to_best_s"] = (timed("tuning.time_to_best_s"), "s")

    metrics["parallel.map_s"] = (timed("parallel.map_s"), "s")
    metrics["parallel.tasks"] = (count("parallel.tasks"), "count")
    metrics["parallel.task_busy_s"] = (timed("parallel.task_busy_s"), "s")
    metrics["parallel.worker_busy_frac"] = (
        timed("parallel.worker_busy_frac"), "ratio"
    )
    metrics["parallel.ipc_bytes"] = (count("parallel.ipc_bytes"), "B")
    metrics["parallel.retried_chunks"] = (count("parallel.retried_chunks"), "count")
    metrics["parallel.spawn_s"] = (extra.get("parallel.spawn_s", 0.0), "s")

    for phase in ("collect", "ingest", "aggregate", "trigger", "tune"):
        metrics[f"controlplane.{phase}_s"] = (
            per_unit(tracer.self_s("controlplane." + phase)), "s"
        )
    metrics["controlplane.retunes"] = (count("controlplane.retunes"), "count")
    metrics["controlplane.tier_bytes"] = (count("controlplane.tier_bytes"), "B")

    layer_self = tracer.layer_self_s()
    attributed = 0.0
    for layer in LAYERS:
        value = per_unit(layer_self[layer])
        attributed += value
        metrics[f"layer.{layer}.self_s"] = (value, "s")
    traced_mean = statistics.fmean(u.wall for u in traced_units)
    metrics["layer.unattributed_s"] = (traced_mean - attributed, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace_overhead"] = (traced_wall / plain_wall, "ratio")

    work = units[0].work
    metrics["work.flows_completed"] = (
        sum(u.work.get("flows_completed", 0) for u in units) / len(units), "count"
    )
    metrics["work.flows_total"] = (
        sum(u.work.get("flows_total", 0) for u in units) / len(units), "count"
    )
    metrics["work.evals"] = (work.get("evals", 0), "count")
    metrics["work.intervals"] = (work.get("intervals", 0), "count")
    return metrics, traced_mean


def print_layer_table(metrics, traced_mean, plain_wall, emit):
    from perfbench.tracing import LAYERS

    emit(f"{'layer':<14} {'self s/unit':>12} {'share':>7}")
    for layer in LAYERS:
        value = metrics[f"layer.{layer}.self_s"][0]
        emit(f"{layer:<14} {value:12.4f} {value / traced_mean:7.1%}")
    rest = metrics["layer.unattributed_s"][0]
    emit(f"{'unattributed':<14} {rest:12.4f} {rest / traced_mean:7.1%}")
    emit(
        f"traced total {traced_mean:.4f} s/unit; untraced total "
        f"{plain_wall:.4f} s/unit; trace_overhead "
        f"{metrics['trace_overhead'][0]:.3f}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    cleared = clear_registered_env()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    def emit(line=""):
        print(line, flush=True)

    workload = WORKLOADS[args.workload](args.seed)
    problems: list = []
    plain: list = []
    traced: list = []
    tracer = None
    try:
        setups, extra = workload.prepare()
        inputs = workload.inputs()
        if args.trace:
            run_rounds(
                workload, inputs, args.seconds * UNTRACED_SHARE, 1, plain, problems
            )
            tracer = Tracer()
            tracer.install()
            try:
                workload.prepare_traced()
                tracer.reset()
                run_rounds(
                    workload,
                    inputs,
                    args.seconds * (1 - UNTRACED_SHARE),
                    1,
                    traced,
                    problems,
                )
            finally:
                tracer.uninstall()
        else:
            run_rounds(workload, inputs, args.seconds, 2, plain, problems)
        rss = peak_rss_mb(workload.worker_pids())
    finally:
        workload.close()
        stop_helper_processes()

    units = plain + traced
    setups = setups + [u.setup for _i, u in plain if u is not None and u.setup is not None]
    errors = sum(1 for _i, u in units if u is None)
    attempted = sum(u.attempted for _i, u in units if u is not None) + errors
    mismatched, equal_work, first = check_repetitions(units, problems)
    failed = errors + mismatched + sum(u.failed for _i, u in units if u is not None)
    for index in sorted(first):
        problems.extend(f"input {index}: {p}" for p in first[index].problems)
    if not any(u for _i, u in plain) or (args.trace and not any(u for _i, u in traced)):
        emit(f"perfbench: {args.workload}: no repetition completed")
        for problem in problems:
            emit(f"problem         : {problem}")
        return 1

    emit(f"workload        : {args.workload} (seed {args.seed}, trace {args.trace})")
    emit(f"cleared env     : {len(cleared)} registered REPRO_* variables")
    path = first[min(first)].path
    emit("default path    : " + ", ".join(f"{k}={v}" for k, v in sorted(path.items())))
    emit(
        f"repetitions     : {len(units)} units over {len(first)} input(s) "
        f"({len(plain)} untraced, {len(traced)} traced); {len(setups)} setups"
    )
    for index in sorted(first):
        unit = first[index]
        reps = sum(1 for i, _u in units if i == index)
        emit(
            f"input {index} digests: "
            + ", ".join(f"{k}={v}" for k, v in sorted(unit.digests.items()))
        )
        emit(
            f"input {index} work   : "
            + ", ".join(f"{k}={v}" for k, v in sorted(unit.work.items()))
            + f" (first of {reps} repetitions)"
        )

    if args.trace:
        metrics, traced_mean = per_layer(plain, traced, first, extra, tracer)
        print_layer_table(
            metrics, traced_mean, metrics["trace.untraced_wall_s"][0], emit
        )
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "traced_units": len(traced),
                    "spans": tracer.as_dict(),
                },
                indent=2,
            )
        )
        emit(f"spans written   : {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain, first, setups, rss, problems)
        walls = [u.wall for _i, u in plain if u is not None]
        emit(
            f"wall spread     : IQR/median {quartile_spread(walls):.3f} over "
            f"{len(walls)} units: " + " ".join(f"{w:.3f}" for w in walls)
        )
        emit(
            f"setup spread    : IQR/median {quartile_spread(setups):.3f} over "
            f"{len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups)
        )
    error_rate = failed / attempted if attempted else 1.0
    emit(f"error_rate      : {error_rate:.6f} ({failed} failed / {attempted} attempted)")
    for name, (value, unit) in metrics.items():
        emit(f"{name:<28}: {value:.6g} {unit}")
    for problem in problems:
        emit(f"problem         : {problem}")

    correct = equal_work and failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
