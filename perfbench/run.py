"""Layered benchmark for the repro stack: ``engine``, ``served``, ``paper``.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The lines before it name the same numbers in each
workload's own vocabulary.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from harness import (CheckFailed, Telemetry, median, peak_rss_mb,  # noqa
                     round_tail, run_rounds, self_times)

WORKLOADS = ("engine", "served", "paper")

#: Rounds every run completes whatever ``--seconds`` says: the
#: repeat checks (incident counts, Table 1 bits, census counts) need two.
MIN_ROUNDS = 2
#: Set-ups per run; ``setup_s`` is the imports plus their median.
SETUP_REPEATS = 3
#: Fresh interpreters timed importing the workload per run; their median
#: is the import part of ``setup_s``.
IMPORT_REPEATS = 5

#: Where traced runs leave their spans (relative to the working dir).
TRACE_DIR = ".bench_out"
#: Scratch space (cache dirs, shard runtime dirs); removed at exit.
WORK_ROOT = ".bench_tmp"

END_TO_END = ("lane_a_p50_ref", "lane_a_p95_ref", "lane_b_p50_ref",
              "lane_c_p50_ref", "setup_s", "peak_rss_mb")
UNITS = {"lane_a_p50_ref": "ref", "lane_a_p95_ref": "ref",
         "lane_b_p50_ref": "ref", "lane_c_p50_ref": "ref", "setup_s": "s",
         "peak_rss_mb": "MB"}

#: Per workload: the sample names of lanes A, B and C, and how many
#: world-steps one lane C sample advances.
LANES = {
    "engine": ("step", "guarded", "fleet", 8),
    "served": ("served", "gateway", "pair", 2),
    "paper": ("census", "table1_cell", "design", 1),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, tiny: bool = False,
                 corrupt: bool = False) -> Telemetry:
    """Set up (several times; the median is ``setup_s``), then run the
    workload's lanes round-robin for ``seconds``."""
    tel = Telemetry(workload, trace=trace)
    module = importlib.import_module(workload)
    tel.counts["setup.import_s"] = median(
        [import_seconds(workload)
         for _ in range(1 if tiny else IMPORT_REPEATS)])
    size = module.TINY if tiny else module.FULL
    bench = None
    try:
        for _ in range(SETUP_REPEATS if not tiny else 1):
            if bench is not None:
                bench.teardown()
            start = time.perf_counter()
            bench = module.Bench(tel, seed, size, workdir, corrupt)
            bench.setup()
            tel.setup.append(time.perf_counter() - start)
        lanes = [_failures_counted(tel, lane) for lane in bench.lanes()]
        run_rounds(tel, lanes, seconds, MIN_ROUNDS, trace)
    finally:
        if bench is not None:
            bench.teardown()
    tel.bench = bench
    return tel


def import_seconds(workload: str) -> float:
    """Seconds a fresh interpreter takes to import the workload (and
    with it the program), as this process did once on its own start."""
    code = ("import sys, time\n"
            "start = time.perf_counter()\n"
            f"sys.path[:0] = [{SRC!r}, {HERE!r}]\n"
            f"import {workload}\n"
            "print(time.perf_counter() - start)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60.0)
    if proc.returncode != 0:
        raise CheckFailed(f"importing {workload} failed:\n"
                          f"{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def stop_children() -> None:
    """Stop every process the run started and wait for each to end.

    Shards are stopped by their gateway; any still alive here is ended.
    Spawning them also started multiprocessing's resource tracker, which
    would otherwise outlive the run by a moment, so it is stopped too.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(10.0)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _failures_counted(tel: Telemetry, lane):
    """A lane whose unexpected exception counts as one failed operation
    instead of ending the run."""

    def run(round_index: int) -> None:
        try:
            lane(round_index)
        except CheckFailed as exc:
            tel.op(False, str(exc))
        except Exception:  # noqa: BLE001 - reported as a failed operation
            tel.op(False, traceback.format_exc(limit=4))

    return run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _require(value: float, name: str) -> float:
    if value != value:  # NaN: the lane behind it took no samples
        raise CheckFailed(f"metric {name} has no samples")
    return float(value)


def end_to_end(tel: Telemetry) -> dict:
    a, b, c, per = LANES[tel.workload]
    ratios = {lane: tel.ref_ratios(lane) for lane in (a, b, c)}

    def p50(lane):
        return median([v for vs in ratios[lane].values() for v in vs])

    values = {
        "lane_a_p50_ref": p50(a),
        "lane_a_p95_ref": round_tail(ratios[a], 95),
        "lane_b_p50_ref": p50(b),
        "lane_c_p50_ref": p50(c) / per,
        "setup_s": tel.counts["setup.import_s"] + median(tel.setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: _require(values[name], name) for name in END_TO_END}


def named_lines(tel: Telemetry, metrics: dict) -> list:
    """The end-to-end numbers in plain units, not divided by the host
    reference, under the names each workload uses."""
    a, b, c, per = LANES[tel.workload]
    s = tel.samples
    a50, a95 = median(s.get(a, [])), tel.tail(a, 95)
    b50, c50 = median(s.get(b, [])), median(s.get(c, []))
    rows = {
        "engine": [("step_ms_p50", a50, "ms"), ("step_ms_p95", a95, "ms"),
                   ("fleet_steps_per_s", 1e3 * per / c50, "1/s"),
                   ("guarded_steps_per_s", 1e3 / b50, "1/s")],
        "served": [("served_step_ms_p50", a50, "ms"),
                   ("served_step_ms_p95", a95, "ms"),
                   ("gateway_step_ms_p50", b50, "ms"),
                   ("pair_steps_per_s", 1e3 * per / c50, "1/s")],
        "paper": [("census_steps_per_s", 1e3 / a50, "1/s"),
                  ("census_step_ms_p95", a95, "ms"),
                  ("table1_cell_s", b50 / 1e3, "s"),
                  ("design_s", c50 / 1e3, "s")],
    }[tel.workload]
    rows += [("samples", len(tel.samples.get(a, [])), "count"),
             ("host_ref_ms", median(tel.host.samples), "ms"),
             ("setup_s", metrics["setup_s"], "s"),
             ("peak_rss_mb", metrics["peak_rss_mb"], "MB")]
    w = tel.workload
    return [f"{w} {name} = {value:.6g} {unit}" for name, value, unit in rows]


def per_layer(main: Telemetry, probes: list) -> dict:
    """Per-layer metrics from the traced rounds of ``main`` plus one
    small traced round of each other workload, so every layer is
    measured in every traced run."""
    tels = [main] + probes
    spans, selfs = [], []
    for tel in tels:
        own = self_times(tel.spans.records)
        spans += tel.spans.records
        selfs += [own[span.id] for span in tel.spans.records]

    def traced(name):
        return [v for tel in tels for v in tel.traced.get(name, [])]

    def everything(name):
        return [v for tel in tels for v in tel.all_samples(name)]

    def count(name):
        for tel in tels:
            if name in tel.counts:
                return tel.counts[name]
        return float("nan")

    def span_ms(name):
        return [1e3 * (sp.end - sp.start) for sp in spans if sp.name == name]

    steps = sum(1 for sp in spans if sp.name == "World.step")

    def phase_ms(phase):
        total = sum(own for sp, own in zip(spans, selfs)
                    if sp.name == f"physics.{phase}")
        return 1e3 * total / steps if steps else float("nan")

    served = median(everything("served"))
    session = median(traced("serve.session_step"))
    server = [v for tel in tels if tel.workload == "served"
              for v in tel.bench.server_request_ms()]
    recovery = traced("recovery") or everything("recovery")
    pair_rounds = count("serve.pair_requests") / 2
    a = LANES[main.workload][0]
    untraced_a, traced_a = main.samples.get(a, []), main.traced.get(a, [])
    values = {
        "fp.binop_pairs_per_s": 1e3 / median(traced("fp.binop_pair")),
        "fp.axpy_per_s": 1e3 / median(traced("fp.axpy")),
        "fp.census_ops_per_step": count("fp.census_ops_per_step"),
        "fp.trivial_ratio": count("fp.trivial_ratio"),
        "memo.hit_ratio": count("memo.hit_ratio"),
        "memo.lookups_per_step": count("memo.lookups_per_step"),
        "physics.broad_ms": phase_ms("broad"),
        "physics.narrow_ms": phase_ms("narrow"),
        "physics.islands_ms": phase_ms("islands"),
        "physics.lcp_ms": phase_ms("lcp"),
        "physics.integrate_ms": phase_ms("integrate"),
        "physics.contacts_per_step": (count("physics.contacts")
                                      / count("physics.steps")),
        "physics.islands_per_step": (count("physics.islands")
                                     / count("physics.steps")),
        "physics.batch_ms_per_world": _mean(traced("fleet")) / 8.0,
        "physics.single_ms_per_world": _mean(traced("fleet.single")),
        "robustness.injected": count("robustness.injected"),
        "robustness.detections": count("robustness.detections"),
        "robustness.recoveries": count("robustness.recoveries"),
        "robustness.recovery_ms": median(recovery),
        "serve.ping_ms_p50": median(traced("serve.ping")),
        "serve.session_step_ms_p50": session,
        "serve.overhead_ms": served - session,
        "serve.server_request_ms_p50": median(server),
        "serve.create_ms_p50": median(everything("served.create")),
        "serve.batches": count("serve.batches") / pair_rounds,
        "serve.fleet_sessions": count("serve.fleet_sessions") / pair_rounds,
        "serve.coalesce_ratio": (count("serve.fleet_sessions")
                                 / count("serve.pair_requests")),
        "shard.ping_ms_p50": median(traced("shard.ping")),
        "shard.hop_ms": median(everything("gateway")) - served,
        "shard.spawn_s": median(everything("shard.spawn")) / 1e3,
        "tuning.probes_per_cell": (count("tuning.probes")
                                   / count("tuning.cells")),
        "tuning.probe_ms": median(span_ms("tuning.probe")),
        "design.evaluations": (count("design.evaluations")
                               / count("design.searches")),
        "design.verifications": (count("design.verifications")
                                 / count("design.searches")),
        "design.eval_ms": median(span_ms("design.evaluate_point")),
        "arch.trace_ms": median(span_ms("arch.generate_trace")),
        "arch.evaluate_ms": median(span_ms("arch.evaluate_config")),
        "experiments.runcache_hits": count("experiments.runcache_hits"),
        "obs.trace_overhead_pct": 100.0 * (median(traced_a)
                                           / median(untraced_a) - 1.0),
        "host.ref_ms": median(main.host.samples),
    }
    return {name: _require(value, name) for name, value in values.items()}


LAYER_UNITS = {
    "fp.binop_pairs_per_s": "1/s", "fp.axpy_per_s": "1/s",
    "fp.census_ops_per_step": "count", "fp.trivial_ratio": "ratio",
    "memo.hit_ratio": "ratio", "memo.lookups_per_step": "count",
    "physics.contacts_per_step": "count",
    "physics.islands_per_step": "count",
    "robustness.injected": "count", "robustness.detections": "count",
    "robustness.recoveries": "count", "serve.batches": "count",
    "serve.fleet_sessions": "count", "serve.coalesce_ratio": "ratio",
    "shard.spawn_s": "s", "tuning.probes_per_cell": "count",
    "design.evaluations": "count", "design.verifications": "count",
    "experiments.runcache_hits": "count",
    "obs.trace_overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "ms")


def _mean(values) -> float:
    return sum(values) / len(values) if values else float("nan")


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str, tiny: bool = False,
            corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object and its lines."""
    main = run_workload(workload, seed, seconds, trace, workdir, tiny,
                        corrupt)
    tels = [main]
    if trace:
        for other in WORKLOADS:
            if other != workload:
                tels.append(run_workload(other, seed, 0.0, True, workdir,
                                         tiny=True))
        metrics = per_layer(main, tels[1:])
        units = {name: layer_unit(name) for name in metrics}
        lines = [f"{workload} {name} = {value:.6g} {units[name]}"
                 for name, value in metrics.items()]
        _write_spans(workload, seed, tels)
    else:
        metrics = end_to_end(main)
        units = UNITS
        lines = named_lines(main, metrics)
    attempted = sum(t.attempted for t in tels)
    failed = sum(t.failed for t in tels)
    errors = [e for t in tels for e in t.errors]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"result": result, "lines": lines, "errors": errors,
            "rounds": main.rounds}


def _write_spans(workload: str, seed: int, tels) -> None:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w") as handle:
        for tel in tels:
            for span in tel.spans.records:
                handle.write(json.dumps(dict(span.to_dict(),
                                             workload=tel.workload)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smallest inputs (the tests)")
    args = parser.parse_args(argv)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(dir=WORK_ROOT))
    # Shard processes inherit stdout; while they live, anything printed
    # goes to stderr so the result stays the last stdout line.
    sys.stdout.flush()
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), workdir, tiny=args.size == "tiny")
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        sys.stdout.flush()
        os.dup2(stdout, 1)
        os.close(stdout)
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    for line in out["lines"]:
        print(line)
    print(f"{args.workload} rounds = {out['rounds']}")
    for error in out["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
