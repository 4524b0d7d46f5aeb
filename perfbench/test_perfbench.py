"""The benchmark's own tests (tiny inputs; about a minute in total).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)


def _cli(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = _cli(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: spec["unit"] for name, spec in
            result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(spec["value"], float)
               for spec in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in DECLARED["end_to_end"]] == \
        list(run.END_TO_END)


def test_seed_changes_inputs_not_the_metric_set():
    import engine
    import paper
    import served

    tel = run.Telemetry("engine")
    a = engine.Bench(tel, 1, engine.TINY, "")
    b = engine.Bench(tel, 2, engine.TINY, "")
    # continuous is the scenario whose builder places bodies from the
    # seed; the fault injector and the design search take it directly.
    world_a = a._fleet_worlds()[engine.FLEET_FAMILIES.index("continuous")]
    world_b = b._fleet_worlds()[engine.FLEET_FAMILIES.index("continuous")]
    assert (world_a.bodies.pos[:world_a.bodies.count].tobytes()
            != world_b.bodies.pos[:world_b.bodies.count].tobytes())
    assert served.Bench(tel, 1, served.TINY, "").session_seeds != \
        served.Bench(tel, 2, served.TINY, "").session_seeds
    assert paper.Bench(tel, 1, paper.TINY, "").cells != \
        paper.Bench(tel, 2, paper.TINY, "").cells
    first, second = _cli("engine", 1, 0), _cli("engine", 2, 0)
    assert set(first["metrics"]) == set(second["metrics"])
    assert first["metrics"] != second["metrics"]


@pytest.mark.parametrize("workload", ("engine", "served"))
def test_corrupted_digest_is_a_failed_operation(workload):
    with tempfile.TemporaryDirectory(dir=ROOT) as workdir:
        tel = run.run_workload(workload, 5, 0.0, False,
                               os.path.relpath(workdir, ROOT)
                               if workload == "served" else workdir,
                               tiny=True, corrupt=True)
    assert tel.failed > 0
    assert any("digest" in error for error in tel.errors)


def test_changed_census_counts_are_a_failed_operation():
    with tempfile.TemporaryDirectory() as workdir:
        tel = run.run_workload("paper", 5, 0.0, False, workdir, tiny=True,
                               corrupt=True)
    assert any("census/memo counts" in error for error in tel.errors)


def test_self_time_subtracts_children():
    from harness import Span, self_times

    spans = [Span(0, None, "root", "k", 0.0, 10.0),
             Span(1, 0, "child", "k", 1.0, 4.0),
             Span(2, 0, "child", "k", 3.0, 6.0),
             Span(3, 1, "grandchild", "k", 1.5, 2.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(5.0)   # 10 minus the union [1, 6]
    assert own[1] == pytest.approx(2.5)
    assert own[3] == pytest.approx(0.5)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_run_leaves_no_process_behind():
    # served spawns a shard, and with it multiprocessing's resource
    # tracker; both must have ended when the run exits.
    proc = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "served", "--seed", "1", "--seconds", "0",
         "--trace", "0", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True)
    proc.communicate(timeout=170)
    assert proc.returncode == 0
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.getsid(int(pid)) == proc.pid:
                left.append(pid)
        except OSError:
            pass
    assert left == []


def test_samples_are_divided_by_the_reference_next_to_them():
    tel = run.Telemetry("engine")
    tel.host.samples = [1.0] * 12
    tel.sample("a", 10.0)
    tel.sample("b", 6.0, ref_ms=3.0)  # taken in a child, with its own
    tel.host.samples += [1.0] * 12
    tel.rounds = 1
    tel.host.samples += [2.0] * 12
    tel.sample("a", 10.0)
    tel.host.samples += [2.0] * 12
    # each "a" sees the 12 references either side of it
    assert tel.ref_ratios("a") == {0: [10.0], 1: [5.0]}
    assert tel.ref_ratios("b") == {0: [2.0]}


def test_exits_nonzero_without_the_program():
    with tempfile.TemporaryDirectory() as bare:
        os.makedirs(os.path.join(bare, "perfbench"))
        for name in os.listdir(HERE):
            if name.endswith(".py"):
                with open(os.path.join(HERE, name)) as src, \
                        open(os.path.join(bare, "perfbench", name),
                             "w") as dst:
                    dst.write(src.read())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "engine",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
