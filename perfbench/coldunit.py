"""One cold reproduction pipeline in a fresh interpreter.

The ``paper`` workload runs each census run, Table 1 grid and design
search through this script so that every in-process cache (the
believability reference cache, the run cache's memory layers, the
design LRU) starts empty, with ``REPRO_CACHE_DIR`` pointing at a fresh
directory.  A fresh process per unit also averages out what differs
between processes (memory layout), which a single long-lived process
would carry into every sample of a run.  The
process start is outside the timed window: the script times the
pipeline call itself and prints one JSON line.

    python3 perfbench/coldunit.py '<json spec>'
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from harness import HostReference, Spans, median, wrapped  # noqa: E402

#: Layer functions wrapped in spans in traced units, at the module
#: attribute their caller looks them up on.
TRACE_TARGETS = (
    ("repro.tuning.believability", "energy_trace", "tuning.probe"),
    ("repro.design.evaluate", "minimum_precision",
     "tuning.minimum_precision"),
    ("repro.design.optimizer", "evaluate_point", "design.evaluate_point"),
    ("repro.design.evaluate", "census_stats", "experiments.census_stats"),
    ("repro.design.evaluate", "evaluate_config", "arch.evaluate_config"),
    ("repro.arch.throughput", "generate_trace", "arch.generate_trace"),
)


class RunCacheAudit:
    """Counts run-cache lookups answered by an entry this unit did not
    compute.  In a cold unit the count must be zero: anything else is a
    result served from an earlier run (a stale or committed cache)."""

    def __init__(self) -> None:
        self.computed = set()
        self.stale_hits = 0
        self.lookups = 0

    def install(self):
        import repro.design.evaluate as evaluate
        import repro.experiments.runcache as runcache

        audit = self
        cached_json, census_stats = evaluate.cached_json, \
            evaluate.census_stats
        build = runcache.build
        missed = []

        def audited_cached_json(kind, params, compute, use_cache=True):
            key = json.dumps([kind, params], sort_keys=True)
            ran = []

            def counted_compute():
                ran.append(True)
                return compute()

            result = cached_json(kind, params, counted_compute, use_cache)
            audit._note(key, bool(ran))
            return result

        def audited_census_stats(*args, **kwargs):
            key = json.dumps([args, kwargs], sort_keys=True, default=str)
            missed.clear()
            result = census_stats(*args, **kwargs)
            audit._note(key, bool(missed))
            return result

        def audited_build(*args, **kwargs):
            missed.append(True)
            return build(*args, **kwargs)

        evaluate.cached_json = audited_cached_json
        evaluate.census_stats = audited_census_stats
        runcache.build = audited_build

    def _note(self, key: str, computed: bool) -> None:
        self.lookups += 1
        if computed:
            self.computed.add(key)
        elif key not in self.computed:
            self.stale_hits += 1


def census_run(spec: dict, spans: Spans, ref: HostReference) -> dict:
    """Census-on stepping with a ``MemoBank`` (the Table 4/5 instrument)."""
    from repro.experiments.table1 import PRESET_PRECISIONS
    from repro.fp.context import FPContext
    from repro.memo import MemoBank
    from repro.workloads import build

    ctx = FPContext(dict(PRESET_PRECISIONS[spec["scenario"]]),
                    memo=MemoBank(), census=True)
    world = build(spec["scenario"], ctx=ctx, scale=spec["scale"],
                  seed=spec["seed"])
    step_ms = []
    for i in range(spec["steps"]):
        ref.run()
        with spans.span("World.step.census", f"census:{i}"):
            start = time.perf_counter()
            world.step()
            step_ms.append((time.perf_counter() - start) * 1e3)
    ref.run()
    stats = ctx.stats.values()
    return {"step_ms": step_ms, "counts": {
        "total": sum(c.total for c in stats),
        "trivial": sum(c.extended_trivial for c in stats),
        "memo_lookups": sum(c.memo_lookups for c in stats),
        "memo_hits": sum(c.memo_hits for c in stats),
    }}


def table1_grid(spec: dict, spans: Spans, ref: HostReference) -> dict:
    from repro.tuning.believability import minimum_precision

    cells = []
    for cell in spec["cells"]:
        stats = {}
        label = f"{cell['scenario']}/{cell['phase']}/{cell['mode']}"
        ref.run()
        with spans.span("minimum_precision", label):
            start = time.perf_counter()
            bits = minimum_precision(
                cell["scenario"], phases=(cell["phase"],),
                mode=cell["mode"], steps=spec["steps"],
                scale=spec["scale"], seed=cell["seed"], stats=stats)
            seconds = time.perf_counter() - start
        cells.append({"cell": label, "bits": bits, "seconds": seconds,
                      "probes": stats.get("probes", 0)})
    ref.run()
    return {"cells": cells}


def design_search(spec: dict, spans: Spans, ref: HostReference) -> dict:
    from repro.design import Budgets, DesignQuery, DesignSpace, run_search

    space = DesignSpace(
        scenario=spec["scenario"], steps=spec["steps"],
        scale=spec["scale"], trace_length=spec["trace_length"],
        budgets=Budgets(area_mm2=spec["budget_area"],
                        energy_nj=spec["budget_energy"]),
        designs=tuple(spec["designs"]), sharing=tuple(spec["sharing"]),
        bits_lo=spec["bits"][0], bits_hi=spec["bits"][1]).validate()
    query = DesignQuery(space=space, generations=spec["generations"],
                        population=spec["population"], seed=spec["seed"])
    ref.run()
    with spans.span("run_search", f"design:{spec['seed']}"):
        start = time.perf_counter()
        result = run_search(query, workers=1, use_cache=False)
        seconds = time.perf_counter() - start
    ref.run()
    members = result.front.members()
    return {
        "seconds": seconds,
        "problems": result.front.validate(),
        "front_size": len(members),
        "all_verified": all(m.verified for m in members),
        "evaluations": result.stats.evaluations,
        "verifications": result.stats.verifications,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    spans = Spans()
    spans.enabled = bool(spec.get("trace"))
    audit = RunCacheAudit()
    audit.install()
    # The host reference runs between the timed calls, in this process:
    # see ``Telemetry.ref_ratios``.  Its first run pays numpy's first-call
    # costs and is dropped.
    ref = HostReference()
    ref.run()
    ref.samples.clear()
    run = {"census": census_run, "table1": table1_grid,
           "design": design_search}[spec["kind"]]
    if spans.enabled:
        with wrapped(spans, TRACE_TARGETS):
            out = run(spec, spans, ref)
    else:
        out = run(spec, spans, ref)
    out["ref_ms"] = median(ref.samples)
    out["runcache_stale_hits"] = audit.stale_hits
    out["runcache_lookups"] = audit.lookups
    out["spans"] = [s.to_dict() for s in spans.records]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
