"""``paper``: the reproduction pipelines, run cold.

Lane A steps with the census and a ``MemoBank`` on (the Table 4/5
instrument), which today runs the op-for-op loops.  Lane B runs a fixed
grid of Table 1 cells, each a cold ``minimum_precision`` search.  Lane C
runs seeded ``run_search`` calls (``workers=1``, ``use_cache=False``).
Every lane execution runs in a fresh interpreter (``coldunit.py``), so
no cache survives from one unit to the next.
This is the only workload that exercises ``tuning``, ``design``,
``arch`` and the run cache; ``engine`` is its census-free control.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass

from harness import CheckFailed, Telemetry, derived_seed

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp.context import FPContext
from repro.memo import MemoBank
from repro.workloads import build

HERE = os.path.dirname(os.path.abspath(__file__))
CENSUS_SCENARIO = "ragdoll"

#: (scenario, phase, rounding mode) — the Table 1 cells timed cold.
GRID = (("deformable", "lcp", "jam"), ("deformable", "narrow", "rn"),
        ("periodic", "narrow", "jam"), ("highspeed", "lcp", "jam"))


@dataclass(frozen=True)
class PaperSize:
    census_scale: float = 0.5
    census_steps: int = 10
    grid: tuple = GRID
    cell_steps: int = 20
    cell_scale: float = 0.5
    design: tuple = (("scenario", "continuous"), ("steps", 16),
                     ("scale", 0.5), ("trace_length", 2000),
                     ("budget_area", 4.0), ("budget_energy", 1.0),
                     ("designs", ["conjoin", "mini_fpu_2"]),
                     ("sharing", [1, 2, 4, 8]), ("bits", [9, 9]),
                     ("generations", 1), ("population", 48))
    #: design searches per round (one cold interpreter each)
    searches: int = 2
    unit_timeout: float = 150.0


FULL = PaperSize()
TINY = PaperSize(census_scale=0.5, census_steps=2,
                 grid=(("deformable", "narrow", "rn"),), cell_steps=6,
                 cell_scale=0.3,
                 design=(("scenario", "continuous"), ("steps", 6),
                         ("scale", 0.3), ("trace_length", 500),
                         ("budget_area", 4.0), ("budget_energy", 1.0),
                         ("designs", ["conjoin"]), ("sharing", [2]),
                         ("bits", [9, 9]), ("generations", 1),
                         ("population", 2)), searches=1)


class Bench:
    def __init__(self, tel: Telemetry, seed: int, size: PaperSize,
                 workdir: str, corrupt: bool = False) -> None:
        self.tel = tel
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.corrupt = corrupt
        self.census_seed = derived_seed(seed, "census")
        self.cells = [{"scenario": s, "phase": p, "mode": m,
                       "seed": derived_seed(seed, "cell", s, p, m)}
                      for s, p, m in size.grid]
        self.census_first = None
        self.bits_first = None

    def setup(self) -> None:
        self._census_world()

    def teardown(self) -> None:
        pass

    def lanes(self):
        return [self.census_lane, self.table1_lane, self.design_lane]

    # -- lane A ----------------------------------------------------------
    def _census_world(self):
        ctx = FPContext(dict(PRESET_PRECISIONS[CENSUS_SCENARIO]),
                        memo=MemoBank(), census=True)
        return build(CENSUS_SCENARIO, ctx=ctx, scale=self.size.census_scale,
                     seed=self.census_seed)

    def census_lane(self, round_index: int) -> None:
        tel = self.tel
        with tel.spans.span("census.run", f"census:{round_index}"):
            out = self._cold({"kind": "census", "scenario": CENSUS_SCENARIO,
                              "scale": self.size.census_scale,
                              "seed": self.census_seed,
                              "steps": self.size.census_steps})
        for ms in out["step_ms"]:
            tel.sample("census", ms, out["ref_ms"])
            tel.op()
        counts = out["counts"]
        if self.corrupt:
            counts["memo_hits"] += round_index + 1
        if self.census_first is None:
            self.census_first = counts
        tel.check(counts == self.census_first,
                  f"census/memo counts {counts} changed from the first "
                  f"round {self.census_first} on identical input")
        steps = self.size.census_steps
        tel.counts.update({
            "fp.census_ops_per_step": counts["total"] / steps,
            "fp.trivial_ratio": counts["trivial"] / max(counts["total"], 1),
            "memo.lookups_per_step": counts["memo_lookups"] / steps,
            "memo.hit_ratio": (counts["memo_hits"]
                               / max(counts["memo_lookups"], 1)),
        })

    # -- cold units --------------------------------------------------------
    def _cold(self, spec: dict) -> dict:
        """Run one pipeline in a fresh interpreter with an empty cache
        directory; the child's spans join the current span."""
        spec = dict(spec, trace=self.tel.spans.enabled)
        cache = tempfile.mkdtemp(prefix="cache", dir=self.workdir)
        env = dict(os.environ, REPRO_CACHE_DIR=cache)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "coldunit.py"),
             json.dumps(spec)],
            env=env, capture_output=True, text=True,
            timeout=self.size.unit_timeout)
        if proc.returncode != 0:
            raise CheckFailed(f"cold {spec['kind']} unit failed:\n"
                              f"{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.tel.spans.adopt(out.pop("spans"))
        stale = out["runcache_stale_hits"]
        self.tel.count("experiments.runcache_hits", stale)
        self.tel.count("experiments.runcache_lookups",
                       out["runcache_lookups"])
        self.tel.check(stale == 0, f"{stale} run-cache hit(s) in a cold "
                                   f"{spec['kind']} unit")
        return out

    # -- lane B ------------------------------------------------------------
    def table1_lane(self, round_index: int) -> None:
        tel = self.tel
        with tel.spans.span("table1.grid", f"grid:{round_index}"):
            out = self._cold({"kind": "table1", "cells": self.cells,
                              "steps": self.size.cell_steps,
                              "scale": self.size.cell_scale})
        cells = out["cells"]
        for cell in cells:
            tel.op()
            tel.count("tuning.probes", cell["probes"])
            tel.count("tuning.cells")
        tel.sample("table1_cell",
                   1e3 * sum(c["seconds"] for c in cells) / len(cells),
                   out["ref_ms"])
        bits = [c["bits"] for c in cells]
        if self.bits_first is None:
            self.bits_first = bits
        tel.check(bits == self.bits_first,
                  f"Table 1 bits {bits} differ from the first round "
                  f"{self.bits_first} for the same cells")

    # -- lane C ------------------------------------------------------------
    def design_lane(self, round_index: int) -> None:
        tel = self.tel
        for k in range(self.size.searches):
            seed = derived_seed(self.seed, "design", round_index, k)
            with tel.spans.span("design.search", f"design:{seed}"):
                out = self._cold(dict(self.size.design, kind="design",
                                      seed=seed))
            tel.op()
            tel.sample("design", out["seconds"] * 1e3, out["ref_ms"])
            tel.count("design.evaluations", out["evaluations"])
            tel.count("design.verifications", out["verifications"])
            tel.count("design.searches")
            tel.check(out["problems"] == [] and out["all_verified"]
                      and out["front_size"] > 0,
                      f"design front invalid: {out['problems']}, "
                      f"all verified={out['all_verified']}")
