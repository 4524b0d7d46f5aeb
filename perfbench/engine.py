"""``engine``: the in-process game loop, no sockets.

Lane A steps a fixed mix of full-scale scenarios at their tuned preset
precisions (census-free).  Lane B steps a ``GuardedSimulation`` under a
seeded ``FaultInjector``.  Lane C steps a K=8 mixed-family
``WorldBatch`` at one shared precision.  All time falls in ``fp``,
``physics`` and ``robustness``; a serving change must not move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from harness import Telemetry, derived_seed

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp.context import FPContext
from repro.physics.batch import WorldBatch
from repro.robustness import FaultInjector, GuardedSimulation, \
    SimulationAborted
from repro.serve.session import state_digest
from repro.workloads import build

#: One fleet shares one precision configuration.
FLEET_PRECISION = {"lcp": 9, "narrow": 9}
FLEET_FAMILIES = ("continuous", "deformable", "highspeed", "periodic",
                  "ragdoll", "breakable", "explosions", "everything")
GUARDED_PRECISION = {"narrow": 12, "lcp": 10}


@dataclass(frozen=True)
class EngineSize:
    mix: tuple = ("ragdoll", "periodic", "highspeed", "everything")
    mix_scale: float = 1.0
    mix_steps: int = 30
    guarded_scenario: str = "explosions"
    guarded_scale: float = 0.5
    guarded_steps: int = 30
    inject_rate: float = 3e-4
    fleet_scale: float = 0.5
    fleet_steps: int = 20
    kernel_shape: tuple = (4096, 12)
    kernel_iters: int = 20


FULL = EngineSize()
TINY = EngineSize(mix=("ragdoll", "periodic"), mix_scale=0.5,
                  mix_steps=3, guarded_scale=0.3, guarded_steps=12,
                  inject_rate=2e-3, fleet_scale=0.3, fleet_steps=3,
                  kernel_iters=3)


class _PhaseSpans:
    """World observer turning ``phase_done`` calls into child spans."""

    def __init__(self, tel: Telemetry) -> None:
        self.tel = tel

    def begin_step(self, world) -> None:
        pass

    def phase_done(self, name: str, seconds: float) -> None:
        self.tel.spans.add_closed(f"physics.{name}", seconds)

    def end_step(self, world, record) -> None:
        pass


#: The fault injector's seed sets the incident stream, so the guarded
#: lane cycles through this many seeded input sets; each set repeats,
#: which the incident-count check needs.
GUARDED_SETS = 3


class Bench:
    def __init__(self, tel: Telemetry, seed: int, size: EngineSize,
                 workdir: str, corrupt: bool = False) -> None:
        self.tel = tel
        self.seed = seed
        self.size = size
        self.corrupt = corrupt
        #: incident counts per guarded input set
        self.incidents = {}
        rng = np.random.default_rng(derived_seed(seed, "kernel"))
        self.kernel_arrays = [rng.standard_normal(size.kernel_shape)
                              .astype(np.float32) for _ in range(3)]

    def _seed(self, *labels) -> int:
        return derived_seed(self.seed, *labels)

    def setup(self) -> None:
        """Build one of everything the lanes build (the set-up cost)."""
        size = self.size
        for name in size.mix:
            self._mix_world(name)
        self._fleet_worlds()
        build(size.guarded_scenario, scale=size.guarded_scale,
              seed=self._seed("guarded", 0))

    def teardown(self) -> None:
        pass

    def lanes(self):
        return [self.mix_lane, self.guarded_lane, self.fleet_lane,
                self.kernel_lane]

    # -- lane A ----------------------------------------------------------
    def _mix_world(self, name: str):
        ctx = FPContext(dict(PRESET_PRECISIONS[name]), census=False)
        return build(name, ctx=ctx, scale=self.size.mix_scale,
                     seed=self._seed("mix", name))

    def mix_lane(self, round_index: int) -> None:
        tel, spans = self.tel, self.tel.spans
        for name in self.size.mix:
            world = self._mix_world(name)
            if spans.enabled:
                world.observer = _PhaseSpans(tel)
            for i in range(self.size.mix_steps):
                with spans.span("World.step", f"{name}:{i}"):
                    start = time.perf_counter()
                    world.step()
                    tel.sample("step", (time.perf_counter() - start) * 1e3)
                tel.op()
                if spans.enabled:
                    tel.count("physics.steps")
                    tel.count("physics.contacts", world.last_contact_count)
                    tel.count("physics.islands", world.island_count)
            n = world.bodies.count
            tel.check(np.isfinite(world.bodies.pos[:n]).all()
                      and world.step_count == self.size.mix_steps,
                      f"{name}: non-finite state or missed steps")

    # -- lane B ----------------------------------------------------------
    def guarded_lane(self, round_index: int) -> None:
        tel, spans, size = self.tel, self.tel.spans, self.size
        ctx = FPContext(dict(GUARDED_PRECISION), census=False)
        seed = self._seed("guarded", round_index % GUARDED_SETS)
        world = build(size.guarded_scenario, ctx=ctx,
                      scale=size.guarded_scale, seed=seed)
        sim = GuardedSimulation(world, injector=FaultInjector(
            rate=size.inject_rate, seed=seed))
        try:
            for i in range(size.guarded_steps):
                before = sim.recoveries
                with spans.span("GuardedSimulation.step", f"guarded:{i}"):
                    start = time.perf_counter()
                    sim.step()
                    ms = (time.perf_counter() - start) * 1e3
                tel.sample("guarded", ms)
                if sim.recoveries > before:
                    tel.sample("recovery", ms)
                tel.op()
        except SimulationAborted as exc:
            tel.op(False, f"guarded run aborted: {exc}")
            return
        report = sim.health_report()
        counts = (sim.injector.injected, sim.detections, sim.recoveries)
        first = self.incidents.setdefault(round_index % GUARDED_SETS,
                                          counts)
        tel.check(report.final_state_finite, "guarded run ended non-finite")
        tel.check(counts == first, f"incident counts {counts} != "
                                   f"{first} earlier for the same seed")
        # Report the first input set's counts: the same for a seed
        # however many rounds the run completes.
        injected, detections, recoveries = self.incidents[0]
        tel.counts["robustness.injected"] = injected
        tel.counts["robustness.detections"] = detections
        tel.counts["robustness.recoveries"] = recoveries

    # -- lane C ----------------------------------------------------------
    def _fleet_worlds(self):
        return [build(name, ctx=FPContext(dict(FLEET_PRECISION),
                                          census=False),
                      scale=self.size.fleet_scale,
                      seed=self._seed("fleet", name))
                for name in FLEET_FAMILIES]

    def _solo_digest(self, world) -> str:
        """One fleet member stepped alone: the independent path."""
        tel, spans = self.tel, self.tel.spans
        for _ in range(self.size.fleet_steps):
            with spans.span("World.step.solo"):
                start = time.perf_counter()
                world.step()
                tel.sample("fleet.single", (time.perf_counter() - start) * 1e3)
        return state_digest(world)

    def fleet_lane(self, round_index: int) -> None:
        tel, spans = self.tel, self.tel.spans
        batch = WorldBatch(self._fleet_worlds())
        for i in range(self.size.fleet_steps):
            with spans.span("WorldBatch.step", f"fleet:{i}"):
                start = time.perf_counter()
                batch.step()
                tel.sample("fleet", (time.perf_counter() - start) * 1e3)
            tel.op()
        digests = [state_digest(world) for world in batch.worlds]
        if self.corrupt:
            digests = ["0" * len(d) for d in digests]
        # Untraced rounds check one member each, in rotation, against
        # the same world stepped alone; traced rounds check all eight
        # (their solo steps give physics.single_ms_per_world).
        members = (range(len(FLEET_FAMILIES)) if spans.enabled
                   else [round_index % len(FLEET_FAMILIES)])
        solo = self._fleet_worlds()
        for k in members:
            tel.check(digests[k] == self._solo_digest(solo[k]),
                      f"fleet member {k} ({FLEET_FAMILIES[k]}) digest "
                      f"differs from the same world stepped alone")

    # -- fp kernel (traced rounds only: a per-layer metric) ---------------
    def kernel_lane(self, round_index: int) -> None:
        tel = self.tel
        if not tel.spans.enabled:
            return
        a, b, c = self.kernel_arrays
        ctx = FPContext({"lcp": 9}, census=False)
        ctx.phase = "lcp"
        iters = self.size.kernel_iters
        for label, fn in (("fp.binop_pair", lambda: ctx.add(ctx.mul(a, b),
                                                             c)),
                          ("fp.axpy", lambda: ctx.axpy(a, b, c))):
            with tel.spans.span(label):
                start = time.perf_counter()
                for _ in range(iters):
                    fn()
                tel.sample(label, (time.perf_counter() - start) * 1e3
                           / iters)
