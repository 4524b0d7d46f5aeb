"""Measurement plumbing shared by the three workloads.

Nothing here imports the program under test: timing samples, the span
recorder, module-attribute wrapping for traced runs, the host-speed
reference unit and the round-robin scheduler that spreads every lane's
samples across the whole run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty sample."""
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def round_tail(rounds: Dict[int, Sequence[float]], q: float) -> float:
    """Median over rounds of each round's ``q``-th percentile.

    A burst of host noise lands in the tail of whichever round it hits;
    the median over rounds leaves it out, where a percentile over the
    whole run's samples would move with it.
    """
    return median([percentile(v, q) for v in rounds.values()])


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckFailed(Exception):
    """A correctness check found a wrong output."""


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    key: Optional[str]
    start: float
    end: float = 0.0

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "key": self.key, "start": self.start, "end": self.end}


class Spans:
    """In-memory span recorder around calls into the program's layers.

    Disabled, :meth:`span` hands back one shared null context, so an
    untraced round pays a method call per layer call and nothing else.
    Spans are kept in memory and written once, by the caller, when the
    run ends.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[Span] = []
        self._stack: List[int] = []
        self._null = contextlib.nullcontext()

    def span(self, name: str, key: Optional[str] = None):
        if not self.enabled:
            return self._null
        return self._open(name, key)

    @contextlib.contextmanager
    def _open(self, name: str, key: Optional[str]):
        parent = self._stack[-1] if self._stack else None
        if key is None and parent is not None:
            key = self.records[parent].key
        record = Span(len(self.records), parent, name, key,
                      time.perf_counter())
        self.records.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add_closed(self, name: str, seconds: float) -> None:
        """A child span that just ended after ``seconds`` (hook input)."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        end = time.perf_counter()
        key = self.records[parent].key if parent is not None else None
        self.records.append(Span(len(self.records), parent, name, key,
                                 end - seconds, end))

    def adopt(self, spans: List[dict]) -> None:
        """Graft spans recorded in a child process under the open span."""
        if not self.enabled:
            return
        base = len(self.records)
        parent = self._stack[-1] if self._stack else None
        for raw in spans:
            self.records.append(Span(
                base + raw["id"],
                base + raw["parent"] if raw["parent"] is not None
                else parent,
                raw["name"], raw["key"], raw["start"], raw["end"]))

    @contextlib.contextmanager
    def tracing(self, on: bool):
        previous, self.enabled = self.enabled, on
        try:
            yield
        finally:
            self.enabled = previous


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of it its children cover (seconds)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


@contextlib.contextmanager
def wrapped(spans: Spans, targets: Sequence[tuple]):
    """Wrap ``module.attr`` functions in spans for the duration.

    ``targets`` holds ``(module_name, attribute, span_name)``.  Callers
    that bound a layer function by name (``from .x import f``) are
    reached by wrapping the attribute on the *calling* module.
    """
    saved = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)

            def traced(*args, __fn=original, __name=name, **kwargs):
                with spans.span(__name):
                    return __fn(*args, **kwargs)

            setattr(module, attr, traced)
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# Host-speed reference
# ----------------------------------------------------------------------
class HostReference:
    """A fixed numpy + pure-Python unit that calls no repository code.

    The unit does the kind of work the program does: many numpy calls
    on small arrays, where call overhead dominates, plus interpreter
    loops over Python objects.  It runs a few times before and after
    every lane execution, so over a run its median tracks how fast the
    host was while the lanes ran.  The ``*_ref`` end-to-end metrics
    divide by it explicitly; ``host.ref_ms`` reports it on its own.
    """

    REPEATS = 3

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._small = rng.standard_normal((24, 3)).astype(np.float32)
        self._mid = rng.standard_normal(4096).astype(np.float32)
        self.samples: List[float] = []

    def _unit(self) -> float:
        small, mid = self._small, self._mid
        total = 0.0
        for i in range(120):
            v = small * np.float32(1.0001) + np.float32(0.5)
            v = np.minimum(v, np.float32(3.0))
            total += float(np.einsum("ij,ij->", v, small))
            total += float(np.abs(mid[i:i + 512]).max())
        table = {}
        for i in range(3000):
            key = (i * 7919) % 257
            table[key] = table.get(key, 0) + i
        return total + sum(sorted(table.values())[-5:])

    def run(self) -> None:
        for _ in range(self.REPEATS):
            start = time.perf_counter()
            self._unit()
            self.samples.append((time.perf_counter() - start) * 1000.0)


# ----------------------------------------------------------------------
# Telemetry and the round-robin schedule
# ----------------------------------------------------------------------
#: Host references either side of an in-process sample that normalize
#: it: ``HostReference.REPEATS`` before and after each of four lanes
#: is one round of ``engine`` or ``served``.
REF_WINDOW = 12

@dataclass
class Telemetry:
    """Everything one workload measured."""

    workload: str
    #: traced run: rounds alternate traced and untraced
    trace: bool = False
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    #: samples taken in traced rounds only, for the overhead comparison
    traced: Dict[str, List[float]] = field(default_factory=dict)
    #: untraced samples grouped by round: {name: {round: [ms, ...]}}
    by_round: Dict[str, Dict[int, List[float]]] = field(
        default_factory=dict)
    #: child-process host references, parallel to ``by_round``
    unit_refs: Dict[str, Dict[int, List[float]]] = field(
        default_factory=dict)
    #: for samples taken here: how many host references had been taken
    #: when each was, parallel to ``by_round``
    host_marks: Dict[str, Dict[int, List[int]]] = field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    rounds: int = 0
    spans: Spans = field(default_factory=Spans)
    host: HostReference = field(default_factory=HostReference)
    #: the workload object that ran (per-layer metrics read from it)
    bench: object = None

    def sample(self, name: str, ms: float,
               ref_ms: Optional[float] = None) -> None:
        """One timing; ``ref_ms`` is the host reference measured by the
        child process that took it, if a child took it."""
        target = self.traced if self.spans.enabled else self.samples
        target.setdefault(name, []).append(ms)
        if not self.spans.enabled:
            rounds = self.by_round.setdefault(name, {})
            rounds.setdefault(self.rounds, []).append(ms)
            if ref_ms is not None:
                refs = self.unit_refs.setdefault(name, {})
                refs.setdefault(self.rounds, []).append(ref_ms)
            else:
                marks = self.host_marks.setdefault(name, {})
                marks.setdefault(self.rounds, []).append(
                    len(self.host.samples))

    def tail(self, name: str, q: float) -> float:
        return round_tail(self.by_round.get(name, {}), q)

    def ref_ratios(self, name: str) -> Dict[int, List[float]]:
        """Untraced samples of ``name`` per round, each divided by a host
        reference.

        On a shared 2-vCPU VM, host speed swings by tens of percent
        within seconds and drifts over minutes, so each sample is
        divided by references taken close to it.  A sample taken in this
        process is divided by the median of the ``REF_WINDOW`` references
        either side of the point it was taken at: about one round of
        lanes, centred on the sample's lane.  A sample taken in a child
        process is divided by the reference that child measured between
        its own timed calls: a fresh process lands on a fast or a slow
        share of the host for its whole life, and only a reference taken
        inside it sees which.
        """
        rounds = self.by_round.get(name, {})
        refs = self.unit_refs.get(name)
        if refs is None:
            host, k, near = self.host.samples, REF_WINDOW, {}
            for i in {i for marks in self.host_marks.get(name, {}).values()
                      for i in marks}:
                near[i] = median(host[max(0, i - k):i + k])
            refs = {r: [near[i] for i in marks]
                    for r, marks in self.host_marks.get(name, {}).items()}
        return {r: [ms / ref for ms, ref in zip(v, refs[r])]
                for r, v in rounds.items()}

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def op(self, ok: bool = True, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(why)

    def check(self, ok: bool, why: str) -> None:
        """One correctness check, counted as an operation."""
        self.op(bool(ok), why)

    def all_samples(self, name: str) -> List[float]:
        return self.samples.get(name, []) + self.traced.get(name, [])


def run_rounds(tel: Telemetry, lanes: Sequence[Callable[[int], None]],
               seconds: float, min_rounds: int, trace: bool) -> None:
    """Run every lane once per round, round after round, until the next
    round would overrun ``seconds``.

    Whole rounds keep each lane's share of the samples fixed, and the
    host reference runs before and after every lane.  In a traced run,
    rounds alternate traced and untraced so both see the same host
    drift.
    """
    start = time.perf_counter()
    while True:
        traced = trace and tel.rounds % 2 == 0
        with tel.spans.tracing(traced):
            for lane in lanes:
                tel.host.run()
                lane(tel.rounds)
                tel.host.run()
        tel.rounds += 1
        elapsed = time.perf_counter() - start
        if (tel.rounds >= min_rounds
                and elapsed * (tel.rounds + 1) / tel.rounds > seconds):
            break


def derived_seed(seed: int, *labels) -> int:
    """A stable sub-seed for one input of one workload."""
    return random.Random(json.dumps([seed, *labels])).randrange(1, 2**31)
