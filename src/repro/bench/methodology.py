"""Measurement methodology for the figure-regeneration harness.

Follows §3.1.1 of the paper where it transfers to a simulator:

* Each benchmark runs at a fixed heap of **2x its minimum** (calibrated in
  :mod:`repro.workloads.suite`).
* Each (benchmark, configuration) pair is measured over **N trials** on a
  fresh VM; we report means with **90% confidence intervals** (Student t).
* Ratios across benchmarks are combined with the **geometric mean**, like
  the paper's "2.75% (the geometric mean)".
* On/off costs of a single feature (the §2.7 "path tracking is free"
  comparison and every ablation after it) go through :func:`ablate`:
  interleaved trials of both legs, mean ± CI90 per leg, ratio of means.

Wall-clock numbers in a Python simulator are noisy relative to the paper's
single-digit percentages, so every measurement also carries deterministic
*work counters* (objects traced, header-bit checks, ownee binary-search
probes...) that decompose the overhead exactly and reproducibly.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.runtime.vm import VirtualMachine
from repro.workloads.suite import SuiteEntry

try:  # scipy is available in this environment; fall back to normal quantile.
    from scipy import stats as _scipy_stats
except ImportError:  # pragma: no cover
    _scipy_stats = None


class Config(enum.Enum):
    """The paper's three measured configurations (§3.1.1)."""

    BASE = "Base"                      # unmodified VM: no engine, no paths
    INFRASTRUCTURE = "Infrastructure"  # engine + path tracking, no assertions
    WITH_ASSERTIONS = "WithAssertions" # engine + the paper's assertion placements


@dataclass
class Measurement:
    """One trial of one (benchmark, configuration) pair."""

    total_s: float
    gc_s: float
    collections: int
    counters: dict

    @property
    def mutator_s(self) -> float:
        return max(self.total_s - self.gc_s, 0.0)


@dataclass
class Sample:
    """All trials of one (benchmark, configuration) pair."""

    benchmark: str
    config: Config
    measurements: list[Measurement] = field(default_factory=list)

    def totals(self) -> list[float]:
        return [m.total_s for m in self.measurements]

    def gcs(self) -> list[float]:
        return [m.gc_s for m in self.measurements]

    def mutators(self) -> list[float]:
        return [m.mutator_s for m in self.measurements]

    def mean_total(self) -> float:
        return mean(self.totals())

    def mean_gc(self) -> float:
        return mean(self.gcs())

    def counters(self) -> dict:
        """Counters from the last trial (deterministic across trials)."""
        return self.measurements[-1].counters if self.measurements else {}


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def confidence_interval_90(values: list[float]) -> float:
    """Half-width of the 90% CI of the mean (0 for < 2 samples)."""
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    sd = math.sqrt(var)
    if _scipy_stats is not None:
        t = float(_scipy_stats.t.ppf(0.95, n - 1))
    else:  # pragma: no cover
        t = 1.645
    return t * sd / math.sqrt(n)


def build_vm(entry: SuiteEntry, config: Config, collector: str = "marksweep") -> VirtualMachine:
    """A fresh VM in the requested configuration at the calibrated heap."""
    if config is Config.BASE:
        return VirtualMachine(
            heap_bytes=entry.heap_bytes,
            collector=collector,
            assertions=False,
            track_paths=False,
        )
    return VirtualMachine(
        heap_bytes=entry.heap_bytes, collector=collector, assertions=True
    )


_COUNTER_FIELDS = (
    "collections",
    "objects_traced",
    "edges_traced",
    "objects_swept",
    "header_bit_checks",
    "instance_count_increments",
    "ownee_lookups",
    "ownee_search_probes",
    "ownees_checked",
    "path_entries_tagged",
    "violations_detected",
)


def run_trial(entry: SuiteEntry, config: Config, collector: str = "marksweep") -> Measurement:
    """One trial: fresh VM, run the workload, read timers and counters."""
    vm = build_vm(entry, config, collector)
    if config is Config.WITH_ASSERTIONS:
        runner = entry.run_with_assertions
        if runner is None:
            raise ValueError(f"benchmark {entry.name!r} has no asserted variant")
    else:
        runner = entry.run
    start = time.perf_counter()
    runner(vm)
    total = time.perf_counter() - start
    stats = vm.stats
    counters = {name: getattr(stats, name) for name in _COUNTER_FIELDS}
    if vm.engine is not None:
        counters["assertion_calls"] = dict(
            (k.value, v) for k, v in vm.engine.registry.calls.items() if v
        )
    return Measurement(
        total_s=total,
        gc_s=stats.gc_seconds,
        collections=stats.collections,
        counters=counters,
    )


def run_sample(
    entry: SuiteEntry,
    config: Config,
    trials: int,
    collector: str = "marksweep",
    warmup: int = 1,
) -> Sample:
    """N measured trials (after ``warmup`` unrecorded ones)."""
    sample = Sample(entry.name, config)
    for _ in range(warmup):
        run_trial(entry, config, collector)
    for _ in range(trials):
        sample.measurements.append(run_trial(entry, config, collector))
    return sample


Leg = Callable[[], tuple[float, dict, dict]]


def ablate(
    name: str, legs: dict[str, Leg], *, workload: str, trials: int, basis: str
) -> dict:
    """Measure one on/off cost: ``trials`` interleaved rounds of two legs.

    ``legs`` maps two leg names, baseline first, to callables that run
    one trial and return ``(seconds, counters, extras)``: the measured
    time on ``basis`` (``"gc"``, ``"mark"`` or ``"wall"``), the
    deterministic work counters, and leg-specific observations.  Each
    round runs both legs, and the leg that goes first alternates between
    rounds, so drift in the host (frequency scaling, a neighbour's load)
    lands on both legs alike.  Reports each leg's mean and 90% CI
    half-width over all its trials, the ratio of the means (second leg
    over first), and ``counters_match``: every trial of both legs
    produced the same counters.
    """
    if len(legs) != 2:
        raise ValueError(f"{name}: an ablation has exactly two legs, got {list(legs)}")
    names = list(legs)
    seconds: dict[str, list[float]] = {leg: [] for leg in names}
    counters: dict[str, list[dict]] = {leg: [] for leg in names}
    extras: dict[str, list[dict]] = {leg: [] for leg in names}
    first_legs = []
    for round_ in range(trials):
        order = names if round_ % 2 == 0 else names[::-1]
        first_legs.append(order[0])
        for leg in order:
            s, c, e = legs[leg]()
            seconds[leg].append(s)
            counters[leg].append(c)
            extras[leg].append(e)
    reference = counters[names[0]][0] if trials else {}
    base, other = (mean(seconds[leg]) for leg in names)
    return {
        "name": name,
        "workload": workload,
        "basis": basis,
        "trials": trials,
        "first_legs": first_legs,
        "legs": {
            leg: {
                "mean_s": mean(seconds[leg]),
                "ci90_s": confidence_interval_90(seconds[leg]),
                "seconds": seconds[leg],
                "counters": counters[leg][0] if trials else {},
                "extras": extras[leg],
            }
            for leg in names
        },
        "ratio": other / base if base > 0 else 0.0,
        "counters_match": all(
            trial == reference for leg in names for trial in counters[leg]
        ),
    }


@dataclass
class OverheadRow:
    """One benchmark's Base-vs-other comparison for a figure."""

    benchmark: str
    base_mean: float
    other_mean: float
    base_ci: float
    other_ci: float
    counters_base: dict
    counters_other: dict

    @property
    def ratio(self) -> float:
        if self.base_mean <= 0:
            return float("nan")
        return self.other_mean / self.base_mean

    @property
    def overhead_pct(self) -> float:
        return (self.ratio - 1.0) * 100.0


def compare(
    entry: SuiteEntry,
    config_a: Config,
    config_b: Config,
    metric: str,
    trials: int,
    collector: str = "marksweep",
) -> OverheadRow:
    """Measure two configurations of one benchmark and compare ``metric``
    (``"total"``, ``"gc"``, or ``"mutator"``)."""
    sample_a = run_sample(entry, config_a, trials, collector)
    sample_b = run_sample(entry, config_b, trials, collector)
    pick = {
        "total": Sample.totals,
        "gc": Sample.gcs,
        "mutator": Sample.mutators,
    }[metric]
    values_a = pick(sample_a)
    values_b = pick(sample_b)
    return OverheadRow(
        benchmark=entry.name,
        base_mean=mean(values_a),
        other_mean=mean(values_b),
        base_ci=confidence_interval_90(values_a),
        other_ci=confidence_interval_90(values_b),
        counters_base=sample_a.counters(),
        counters_other=sample_b.counters(),
    )
