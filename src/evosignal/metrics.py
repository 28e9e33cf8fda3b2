"""Fitness functions, person-delay, statistical tests, cost accounting.

Routine fitness rewards throughput and penalizes delay and queue with
fixed weights (0.4, 0.4, 0.2); event fitness is a pure penalty with
event-dependent weights. The per-scenario constant C only shifts values
into a readable range - it cancels in every comparison, and nothing here
depends on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import stats as _scipy_stats

ROUTINE_WEIGHTS = (0.4, 0.4, 0.2)  # delay, queue, throughput
EVENT_WEIGHTS = {
    "emergency": (0.6, 0.25, 0.15),  # event delay, normal delay, queue
    "transit": (0.5, 0.35, 0.15),
    "incident": (0.6, 0.25, 0.15),
}


class MissingMetric(KeyError):
    """The scenario never produced the event-specific metric."""


@dataclass(frozen=True)
class FitnessConfig:
    mode: str = "routine"  # routine | event
    constant: float = 0.0

    def __post_init__(self):
        if self.mode not in ("routine", "event"):
            raise ValueError(f"unknown fitness mode {self.mode!r}")


def routine_fitness(metrics, cfg: FitnessConfig) -> float:
    """C - (0.4*avg_delay + 0.4*avg_queue) + 0.2*throughput."""
    w_d, w_q, w_t = ROUTINE_WEIGHTS
    return cfg.constant - (w_d * metrics.avg_delay + w_q * metrics.avg_queue) + w_t * metrics.throughput


def event_fitness(metrics, kind: str, cfg: FitnessConfig) -> float:
    """C - (w_e*event_delay + w_n*normal_delay + w_q*queue) with the
    kind's weights. Raises MissingMetric when the episode carried no
    such events."""
    if kind not in EVENT_WEIGHTS:
        raise ValueError(f"no event weights for kind {kind!r}")
    w_e, w_n, w_q = EVENT_WEIGHTS[kind]
    if kind == "emergency":
        event_delay = metrics.emergency_delay
        normal_delay = metrics.normal_delay
    elif kind == "transit":
        event_delay = metrics.bus_person_delay
        normal_delay = metrics.normal_delay
    else:  # incident: network delay during and shortly after the blockage
        event_delay = metrics.incident_window_delay
        normal_delay = metrics.avg_delay
    if event_delay is None:
        raise MissingMetric(f"episode has no {kind} delay metric")
    return cfg.constant - (w_e * event_delay + w_n * normal_delay + w_q * metrics.avg_queue)


def person_delay(vehicle_log) -> float:
    """Occupancy-weighted mean delay over the whole vehicle log (all
    classes; the occupancy weights are what make transit matter)."""
    records = list(vehicle_log)
    if not records:
        raise ValueError("empty vehicle log")
    total_weight = sum(r.occupancy for r in records)
    return sum(r.occupancy * r.delay for r in records) / total_weight


@dataclass(frozen=True)
class StatResult:
    t: float
    p: float
    d: float  # Cohen's d, pooled SD
    dof: float


def welch_and_cohen(a, b) -> StatResult:
    """Welch's two-sample t-test (two-tailed) plus Cohen's d.

    Degenerate inputs: identical constant samples have no test to run,
    so report t=0, p=1, d=0; constant samples with different means
    separate perfectly and report t=+/-inf, p=0, d=+/-inf.
    """
    xs = [float(v) for v in a]
    ys = [float(v) for v in b]
    na, nb = len(xs), len(ys)
    if na < 2 or nb < 2:
        raise ValueError("need at least two observations per sample")
    mean_a = sum(xs) / na
    mean_b = sum(ys) / nb
    var_a = sum((v - mean_a) ** 2 for v in xs) / (na - 1)
    var_b = sum((v - mean_b) ** 2 for v in ys) / (nb - 1)

    se_sq = var_a / na + var_b / nb
    if se_sq == 0.0:  # constant samples, or variances that underflow to zero
        dof = float(na + nb - 2)
        if mean_a == mean_b:
            return StatResult(t=0.0, p=1.0, d=0.0, dof=dof)
        sign = 1.0 if mean_a > mean_b else -1.0
        return StatResult(t=sign * math.inf, p=0.0, d=sign * math.inf, dof=dof)
    t = (mean_a - mean_b) / math.sqrt(se_sq)
    dof_denominator = (var_a / na) ** 2 / (na - 1) + (var_b / nb) ** 2 / (nb - 1)
    # subnormal variances can square to zero; any dof is as defensible
    # as another down there
    dof = se_sq**2 / dof_denominator if dof_denominator > 0 else float(na + nb - 2)
    # Two-tailed p from the t distribution (incomplete-beta based).
    p = float(2.0 * _scipy_stats.t.sf(abs(t), dof))
    pooled = math.sqrt(((na - 1) * var_a + (nb - 1) * var_b) / (na + nb - 2))
    d = (mean_a - mean_b) / pooled if pooled > 0 else math.copysign(math.inf, mean_a - mean_b)
    return StatResult(t=t, p=p, d=d, dof=dof)


@dataclass(frozen=True)
class CostLedger:
    llm_calls: int
    sim_runs: int
    wall_clock: float

    def as_dict(self) -> dict:
        return {
            "llm_calls": self.llm_calls,
            "sim_runs": self.sim_runs,
            "wall_clock": self.wall_clock,
        }


def cost_ledger(events, wall_clock: float = 0.0) -> CostLedger:
    """Search-cost accounting from the audit trail: one `generated`
    event per generator invocation (retries included), one `evaluated`
    event per episode."""
    calls = 0
    runs = 0
    for event in events:
        kind = event.get("event")
        if kind == "generated":
            calls += 1
        elif kind == "evaluated":
            runs += 1
    return CostLedger(llm_calls=calls, sim_runs=runs, wall_clock=wall_clock)
