"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Directional criteria run the built-in simulator at desk scale
(small grids, short episodes); exact criteria are exact.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

import pytest

from evosignal import dsl
from evosignal.control import ControllerSpec, drive
from evosignal.events import TrafficEvent, default_bank, dispatch
from evosignal.evolution import EvolutionConfig, run_evolution
from evosignal.generator import ScriptedBackend, scripted_mutate
from evosignal.metrics import cost_ledger, routine_fitness, welch_and_cohen
from evosignal.sim import make_scenario
from evosignal.skills import LIBRARY, SEED_SKILL, Skill, skill_complexity
from evosignal.store import RunStore
from evosignal.util import mix_seed, percentile

from ._backends import EliteCopyBackend
from ._reference import brute_force_percentile, reference_evaluate

ROUTINE = dsl.routine_whitelist()
EVENT = dsl.event_whitelist()


def report(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


def desk_routine(family="T1", duration=240, scale=1.2, rows=1):
    return make_scenario(family, rows=rows, cols=rows, duration=duration, demand_scale=scale)


def test_c01_interpreter_fidelity():
    flagship = LIBRARY["saturation-branch"]
    ast = dsl.parse(flagship.inlane_code)
    value = dsl.compile_body(ast).run(
        {"num_waiting_vehicle": 6.0, "vehicle_dist": 4.0, "num_vehicle": 8.0}
    )
    assert value == 20.0

    for name, skill in LIBRARY.items():
        result = dsl.sandbox_check(skill, EVENT)
        assert result.ok, (name, result)
    report(1, "flagship inlane = 20.0 exactly; all bundled listings pass the pipeline")


def test_c02_oracle_equivalence():
    started = time.monotonic()
    elites = [SEED_SKILL, LIBRARY["distance-weighted"], LIBRARY["ratio-saturation"]]
    event_elites = [
        ("emergency", LIBRARY["preempt-approach"]),
        ("transit", LIBRARY["bus-priority"]),
        ("incident", LIBRARY["incident-diversion"]),
    ]
    names = EVENT.canonical_names()
    rng = random.Random(2024)
    programs: list[dsl.SkillAst] = []
    i = 0
    while len(programs) < 1000:
        if i % 4 == 3:
            kind, elite = event_elites[i % len(event_elites)]
            draft = scripted_mutate(elite, {}, random.Random(i), event_kind=kind)
        else:
            draft = scripted_mutate(elites[i % len(elites)], {}, random.Random(i))
        programs.append(dsl.parse(draft["inlane_code"]))
        programs.append(dsl.parse(draft["outlane_code"]))
        i += 1
    checked = 0
    for ast in programs[:1000]:
        for _ in range(10):
            bindings = {
                name: float(rng.choice((0.0, 0.5, 1.0, rng.uniform(0.0, 40.0))))
                for name in names
            }
            try:
                ours = dsl.compile_body(ast).run(bindings)
                ours_error = None
            except dsl.EvalError:
                ours, ours_error = None, True
            try:
                theirs = reference_evaluate(ast, bindings)
                theirs_error = None
            except dsl.EvalError:
                theirs, theirs_error = None, True
            assert ours_error == theirs_error, (ast, bindings)
            if ours_error is None:
                assert ours == theirs, (ast, bindings, ours, theirs)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked == 10000
    assert elapsed < 30.0
    report(2, f"interpreter == reference on 1000 programs x 10 contexts ({elapsed:.1f}s)")


VIOLATION_TEMPLATES = (
    "import os\n{body}",
    "from math import sqrt\n{body}",
    "def helper():\n    return 1\n{body}",
    "f = lambda x: x\n{body}",
    "{body}\nvalue[0] += os.path.sep",
    "{body}\nvalue[0] += num_vehicle.real",
    "value[1] += 1\n{body}",
    "{body}\nvalue[0] += data[0]",
    "{body}\nvalue[0] += secret_feature",
    "{body}\nvalue[0] += __import__('os').getpid()",
    "{body}\nvalue[0] += getattr(num_vehicle, 'real')",
    "x = 5\n{body}",
)


def test_c03_validator_rejects_mutant_corpus():
    started = time.monotonic()
    bases = [SEED_SKILL.inlane_code]
    bases += [skill.inlane_code for skill in LIBRARY.values()]
    bases += [skill.outlane_code for skill in LIBRARY.values()]
    corpus = []
    for base in bases:
        for template in VIOLATION_TEMPLATES:
            corpus.append(template.format(body=base))
    rejected = 0
    for code in corpus:
        probe = Skill(id="m", description="", guidance="",
                      inlane_code=code, outlane_code="value[0] += 0")
        if not dsl.sandbox_check(probe, EVENT).ok:
            rejected += 1
    elapsed = time.monotonic() - started
    assert rejected == len(corpus), f"{len(corpus) - rejected} mutants slipped through"
    assert elapsed < 5.0
    report(3, f"100% rejection of {len(corpus)} grammar-violating mutants ({elapsed:.1f}s)")


def test_c04_dispatcher_totality():
    bank = default_bank()
    kinds = ("emergency", "incident", "transit", "congestion")
    priorities = {"emergency": 0, "incident": 1, "transit": 2, "congestion": 3}
    for mask in itertools.product((False, True), repeat=4):
        present = [k for k, on in zip(kinds, mask) if on]
        events = [TrafficEvent(kind=k, intersection="x", context={}) for k in present]
        active, skill = dispatch(events, bank)
        expected = min(present, key=priorities.get) if present else "normal"
        assert active == expected
        assert skill is bank[expected]
    report(4, "all 16 event subsets dispatch to the maximum-priority kind")


def test_c05_preemption_direction():
    started = time.monotonic()
    scenario = make_scenario("E2", rows=2, cols=2, duration=900, demand_scale=1.2)
    seeds = (1, 2, 3, 4, 5)
    handcrafted, blind = [], []
    for seed in seeds:
        handcrafted.append(drive(ControllerSpec("handcrafted_preemption"), scenario, seed=seed).metrics)
        blind.append(drive(ControllerSpec("max_pressure"), scenario, seed=seed).metrics)
    hc_emergency = statistics.mean(m.emergency_delay for m in handcrafted)
    mp_emergency = statistics.mean(m.emergency_delay for m in blind)
    hc_avg = statistics.mean(m.avg_delay for m in handcrafted)
    mp_avg = statistics.mean(m.avg_delay for m in blind)
    elapsed = time.monotonic() - started
    assert hc_emergency <= 0.40 * mp_emergency, (hc_emergency, mp_emergency)
    assert hc_avg >= mp_avg, (hc_avg, mp_avg)
    assert elapsed < 120.0
    report(
        5,
        f"preemption: emergency {hc_emergency:.1f}s vs {mp_emergency:.1f}s "
        f"(ratio {hc_emergency / mp_emergency:.2f} <= 0.40), "
        f"avg {hc_avg:.1f} >= {mp_avg:.1f} ({elapsed:.0f}s)",
    )


def test_c06_baseline_ordering():
    started = time.monotonic()
    scenario = make_scenario("T1", rows=2, cols=2, duration=600, demand_scale=1.0)
    seeds = (1, 2, 3, 4, 5)
    fixed = [drive(ControllerSpec("fixed_time"), scenario, seed=s).metrics.avg_delay for s in seeds]
    pressure = [drive(ControllerSpec("max_pressure"), scenario, seed=s).metrics.avg_delay for s in seeds]
    stat = welch_and_cohen(fixed, pressure)
    elapsed = time.monotonic() - started
    assert statistics.mean(fixed) > statistics.mean(pressure)
    assert stat.p < 0.05
    assert elapsed < 120.0
    report(
        6,
        f"FixedTime {statistics.mean(fixed):.1f}s > MaxPressure "
        f"{statistics.mean(pressure):.1f}s, Welch p={stat.p:.2e} ({elapsed:.0f}s)",
    )


def test_c07_evolution_monotonic_progress(tmp_path):
    started = time.monotonic()
    scenario = desk_routine()
    cfg = EvolutionConfig(scenarios=(scenario,), population=8, generations=20, seed=11)
    seed_fitness = routine_fitness(
        drive(ControllerSpec("skill", skill=SEED_SKILL), scenario, seed=mix_seed(11, 0)).metrics,
        scenario.fitness_constant,
    )
    result = run_evolution(cfg, ScriptedBackend(seed=11), RunStore(tmp_path / "c07"))
    history = result.fitness_history
    elapsed = time.monotonic() - started
    assert all(a <= b for a, b in zip(history, history[1:]))
    assert seed_fitness > 0
    assert result.best_fitness >= 1.05 * seed_fitness, (result.best_fitness, seed_fitness)
    assert elapsed < 300.0
    gain = (result.best_fitness - seed_fitness) / abs(seed_fitness) * 100
    report(7, f"best-so-far nondecreasing; final {gain:+.1f}% over seed ({elapsed:.0f}s)")


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_c08_force_innovation_semantics(tau, tmp_path):
    scenario = desk_routine(duration=60)
    cfg = EvolutionConfig(scenarios=(scenario,), population=2, generations=tau + 3,
                          tau=tau, seed=4)
    store = RunStore(tmp_path / f"c08-{tau}")
    run_evolution(cfg, EliteCopyBackend(), store)
    checkpoints = {e["generation"]: e for e in store.events() if e["event"] == "checkpointed"}
    fired = sorted(g for g, e in checkpoints.items() if e["signals"]["force_innovation"])
    assert fired, "signal never fired"
    first = fired[0]
    # generation 0 improves from nothing; every later generation under the
    # copy rig is stagnant, so the counter reads first-1 when generation
    # `first` is planned.
    assert first - 1 == tau, (first, tau)
    assert set(range(first, tau + 3)) == set(fired), "fires persistently once reached"
    direction = checkpoints[first]["direction"]
    assert direction.startswith("Multiple stagnant generations. Try completely different structure.")
    report(8, f"tau={tau}: first fired after exactly {tau} stagnant generations, verbatim direction")


def test_c09_percentile_oracles():
    started = time.monotonic()
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(1, 60)
        values = [rng.uniform(0, 100) for _ in range(n)]
        for q in (25, 75, 90):
            assert percentile(values, q) == brute_force_percentile(values, q), (values, q)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(9, f"P25/P75/P90 exactly match brute-force interpolation on 1000 histories ({elapsed:.1f}s)")


def test_c10_checkpoint_fidelity(tmp_path):
    started = time.monotonic()
    scenario = desk_routine(duration=180)
    cfg = EvolutionConfig(scenarios=(scenario,), population=6, generations=10, seed=9)

    straight = tmp_path / "straight"
    result_straight = run_evolution(cfg, ScriptedBackend(seed=9), RunStore(straight, run_id="r"))

    resumed = tmp_path / "resumed"
    run_evolution(cfg, ScriptedBackend(seed=9), RunStore(resumed, run_id="r"), stop_after=4)
    result_resumed = run_evolution(
        cfg, ScriptedBackend(seed=9), RunStore(resumed, run_id="r"), resume=True
    )
    elapsed = time.monotonic() - started
    for name in ("events.jsonl", "capsules.jsonl", "skills.jsonl"):
        assert (straight / name).read_bytes() == (resumed / name).read_bytes(), name
    assert result_resumed.best.id == result_straight.best.id
    assert result_resumed.best == result_straight.best
    assert elapsed < 300.0
    report(10, f"interrupt+resume reproduces byte-identical stores and best skill ({elapsed:.0f}s)")


def test_c11_cost_ledger(tmp_path):
    started = time.monotonic()
    scenarios = tuple(
        make_scenario(name, rows=1, cols=1, duration=180, demand_scale=1.0)
        for name in ("T1", "T2", "T3")
    )
    cfg = EvolutionConfig(scenarios=scenarios, population=8, generations=30, seed=21)
    store = RunStore(tmp_path / "c11")
    run_evolution(cfg, ScriptedBackend(seed=21), store)
    ledger = cost_ledger(store.events(), wall_clock=time.monotonic() - started)
    assert ledger.llm_calls == 240, ledger
    assert ledger.sim_runs == 720, ledger
    assert ledger.wall_clock < 600.0
    report(11, f"M=8, G=30, 3 scenarios: exactly 240 calls and 720 episodes ({ledger.wall_clock:.0f}s)")


def test_c12_dispatcher_context_activation():
    started = time.monotonic()
    bank = default_bank()
    candidate = Skill(
        id="transit-candidate",
        description="Stronger bus weighting.",
        guidance="",
        inlane_code="value[0] += num_waiting_vehicle * 3 + bus_count * 2",
        outlane_code="value[0] -= num_vehicle * 0.4",
    )
    assert dsl.sandbox_check(candidate, EVENT).ok
    scenario = make_scenario("B1", rows=2, cols=2, duration=600, demand_scale=0.6)
    spec = ControllerSpec(
        "dispatcher", bank_skills=bank.replaced("transit", candidate).skills
    )
    result = drive(spec, scenario, seed=3, collect_step_log=True)
    activations = [
        r for r in result.step_log
        if r["kind"] == "activation" and r["skill_kind"] == "transit"
    ]
    events = {
        (r["time"], r["intersection"])
        for r in result.step_log
        if r["kind"] == "event" and r["event"] == "transit"
    }
    elapsed = time.monotonic() - started
    assert activations, "the candidate never activated"
    violations = [r for r in activations if (r["time"], r["intersection"]) not in events]
    assert not violations
    assert elapsed < 120.0
    report(
        12,
        f"{len(activations)} transit activations, every one joined to a transit event ({elapsed:.0f}s)",
    )


def test_c13_statistics_correctness():
    r = welch_and_cohen([10, 12, 11, 13, 9], [20, 22, 21, 19, 23])
    # independent high-precision computation: t and dof are exact by
    # hand (-10, 8); p from the regularized incomplete beta at 30
    # digits; d = -10/sqrt(2.5).
    assert r.t == pytest.approx(-10.0, rel=1e-12)
    assert r.dof == pytest.approx(8.0, rel=1e-12)
    assert r.p == pytest.approx(8.488181527628492e-06, rel=1e-9)
    assert r.d == pytest.approx(-6.324555320336759, rel=1e-9)
    identical = welch_and_cohen([1, 2, 3], [1, 2, 3])
    assert identical.t == 0.0 and identical.p == 1.0 and identical.d == 0.0
    report(13, "Welch t/dof/p and Cohen's d reproduce hand-computed values at 1e-9")


def test_c14_complexity_calibration():
    assert skill_complexity(SEED_SKILL) == (3, 0)
    nodes, depth = skill_complexity(LIBRARY["saturation-branch"])
    assert 15 <= nodes <= 20
    assert depth == 1
    report(14, f"seed = (3, 0); flagship = ({nodes}, {depth}) within [15, 20] x depth 1")
