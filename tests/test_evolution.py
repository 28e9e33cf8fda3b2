"""Signal extraction, directions, the evolution loop, capsules,
checkpoint/resume, and dispatcher-context evaluation."""

from __future__ import annotations

import json
from concurrent import futures

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosignal.evolution import (
    DIRECTIONS,
    EvolutionConfig,
    EvolutionSignals,
    NEUTRAL_DIRECTION,
    NotAnImprovement,
    direction_text,
    evaluate_generation,
    extract_signals,
    run_arrivals,
    run_evolution,
    solidify,
)
from evosignal.generator import ScriptedBackend
from evosignal.metrics import cost_ledger
from evosignal.sim import make_scenario
from evosignal.skills import DEFAULT_BANK, LIBRARY, SEED_SKILL, Skill
from evosignal.store import RunStore
from evosignal.util import percentile

from ._backends import EliteCopyBackend
from ._reference import brute_force_percentile
from .test_dsl import DEEP_BODIES


def agg(fitness=0.0, delay=0.0, queue=0.0, throughput=0.0):
    return {"fitness": fitness, "avg_delay": delay, "avg_queue": queue, "throughput": throughput}


def desk_scenario(duration=240, scale=1.2):
    return make_scenario("T1", rows=1, cols=1, duration=duration, demand_scale=scale)


class TestExtractSignals:
    def test_p75_queue_example(self):
        history = [agg(queue=q) for q in (2, 4, 6, 8)]
        current = agg(queue=7)
        signals = extract_signals(history, current, stagnation=0, tau=3)
        assert percentile([2, 4, 6, 8], 75) == 6.5
        assert signals.high_queue

    def test_empty_history_keeps_percentile_signals_off(self):
        signals = extract_signals([], agg(queue=100, delay=100), stagnation=0, tau=3)
        assert not signals.high_queue
        assert not signals.high_delay
        assert not signals.low_throughput

    def test_low_throughput_uses_p25(self):
        history = [agg(throughput=v) for v in (100, 120, 140, 160)]
        assert extract_signals(history, agg(throughput=110), 0, 3).low_throughput
        assert not extract_signals(history, agg(throughput=130), 0, 3).low_throughput

    def test_trend_signals(self):
        history = [agg(fitness=5.0)]
        assert extract_signals(history, agg(fitness=6.0), 0, 3).performance_gain
        assert extract_signals(history, agg(fitness=4.0), 0, 3).performance_decline
        flat = extract_signals(history, agg(fitness=5.0), 0, 3)
        assert not flat.performance_gain and not flat.performance_decline

    @pytest.mark.parametrize("tau", [1, 2, 3, 5])
    def test_force_innovation_iff_stagnation_reaches_tau(self, tau):
        for stag in range(0, 8):
            signals = extract_signals([], None, stagnation=stag, tau=tau)
            assert signals.force_innovation == (stag >= tau)

    def test_gain_and_decline_exclusive(self):
        with pytest.raises(ValueError):
            EvolutionSignals(performance_gain=True, performance_decline=True)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=40), st.floats(0, 100))
    @settings(max_examples=100, deadline=None)
    def test_percentile_matches_brute_force(self, values, q_frac):
        q = 75
        assert percentile(values, q) == pytest.approx(
            brute_force_percentile(values, q), rel=1e-12, abs=1e-12
        )


class TestDirectionText:
    def test_force_innovation_verbatim(self):
        signals = EvolutionSignals(force_innovation=True)
        assert direction_text(signals) == (
            "Multiple stagnant generations. Try completely different structure."
        )

    def test_pair_joins_in_table_order(self):
        signals = EvolutionSignals(high_queue=True, performance_gain=True)
        assert direction_text(signals) == (
            DIRECTIONS["high_queue"] + " " + DIRECTIONS["performance_gain"]
        )

    def test_empty_is_neutral(self):
        assert direction_text(EvolutionSignals()) == NEUTRAL_DIRECTION


class TestSolidify:
    def test_first_improvement_creates_capsule(self, tmp_path):
        store = RunStore(tmp_path / "run")
        capsule = solidify(SEED_SKILL, 5.0, {"avg_delay": 2.0}, store, generation=0)
        assert capsule["generation"] == 0
        assert store.capsules()[0]["fitness"] == 5.0

    def test_equal_fitness_is_not_an_improvement(self, tmp_path):
        store = RunStore(tmp_path / "run")
        solidify(SEED_SKILL, 5.0, {}, store, 0)
        with pytest.raises(NotAnImprovement):
            solidify(SEED_SKILL, 5.0, {}, store, 1)

    def test_capsule_fitness_strictly_increases(self, tmp_path):
        store = RunStore(tmp_path / "run")
        solidify(SEED_SKILL, 1.0, {}, store, 0)
        solidify(SEED_SKILL, 2.0, {}, store, 3)
        solidify(SEED_SKILL, 2.5, {}, store, 7)
        fitnesses = [c["fitness"] for c in store.capsules()]
        assert fitnesses == sorted(fitnesses)
        assert len(set(fitnesses)) == len(fitnesses)


class TestRunEvolution:
    def test_monotone_best_and_audit_counts(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(),), population=4, generations=5, seed=11)
        store = RunStore(tmp_path / "run")
        result = run_evolution(cfg, ScriptedBackend(seed=11), store)
        hist = result.fitness_history
        assert len(hist) == 5
        assert all(a <= b for a, b in zip(hist, hist[1:]))
        ledger = cost_ledger(store.events())
        assert ledger.llm_calls == 4 * 5
        assert ledger.sim_runs == 4 * 5 * 1

    def test_lineage_closure(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(),), population=3, generations=4, seed=2)
        store = RunStore(tmp_path / "run")
        run_evolution(cfg, ScriptedBackend(seed=2), store)
        skills = store.skills()
        for skill in skills.values():
            if skill.parent_id is not None:
                assert skill.parent_id in skills
            chain = store.lineage(skill.id)
            assert chain[-1].id == "seed"

    def test_rejected_candidate_logged_with_four_calls(self, tmp_path):
        class OneBadCandidate:
            """First call valid; calls 2..5 invalid; later valid."""

            def __init__(self):
                self.calls = 0

            def propose(self, request):
                self.calls += 1
                if 2 <= self.calls <= 5:
                    return "garbage"
                return json.dumps(
                    {"description": "d", "guidance": "g",
                     "inlane_code": "value[0] += num_waiting_vehicle",
                     "outlane_code": "value[0] += 0"}
                )

        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=3,
                              generations=1, seed=2)
        store = RunStore(tmp_path / "run")
        result = run_evolution(cfg, OneBadCandidate(), store)
        events = store.events()
        generated = [e for e in events if e["event"] == "generated" and e["candidate"] == 1]
        assert len(generated) == 4  # 1 + 3 retries
        rejected = [e for e in events if e["event"] == "rejected" and e["candidate"] == 1]
        assert len(rejected) == 4
        assert {(e["stage"], e["message"]) for e in rejected} == {("parse", "not a skill JSON object")}
        evaluated_ids = {e["skill_id"] for e in events if e["event"] == "evaluated"}
        assert evaluated_ids == {"g000c0", "g000c1"}  # two accepted drafts only

    def test_drafts_too_deep_to_parse_are_rejected(self, tmp_path):
        class DeepDrafts:
            """First call valid; calls 2..5 nest past the depth limit."""

            def __init__(self):
                self.calls = 0

            def propose(self, request):
                self.calls += 1
                code = "value[0] += num_waiting_vehicle"
                if 2 <= self.calls <= 5:
                    code = DEEP_BODIES[self.calls - 2]
                return json.dumps({"description": "d", "guidance": "g",
                                   "inlane_code": code, "outlane_code": "value[0] += 0"})

        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2,
                              generations=1, seed=2)
        store = RunStore(tmp_path / "run")
        result = run_evolution(cfg, DeepDrafts(), store)
        assert result.generations_done == 1
        rejected = [e for e in store.events() if e["event"] == "rejected"]
        assert [(e["candidate"], e["stage"]) for e in rejected] == [(1, "parse")] * 4
        assert all("levels deep" in e["message"] for e in rejected)

    def test_stagnation_rig_fires_at_tau(self, tmp_path):
        for tau in (1, 2, 3):
            store = RunStore(tmp_path / f"run-tau{tau}")
            cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2,
                                  generations=tau + 3, tau=tau, seed=4)
            run_evolution(cfg, EliteCopyBackend(), store)
            checkpoints = [e for e in store.events() if e["event"] == "checkpointed"]
            fired = [e["generation"] for e in checkpoints if e["signals"]["force_innovation"]]
            assert fired, f"tau={tau} never fired"
            first = min(fired)
            # stagnant generations completed before the firing generation
            stagnant_before = first - 1  # generation 0 improved from nothing
            assert stagnant_before == tau
            direction = next(e["direction"] for e in checkpoints if e["generation"] == first)
            assert direction.startswith(DIRECTIONS["force_innovation"])

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(),), population=3, generations=6, seed=9)

        straight_dir = tmp_path / "straight" / "r"
        run_evolution(cfg, ScriptedBackend(seed=9), RunStore(straight_dir))

        resumed_dir = tmp_path / "resumed" / "r"
        resumed_store = RunStore(resumed_dir)
        partial = run_evolution(cfg, ScriptedBackend(seed=9), resumed_store, stop_after=2)
        assert partial.interrupted
        final = run_evolution(
            cfg, ScriptedBackend(seed=9), RunStore(resumed_dir), resume=True
        )
        assert not final.interrupted

        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl"):
            assert (straight_dir / name).read_bytes() == (resumed_dir / name).read_bytes(), name
        straight_best = RunStore(straight_dir).read_checkpoint().best_skill_id
        assert final.best.id == straight_best

    def test_resume_writes_session_marker_outside_the_trail(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2,
                              generations=4, seed=8)
        store = RunStore(tmp_path / "r")
        run_evolution(cfg, ScriptedBackend(seed=8), store, stop_after=2)
        run_evolution(cfg, ScriptedBackend(seed=8), RunStore(tmp_path / "r"), resume=True)
        sessions = (tmp_path / "r" / "sessions.jsonl").read_text().splitlines()
        assert len(sessions) == 1
        assert json.loads(sessions[0]) == {"event": "resumed", "generation": 2, "run": "r"}
        events = (tmp_path / "r" / "events.jsonl").read_text()
        assert "resumed" not in events

    def test_resume_of_a_completed_run_is_a_noop(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2,
                              generations=3, seed=8)
        store = RunStore(tmp_path / "run")
        first = run_evolution(cfg, ScriptedBackend(seed=8), store)
        before = (tmp_path / "run" / "events.jsonl").read_bytes()
        again = run_evolution(cfg, ScriptedBackend(seed=8),
                              RunStore(tmp_path / "run"), resume=True)
        assert again.best == first.best
        assert again.fitness_history == first.fitness_history
        assert (tmp_path / "run" / "events.jsonl").read_bytes() == before

    def test_resume_without_checkpoint_fails(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(),), population=2, generations=2)
        with pytest.raises(ValueError):
            run_evolution(cfg, ScriptedBackend(seed=1), RunStore(tmp_path / "empty"), resume=True)

    def test_parallel_jobs_do_not_change_a_byte(self, tmp_path):
        scenarios = (desk_scenario(duration=120), desk_scenario(duration=120))
        cfg = EvolutionConfig(scenarios=scenarios, population=4, generations=3, seed=17)
        serial_dir, parallel_dir = tmp_path / "serial" / "r", tmp_path / "parallel" / "r"
        run_evolution(cfg, ScriptedBackend(seed=17), RunStore(serial_dir), jobs=1)
        run_evolution(cfg, ScriptedBackend(seed=17), RunStore(parallel_dir), jobs=2)
        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes(), name

    def test_parallel_event_mode_does_not_change_a_byte(self, tmp_path):
        # event candidates reach the workers inside a dispatcher spec
        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.5)
        cfg = EvolutionConfig(scenarios=(scenario,), population=3, generations=2,
                              mode="transit", seed=3)
        serial_dir, parallel_dir = tmp_path / "serial" / "r", tmp_path / "parallel" / "r"
        for jobs, run_dir in ((1, serial_dir), (2, parallel_dir)):
            run_evolution(cfg, ScriptedBackend(seed=3), RunStore(run_dir), jobs=jobs)
        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes(), name

    def test_library_event_run_matches_the_command_line(self, tmp_path):
        # the scripted backend mutates for the event kind of each request,
        # so a library run needs no second copy of the run's mode
        from evosignal.cli import main

        args = dict(rows=2, cols=2, duration=120, demand_scale=0.5)
        cli_dir, library_dir = tmp_path / "cli" / "run", tmp_path / "library" / "run"
        assert main(["evolve", "--scenarios", "B2", "--mode", "transit", "--pop", "4", "--gens", "4",
                     "--seed", "1", "--out", str(cli_dir),
                     *(f"--{key.replace('_', '-')}={value}" for key, value in args.items())]) == 0
        cfg = EvolutionConfig(scenarios=(make_scenario("B2", **args),), population=4, generations=4,
                              mode="transit", seed=1)
        run_evolution(cfg, ScriptedBackend(seed=1), RunStore(library_dir))
        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl"):
            assert (cli_dir / name).read_bytes() == (library_dir / name).read_bytes(), name
        skills = (library_dir / "skills.jsonl").read_text()
        assert "bus_count" in skills or "bus_delay" in skills


def body_skill(i, inlane, outlane="value[0] += 0"):
    return Skill(id=f"c{i}", description="", guidance="", inlane_code=inlane, outlane_code=outlane)


@pytest.fixture()
def simulations(monkeypatch):
    """The (scenario, seed) of every episode simulated in this process."""
    from evosignal import control

    runs = []
    real = control.run_episode

    def counting(arrivals, controller, **kwargs):
        runs.append((arrivals.scenario.name, arrivals.seed))
        return real(arrivals, controller, **kwargs)

    monkeypatch.setattr(control, "run_episode", counting)
    return runs


QUEUE = "value[0] += num_waiting_vehicle"
SPACED_QUEUE = "value[0]  +=  num_waiting_vehicle  \n\n"
FAULTING = "value[0] += 1 / num_waiting_vehicle"


class TestDistinctCandidates:
    """Candidates of a generation with equal parsed bodies are simulated
    once per scenario and share the outcomes."""

    CFG = EvolutionConfig(
        scenarios=(desk_scenario(duration=120), make_scenario("T2", rows=1, cols=1, duration=120)),
        population=4,
        seed=8,
    )

    def evaluate(self, candidates):
        return evaluate_generation(self.CFG, candidates, run_arrivals(self.CFG))

    def test_copies_and_a_whitespace_variant_run_once_per_scenario(self, simulations):
        candidates = [body_skill(0, QUEUE), body_skill(1, QUEUE), body_skill(2, QUEUE),
                      body_skill(3, SPACED_QUEUE)]
        evaluations = self.evaluate(candidates)
        assert len(simulations) == len(self.CFG.scenarios)
        assert all(e == evaluations[0] for e in evaluations)
        simulations.clear()
        assert self.evaluate(candidates[3:]) == evaluations[:1]

    def test_a_one_token_change_is_a_miss(self, simulations):
        candidates = [body_skill(0, QUEUE), body_skill(1, "value[0] += num_vehicle"),
                      body_skill(2, QUEUE, "value[0] -= 0")]
        evaluations = self.evaluate(candidates)
        assert len(simulations) == 3 * len(self.CFG.scenarios)
        for candidate, evaluation in zip(candidates, evaluations):
            assert self.evaluate([candidate]) == [evaluation]

    def test_a_faulting_duplicate_records_its_siblings_faults(self, tmp_path, simulations):
        class Drafts:
            """A faulting body, a sound one, then the faulting body again."""

            calls = 0

            def propose(self, request):
                inlane = (FAULTING, QUEUE, FAULTING.replace(" ", "  "))[self.calls % 3]
                self.calls += 1
                return json.dumps({"description": "d", "guidance": "g",
                                   "inlane_code": inlane, "outlane_code": "value[0] += 0"})

        cfg = EvolutionConfig(scenarios=self.CFG.scenarios, population=3, generations=1, seed=8)
        store = RunStore(tmp_path / "run")
        run_evolution(cfg, Drafts(), store)
        assert len(simulations) == 2 * len(cfg.scenarios)
        evaluated = [e for e in store.events() if e["event"] == "evaluated"]
        faults = {(e["skill_id"], e["scenario"]): (e["faults"], e["fitness"]) for e in evaluated}
        for scenario in cfg.scenarios:
            assert faults["g000c0", scenario.name] == faults["g000c2", scenario.name]
            assert faults["g000c0", scenario.name][0] > 0 and faults["g000c0", scenario.name][1] is None
            assert faults["g000c1", scenario.name][0] == 0


class RepeatingBackend:
    """Drafts cycling through a few bodies, two of them equal up to
    whitespace, so every generation holds duplicates."""

    def __init__(self, bodies):
        self.bodies = bodies
        self.calls = 0

    def propose(self, request) -> str:
        inlane, outlane = self.bodies[self.calls % len(self.bodies)]
        self.calls += 1
        return json.dumps({"description": "d", "guidance": "g",
                           "inlane_code": inlane, "outlane_code": outlane})


ROUTINE_BODIES = [
    (QUEUE, "value[0] += 0"),
    ("value[0] += num_vehicle", "value[0] -= num_waiting_vehicle"),
    (SPACED_QUEUE, "value[0] += 0"),
    ("value[0] += 2 * num_waiting_vehicle", "value[0] += 0"),
    (QUEUE, "value[0] +=   0"),
]
TRANSIT_BODIES = [
    ("value[0] += num_waiting_vehicle + bus_count", "value[0] += 0"),
    ("value[0] += num_waiting_vehicle  +  bus_count", "value[0] += 0"),
    ("value[0] += num_vehicle + 3 * bus_count", "value[0] -= num_waiting_vehicle"),
]


class TestSharedWork:
    """Duplicates, shared arrivals and the run-long pool change no byte."""

    @pytest.mark.parametrize("mode", ["routine", "transit"])
    def test_a_run_with_duplicates_writes_the_same_bytes_with_one_or_two_jobs(self, mode, tmp_path, simulations):
        if mode == "routine":
            scenarios, bodies = (desk_scenario(duration=120), desk_scenario(duration=120)), ROUTINE_BODIES
        else:
            scenarios = (make_scenario("B1", rows=2, cols=2, duration=200, demand_scale=0.5),)
            bodies = TRANSIT_BODIES
        cfg = EvolutionConfig(scenarios=scenarios, population=4, generations=3, mode=mode, seed=2)
        serial_dir, parallel_dir = tmp_path / "serial" / "r", tmp_path / "parallel" / "r"
        run_evolution(cfg, RepeatingBackend(bodies), RunStore(serial_dir), jobs=1)
        evaluations = len([e for e in RunStore(serial_dir).events() if e["event"] == "evaluated"])
        assert evaluations == 4 * 3 * len(scenarios)
        assert len(simulations) < evaluations  # duplicates were simulated once
        run_evolution(cfg, RepeatingBackend(bodies), RunStore(parallel_dir), jobs=2)
        for name in ("events.jsonl", "skills.jsonl", "capsules.jsonl"):
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes(), name

    @pytest.fixture()
    def pools(self, monkeypatch):
        from evosignal import control

        made = []

        class Recording(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(control.futures, "ProcessPoolExecutor", Recording)
        return made

    def test_a_run_opens_one_pool_and_shuts_it_down(self, tmp_path, pools):
        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=3, generations=3, seed=4)
        run_evolution(cfg, ScriptedBackend(seed=4), RunStore(tmp_path / "run"), jobs=8, stop_after=2)
        assert len(pools) == 1 and pools[0]._max_workers == 3
        with pytest.raises(RuntimeError, match="after shutdown"):
            pools[0].submit(int)

    def test_a_failing_run_shuts_its_pool_down(self, tmp_path, pools):
        class FailsInGenerationTwo(RepeatingBackend):
            def propose(self, request):
                if self.calls == 4:
                    raise OSError("backend gone")
                return super().propose(request)

        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2, generations=3, seed=4)
        with pytest.raises(OSError, match="backend gone"):
            run_evolution(cfg, FailsInGenerationTwo(ROUTINE_BODIES), RunStore(tmp_path / "run"), jobs=2)
        assert len(pools) == 1
        with pytest.raises(RuntimeError, match="after shutdown"):
            pools[0].submit(int)


def dispatcher_context_evaluate(candidate, kind, scenarios, *, seed):
    """Fitness of a candidate event skill inside the full detect +
    dispatch pipeline, all other bank slots held at the default bank's:
    an event-mode run's evaluation of one candidate."""
    cfg = EvolutionConfig(scenarios=tuple(scenarios), mode=kind, seed=seed)
    return evaluate_generation(cfg, [candidate], run_arrivals(cfg))[0][0]


class TestDispatcherContext:
    def test_substitution_identity(self):
        from dataclasses import replace

        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.5)
        baseline = dispatcher_context_evaluate(DEFAULT_BANK["transit"], "transit", [scenario], seed=3)
        # a candidate that is a renamed copy of the incumbent scores
        # exactly the incumbent's fitness
        copy = replace(DEFAULT_BANK["transit"], id="renamed-copy")
        again = dispatcher_context_evaluate(copy, "transit", [scenario], seed=3)
        assert baseline == again

    def test_candidate_changes_fitness(self):
        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.5)
        baseline = dispatcher_context_evaluate(DEFAULT_BANK["transit"], "transit", [scenario], seed=3)
        rigid = LIBRARY["saturation-response"]
        other = dispatcher_context_evaluate(rigid, "transit", [scenario], seed=3)
        assert other != baseline

    def test_an_event_mode_evaluation_leaves_the_default_bank_as_it_is(self):
        before = dict(DEFAULT_BANK)
        scenario = make_scenario("B1", rows=2, cols=2, duration=300, demand_scale=0.5)
        cfg = EvolutionConfig(scenarios=(scenario,), mode="transit", seed=3)
        evaluate_generation(cfg, [LIBRARY["saturation-response"]], run_arrivals(cfg))
        assert DEFAULT_BANK.keys() == before.keys()
        assert all(DEFAULT_BANK[kind] is skill for kind, skill in before.items())

    def test_activation_only_during_transit_events(self):
        from evosignal.control import ControllerSpec, drive

        scenario = make_scenario("B1", rows=2, cols=2, duration=400, demand_scale=0.5)
        result = drive(ControllerSpec("dispatcher", bank_skills=DEFAULT_BANK), scenario, seed=3,
                       collect_step_log=True)
        activations = [
            r for r in result.step_log if r["kind"] == "activation" and r["skill_kind"] == "transit"
        ]
        events = {
            (r["time"], r["intersection"])
            for r in result.step_log
            if r["kind"] == "event" and r["event"] == "transit"
        }
        assert activations, "no transit activations at all"
        for record in activations:
            assert (record["time"], record["intersection"]) in events

    def test_missing_event_metric_propagates(self):
        from evosignal.metrics import MissingMetric

        no_buses = make_scenario("T1", rows=1, cols=1, duration=60, demand_scale=0.5)
        with pytest.raises(MissingMetric):
            dispatcher_context_evaluate(DEFAULT_BANK["transit"], "transit", [no_buses], seed=1)

    def test_inert_emergency_candidate_is_worse(self):
        # an emergency skill that always scores phase 0 cannot beat the
        # preemption skill on emergency delay, same seed
        from evosignal.control import ControllerSpec, drive
        from evosignal.skills import Skill

        inert = Skill(id="inert", description="", guidance="",
                      inlane_code="value[0] += 0", outlane_code="value[0] += 0")
        scenario = make_scenario("E2", rows=2, cols=2, duration=600, demand_scale=0.8)
        evolved = drive(ControllerSpec("dispatcher", bank_skills=DEFAULT_BANK), scenario, seed=6).metrics
        crippled = drive(
            ControllerSpec("dispatcher", bank_skills={**DEFAULT_BANK, "emergency": inert}), scenario, seed=6,
        ).metrics
        assert crippled.emergency_delay >= evolved.emergency_delay


class TestGenerationRecords:
    def test_records_rebuild_with_monotone_best(self, tmp_path):
        from evosignal.evolution import generation_records

        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=120),), population=4,
                              generations=6, seed=3)
        store = RunStore(tmp_path / "run")
        result = run_evolution(cfg, ScriptedBackend(seed=3), store)
        records = generation_records(store)
        assert [r.index for r in records] == list(range(6))
        best = [r.best_fitness for r in records]
        assert best == sorted(best)
        assert best[-1] == result.best_fitness
        for record in records:
            assert len(record.candidate_ids) == len(record.fitness_vector) == 4
            assert record.direction
        assert records[0].best_id is not None


class TestReplayability:
    def test_store_reconstructs_run_state(self, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=120),), population=4,
                              generations=5, seed=13)
        store = RunStore(tmp_path / "run")
        result = run_evolution(cfg, ScriptedBackend(seed=13), store)

        reloaded = RunStore(tmp_path / "run")
        skills = reloaded.skills()
        checkpoint = reloaded.read_checkpoint()
        assert checkpoint.best_skill_id == result.best.id
        assert skills[result.best.id] == result.best
        assert checkpoint.fitness_history == result.fitness_history
        capsules = reloaded.capsules()
        assert capsules[-1]["skill"]["id"] == result.best.id
        assert capsules[-1]["fitness"] == result.best_fitness
        # per-generation candidate sets reconstruct from checkpointed events
        checkpoints = [e for e in reloaded.events() if e["event"] == "checkpointed"]
        assert len(checkpoints) == 5
        for event in checkpoints:
            for skill_id in event["candidates"]:
                assert skill_id in skills


class TestEvolutionConfigValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError):
            EvolutionConfig(scenarios=(desk_scenario(),), population=1)

    def test_tau_floor(self):
        with pytest.raises(ValueError):
            EvolutionConfig(scenarios=(desk_scenario(),), tau=0)

    def test_mode_names(self):
        with pytest.raises(ValueError):
            EvolutionConfig(scenarios=(desk_scenario(),), mode="spooky")

    @pytest.mark.parametrize("generations", [0, -1])
    def test_generations_floor(self, generations):
        with pytest.raises(ValueError, match="generations must be at least 1"):
            EvolutionConfig(scenarios=(desk_scenario(),), generations=generations)

    @pytest.mark.parametrize("stop_after", [0, -1])
    def test_stop_after_floor_is_checked_before_the_store_is_written(self, stop_after, tmp_path):
        cfg = EvolutionConfig(scenarios=(desk_scenario(duration=60),), population=2, generations=2)
        store = RunStore(tmp_path / "run")
        with pytest.raises(ValueError, match="stop_after must be None or at least 1"):
            run_evolution(cfg, ScriptedBackend(seed=0), store, stop_after=stop_after)
        assert list(store.run_dir.iterdir()) == []
