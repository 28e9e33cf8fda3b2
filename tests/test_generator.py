"""Prompt assembly, scripted mutation, backends, and retry discipline."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosignal import dsl
from evosignal.generator import (
    MAX_REPLY_CHARS,
    GenerationRequest,
    GeneratorUnavailable,
    NEUTRAL_DIRECTION,
    PromptBundle,
    RemoteBackend,
    ScriptedBackend,
    build_prompts,
    extract_draft_json,
    generate,
    scripted_mutate,
)
from evosignal.skills import LIBRARY, SEED_SKILL, Skill

from ._backends import EliteCopyBackend
from ._reference import reference_extract_draft_json
from ._trees import trees, with_library_examples

ROUTINE = dsl.ROUTINE_NAMES
EVENT = dsl.EVENT_NAMES


class TestBuildPrompts:
    def test_routine_system_lists_five_lane_variables(self):
        bundle = build_prompts(SEED_SKILL, None, "Optimize performance.")
        assert "inlane variables: num_vehicle, num_waiting_vehicle, vehicle_dist" in bundle.system
        assert "outlane variables: num_vehicle, vehicle_dist" in bundle.system
        assert "value[0]" in bundle.system
        assert "index" in bundle.system
        assert "emergency_distance" not in bundle.system

    def test_event_mode_appends_six_variables_and_hint(self):
        bundle = build_prompts(SEED_SKILL, None, "x", "emergency")
        for name in ("emergency_distance", "emergency_phase", "bus_count",
                     "bus_delay", "incident_blocked", "congestion_level"):
            assert name in bundle.system
        assert "Event focus (emergency)" in bundle.system

    def test_user_prompt_carries_full_elite_and_direction(self):
        elite = LIBRARY["saturation-branch"]
        metrics = {"avg_delay": 12.5, "avg_queue": 3.25, "throughput": 140.0}
        direction = "Queue exceeds P75. Focus on queue management."
        bundle = build_prompts(elite, metrics, direction)
        assert elite.description in bundle.user
        assert elite.guidance in bundle.user
        assert elite.inlane_code in bundle.user
        assert elite.outlane_code in bundle.user
        for figure in ("12.5", "3.25", "140.0"):
            assert figure in bundle.user
        assert direction in bundle.user

    def test_empty_direction_gets_neutral_line(self):
        bundle = build_prompts(SEED_SKILL, None, "")
        assert NEUTRAL_DIRECTION in bundle.user


# Pieces of model replies: braces, strings, fences and whole drafts.
REPLY_FRAGMENTS = (
    "{", "}", "{}", '"', '"a"', ":", ",", " ", "\n", "1", "[", "]", "\\", "x", "json",
    "```", "```json", '{"a": 1}', '"inlane_code"',
    json.dumps({"description": "d", "guidance": "g", "inlane_code": "value[0] += 1",
                "outlane_code": "value[0] += 0"}),
)


class TestExtractDraftJson:
    def test_bare_object(self):
        assert extract_draft_json('{"a": 1}') == {"a": 1}

    def test_fenced_block(self):
        text = 'Here you go:\n```json\n{"inlane_code": "value[0] += 1"}\n```\nDone.'
        assert extract_draft_json(text)["inlane_code"] == "value[0] += 1"

    def test_embedded_object(self):
        text = 'prefix {"a": {"b": 2}} suffix'
        assert extract_draft_json(text) == {"a": {"b": 2}}

    def test_no_object_raises(self):
        with pytest.raises(ValueError):
            extract_draft_json("no json here")

    @pytest.mark.parametrize("reply", ["[1, 2]", "42", '"text"', "null"])
    def test_a_bare_value_other_than_an_object_raises(self, reply):
        with pytest.raises(ValueError, match="not an object"):
            extract_draft_json(reply)

    def test_a_reply_over_the_bound_is_refused(self):
        draft = json.dumps({"inlane_code": "value[0] += 1"})
        assert extract_draft_json(draft.ljust(MAX_REPLY_CHARS)) == {"inlane_code": "value[0] += 1"}
        with pytest.raises(ValueError, match="longer than"):
            extract_draft_json(draft.ljust(MAX_REPLY_CHARS + 1))

    def test_nested_braces_at_the_bound_yield_the_innermost_object(self):
        half = MAX_REPLY_CHARS // 2
        assert extract_draft_json("{" * half + "}" * half) == {}

    def test_a_reply_nested_past_the_recursion_limit_raises(self):
        with pytest.raises(ValueError, match="nests too deeply"):
            extract_draft_json('{"a": ' * 5000 + "1" + "}" * 5000)

    @given(st.lists(st.sampled_from(REPLY_FRAGMENTS), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_rescanning_reference(self, reply):
        try:
            expected = reference_extract_draft_json(reply)
        except ValueError:
            expected = ValueError
        if not isinstance(expected, dict):
            expected = ValueError
        try:
            got = extract_draft_json(reply)
        except ValueError:
            got = ValueError
        assert got == expected

    @given(*[st.lists(st.sampled_from(REPLY_FRAGMENTS), min_size=1, max_size=6).map("".join)] * 2)
    @example(head='{"', tail="}")  # every balanced span starts as an object does
    @settings(max_examples=30, deadline=None)
    def test_a_longest_reply_takes_linear_time(self, head, tail):
        # Two units, each repeated over half the bound. Rescanning from
        # every "{" made 8,000 unclosed ones take about 3 s.
        half = MAX_REPLY_CHARS // 2
        reply = head * (half // len(head)) + tail * (half // len(tail))
        started = time.perf_counter()
        try:
            assert isinstance(extract_draft_json(reply), dict)
        except ValueError:
            pass
        assert time.perf_counter() - started < 1.0


class TestScriptedMutate:
    def test_deterministic_for_fixed_rng(self):
        a = scripted_mutate(SEED_SKILL, {}, random.Random(7))
        b = scripted_mutate(SEED_SKILL, {}, random.Random(7))
        assert a == b

    def test_drafts_always_validate(self):
        for i in range(200):
            draft = scripted_mutate(SEED_SKILL, {}, random.Random(i))
            skill = Skill(id="d", description=draft["description"], guidance=draft["guidance"],
                          inlane_code=draft["inlane_code"], outlane_code=draft["outlane_code"])
            assert dsl.sandbox_check(skill, ROUTINE).ok, (i, draft)

    def test_event_drafts_validate_under_event_whitelist(self):
        for i in range(100):
            draft = scripted_mutate(
                LIBRARY["preempt-approach"], {}, random.Random(i), event_kind="emergency"
            )
            skill = Skill(id="d", description="", guidance="",
                          inlane_code=draft["inlane_code"], outlane_code=draft["outlane_code"])
            assert dsl.sandbox_check(skill, EVENT).ok, (i, draft)

    def test_force_innovation_boosts_rewrites(self):
        rewrites = 0
        trials = 1000
        for i in range(trials):
            draft = scripted_mutate(SEED_SKILL, {"force_innovation": True}, random.Random(i))
            if "rewrite" in draft["description"]:
                rewrites += 1
        assert rewrites / trials >= 0.78

    def test_coefficient_doubling_on_the_literal_free_seed(self):
        # a coefficient step on the seed (which has no literal to nudge)
        # scales the accumulation itself
        doubled = []
        for i in range(400):
            draft = scripted_mutate(SEED_SKILL, {}, random.Random(i))
            if "coefficient" in draft["description"]:
                doubled.append(draft["inlane_code"])
        assert doubled
        assert any("num_waiting_vehicle * 2" in code for code in doubled)

    def test_literal_mutations_never_touch_the_accumulator_subscript(self):
        elite = LIBRARY["ratio-saturation"]
        for i in range(300):
            draft = scripted_mutate(elite, {}, random.Random(i))
            assert "value[0]" in draft["inlane_code"]
            assert "value[1" not in draft["inlane_code"]
            assert "value[2" not in draft["inlane_code"]

    def test_descriptions_name_the_mutation(self):
        draft = scripted_mutate(SEED_SKILL, {}, random.Random(3))
        assert "Scripted mutation" in draft["description"]


def render_code(ast: dsl.SkillAst) -> str:
    return dsl.render(ast, "value[0]", dsl.source_literal)


class TestRenderCode:
    @with_library_examples
    @example(dsl.parse("value[0] += (-2) ** num_vehicle"))
    @example(dsl.parse("value[0] += 1e999 - -1e999 * -0.0"))
    @given(trees)
    @settings(max_examples=300, deadline=None)
    def test_render_parses_back_to_the_tree(self, ast):
        text = render_code(ast)
        again = dsl.parse(text)
        assert again == ast
        # == takes -0.0 for 0.0; repr literals tell the two apart
        assert dsl.render(again, "value", repr) == dsl.render(ast, "value", repr)
        assert render_code(again) == text

    def test_round_trip_preserves_semantics(self):
        for skill in [SEED_SKILL, *LIBRARY.values()]:
            for code in (skill.inlane_code, skill.outlane_code):
                ast = dsl.parse(code)
                rendered = render_code(ast)
                again = dsl.parse(rendered)
                bindings = dict.fromkeys(EVENT, 2.0)
                assert dsl.compile_body(again).run(bindings) == (
                    dsl.compile_body(ast).run(bindings)
                )


class TestBackends:
    def test_scripted_backend_reproducible(self):
        request = GenerationRequest(
            prompts=PromptBundle("s", "u"), elite=SEED_SKILL, signals={}
        )
        one = ScriptedBackend(seed=5)
        two = ScriptedBackend(seed=5)
        first = [one.propose(request) for _ in range(5)]
        second = [two.propose(request) for _ in range(5)]
        assert first == second
        assert len(set(first)) > 1  # the sequence is not one repeated draft

    def test_scripted_backend_call_counter_resumes(self):
        request = GenerationRequest(prompts=PromptBundle("s", "u"), elite=SEED_SKILL)
        full = ScriptedBackend(seed=5)
        sequence = [full.propose(request) for _ in range(6)]
        resumed = ScriptedBackend(seed=5)
        for _ in range(3):
            resumed.propose(request)
        resumed.calls = 3
        tail = [resumed.propose(request) for _ in range(3)]
        assert sequence[3:] == tail

    def test_elite_copy_backend(self):
        request = GenerationRequest(prompts=PromptBundle("s", "u"), elite=LIBRARY["bus-priority"])
        data = json.loads(EliteCopyBackend().propose(request))
        assert data["inlane_code"] == LIBRARY["bus-priority"].inlane_code

    def test_remote_backend_requires_configuration(self, monkeypatch):
        monkeypatch.delenv("EVOSIGNAL_API_BASE", raising=False)
        monkeypatch.delenv("EVOSIGNAL_MODEL", raising=False)
        with pytest.raises(GeneratorUnavailable):
            RemoteBackend()

    def test_remote_backend_parses_chat_reply(self):
        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {
                    "choices": [
                        {"message": {"content": '```json\n{"description": "d", "guidance": "g", "inlane_code": "value[0] += num_vehicle", "outlane_code": "value[0] += 0"}\n```'}}
                    ]
                }

        class FakeSession:
            def __init__(self):
                self.requests = []

            def post(self, url, json=None, headers=None, timeout=None):
                self.requests.append((url, json))
                return FakeResponse()

        session = FakeSession()
        backend = RemoteBackend(api_base="http://example/v1", model="m", api_key="k",
                                session=session)
        request = GenerationRequest(prompts=PromptBundle("sys", "user"), elite=SEED_SKILL)
        raw = backend.propose(request)
        assert extract_draft_json(raw)["inlane_code"] == "value[0] += num_vehicle"
        url, body = session.requests[0]
        assert url.endswith("/chat/completions")
        assert body["messages"][0]["role"] == "system"
        assert body["temperature"] == 0.7

    def test_remote_backend_gives_up_after_transport_retries(self):
        class DeadSession:
            def __init__(self):
                self.calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                raise ConnectionError("nope")

        session = DeadSession()
        backend = RemoteBackend(api_base="http://example/v1", model="m", session=session)
        request = GenerationRequest(prompts=PromptBundle("sys", "user"), elite=SEED_SKILL)
        import time as _time

        real_sleep = _time.sleep
        _time.sleep = lambda s: None
        try:
            with pytest.raises(GeneratorUnavailable):
                backend.propose(request)
        finally:
            _time.sleep = real_sleep
        assert session.calls == 3


    @staticmethod
    def status_session(status):
        class StatusResponse:
            status_code = status

            def raise_for_status(self):
                raise RuntimeError(f"HTTP {status}")

            def json(self):
                return {}

        class StatusSession:
            def __init__(self):
                self.calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                return StatusResponse()

        return StatusSession()

    def test_remote_backend_fails_fast_on_client_error(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = self.status_session(400)
        backend = RemoteBackend(api_base="http://example/v1", model="m", session=session)
        request = GenerationRequest(prompts=PromptBundle("sys", "user"), elite=SEED_SKILL)
        with pytest.raises(GeneratorUnavailable, match="HTTP 400"):
            backend.propose(request)
        assert session.calls == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_remote_backend_retries_transient_status(self, monkeypatch, status):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        session = self.status_session(status)
        backend = RemoteBackend(api_base="http://example/v1", model="m", session=session)
        request = GenerationRequest(prompts=PromptBundle("sys", "user"), elite=SEED_SKILL)
        with pytest.raises(GeneratorUnavailable, match="unreachable"):
            backend.propose(request)
        assert session.calls == 3
        assert sleeps == [1.0, 2.0]  # none after the final attempt


class TestRemoteLoopback:
    """Drive the remote backend against a real local HTTP server."""

    def test_generate_over_http_with_one_reprompt(self):
        import http.server
        import threading

        received = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                received.append(body)
                if len(received) == 1:
                    # first draft references a name outside the sandbox,
                    # forcing a validation re-prompt
                    code = "value[0] += secret_feature"
                else:
                    code = "value[0] += num_waiting_vehicle * 2"
                content = json.dumps(
                    {"description": "d", "guidance": "g",
                     "inlane_code": code, "outlane_code": "value[0] += 0"}
                )
                payload = json.dumps(
                    {"choices": [{"message": {"content": content}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            backend = RemoteBackend(
                api_base=f"http://127.0.0.1:{server.server_port}/v1", model="m"
            )
            drafts = generate(
                backend,
                build_prompts(SEED_SKILL, None, "x"),
                2,
                elite=SEED_SKILL,
            )
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert len(drafts) == 2
        assert backend.calls == 3  # rejected first draft cost one re-prompt
        assert received[0]["model"] == "m"
        assert received[0]["temperature"] == 0.7
        assert received[0]["messages"][0]["role"] == "system"
        assert received[0]["messages"][1]["role"] == "user"
        # the re-prompt carries the validation error back to the model
        assert "secret_feature" in received[1]["messages"][1]["content"]


class RejectingBackend:
    """Valid draft on the first call of each batch, garbage afterwards."""

    def __init__(self, good_calls=1):
        self.calls = 0
        self.good_calls = good_calls

    def propose(self, request):
        self.calls += 1
        if self.calls <= self.good_calls:
            return json.dumps(
                {"description": "ok", "guidance": "ok",
                 "inlane_code": "value[0] += num_waiting_vehicle",
                 "outlane_code": "value[0] += 0"}
            )
        return "not even json"


class TestGenerate:
    def test_retry_then_drop_accounting(self):
        backend = RejectingBackend(good_calls=1)
        attempts = []
        drafts = generate(
            backend,
            PromptBundle("s", "u"),
            2,
            elite=SEED_SKILL,
            on_attempt=lambda i, attempt, draft, report: attempts.append((i, attempt)),
        )
        assert len(drafts) == 1  # candidate 1 dropped after retries
        # candidate 0: one call; candidate 1: 1 + 3 retries
        assert attempts == [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
        assert backend.calls == 5

    def test_invalid_code_triggers_reprompt_with_error(self):
        class EventuallyValid:
            def __init__(self):
                self.calls = 0
                self.seen_errors = []

            def propose(self, request):
                self.calls += 1
                self.seen_errors.append(request.previous_error)
                if self.calls == 1:
                    return json.dumps(
                        {"description": "", "guidance": "",
                         "inlane_code": "value[0] += secret_var",
                         "outlane_code": "value[0] += 0"}
                    )
                return json.dumps(
                    {"description": "", "guidance": "",
                     "inlane_code": "value[0] += num_vehicle",
                     "outlane_code": "value[0] += 0"}
                )

        backend = EventuallyValid()
        drafts = generate(backend, PromptBundle("s", "u"), 1, elite=SEED_SKILL)
        assert len(drafts) == 1
        assert backend.seen_errors[0] is None
        assert "secret_var" in backend.seen_errors[1]

    def test_count_zero_is_empty(self):
        assert generate(ScriptedBackend(seed=1), PromptBundle("s", "u"), 0,
                        elite=SEED_SKILL) == []
