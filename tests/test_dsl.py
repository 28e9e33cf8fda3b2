"""Parser, validator, interpreter, and complexity tests for the skill DSL."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evosignal import dsl
from evosignal.control import scorer
from evosignal.dsl.parser import MAX_EXPR_DEPTH
from evosignal.dsl.validator import MAX_BODY_NODES, MAX_BRANCH_DEPTH
from evosignal.skills import LIBRARY, SEED_SKILL, Skill, skill_complexity

from ._reference import reference_complexity, reference_evaluate
from ._trees import trees, with_library_examples

ROUTINE = dsl.ROUTINE_NAMES
EVENT = dsl.EVENT_NAMES


def make_skill(inlane: str, outlane: str = "value[0] += 0") -> Skill:
    return Skill(id="t", description="", guidance="", inlane_code=inlane, outlane_code=outlane)


class TestParse:
    def test_seed_is_single_augassign(self):
        ast = dsl.parse("value[0] += num_waiting_vehicle")
        assert len(ast.statements) == 1
        assert isinstance(ast.statements[0], dsl.AugAssign)

    def test_empty_source_rejected(self):
        with pytest.raises(SyntaxError):
            dsl.parse("")
        with pytest.raises(SyntaxError):
            dsl.parse("   \n  \n")

    @pytest.mark.parametrize(
        "code",
        [
            "import os",
            "def f():\n    return 1",
            "x = lambda: 1",
            "value[0] += os.path",
            "value[1] += 1",
            "value[0] += arr[2]",
            "x = 1",
            "value[0] += 'text'",
            "value[0] += True",
            "for i in range(3):\n    value[0] += 1",
            "while num_vehicle > 0:\n    value[0] += 1",
            "value[0] += x if num_vehicle else 0",
            "value[0] += a and b",
            "print(1)",
            "value[0] += f(1).real",
            "value[0] += min(key=1)",
        ],
    )
    def test_out_of_grammar_is_syntax_error(self, code):
        with pytest.raises(SyntaxError):
            dsl.parse(code)

    def test_elif_flattens_into_one_chain(self):
        ast = dsl.parse(
            "if num_vehicle > 3:\n"
            "    value[0] += 1\n"
            "elif num_vehicle > 1:\n"
            "    value[0] += 2\n"
            "else:\n"
            "    value[0] += 3\n"
        )
        (chain,) = ast.statements
        assert isinstance(chain, dsl.CondChain)
        assert len(chain.branches) == 2
        assert len(chain.orelse) == 1

    def test_signed_literals_fold(self):
        ast = dsl.parse("value[0] += -2.5")
        stmt = ast.statements[0]
        assert isinstance(stmt.expr, dsl.Num)
        assert stmt.expr.value == -2.5

    def test_syntax_error_carries_position(self):
        with pytest.raises(SyntaxError) as exc:
            dsl.parse("value[0] += 1\nimport os")
        assert exc.value.lineno == 2


class TestValidate:
    def test_seed_passes_lane_whitelist(self):
        report = dsl.validate(dsl.parse(SEED_SKILL.inlane_code), ROUTINE)
        assert report.ok

    def test_unlisted_name_fails(self):
        report = dsl.validate(dsl.parse("value[0] += secret_var"), ROUTINE)
        assert not report.ok
        assert report.stage == "whitelist"
        assert "secret_var" in report.message

    def test_event_variable_needs_event_whitelist(self):
        ast = dsl.parse("value[0] += emergency_distance")
        assert not dsl.validate(ast, ROUTINE).ok
        assert dsl.validate(ast, EVENT).ok

    def test_lane_indexed_aliases_resolve(self):
        ast = dsl.parse("value[0] += inlane_2_num_waiting_vehicle + outlane_7_vehicle_dist")
        assert dsl.validate(ast, ROUTINE).ok

    def test_unknown_alias_shape_fails(self):
        assert not dsl.validate(dsl.parse("value[0] += outlane_2_num_waiting_vehicle"), ROUTINE).ok
        assert not dsl.validate(dsl.parse("value[0] += inlane_2_speed"), ROUTINE).ok

    def test_non_builtin_call_fails(self):
        report = dsl.validate(dsl.parse("value[0] += foo(1, 2)"), ROUTINE)
        assert not report.ok and report.stage == "whitelist"

    def test_range_only_inside_sum_or_len(self):
        assert dsl.validate(dsl.parse("value[0] += sum(range(num_vehicle))"), ROUTINE).ok
        assert dsl.validate(dsl.parse("value[0] += len(range(num_vehicle))"), ROUTINE).ok
        assert not dsl.validate(dsl.parse("value[0] += range(num_vehicle)"), ROUTINE).ok
        assert not dsl.validate(dsl.parse("value[0] += sum(num_vehicle)"), ROUTINE).ok
        assert not dsl.validate(dsl.parse("value[0] += min(range(3), 1)"), ROUTINE).ok

    def test_a_chain_test_is_checked_before_the_branch_bodies(self):
        ast = dsl.parse(
            "if num_vehicle > 1:\n"
            "    value[0] += foo(1)\n"
            "elif baz(2) > 0:\n"
            "    value[0] += 1\n"
        )
        report = dsl.validate(ast, ROUTINE)
        assert report.message == "call to 'baz' is not a whitelisted builtin"

    def test_the_two_name_sets(self):
        assert dsl.ROUTINE_NAMES == ("num_vehicle", "num_waiting_vehicle", "vehicle_dist", "index")
        assert dsl.EVENT_NAMES == (*dsl.ROUTINE_NAMES, *dsl.EVENT_VARIABLES)
        assert dsl.whitelist_for(None) is dsl.ROUTINE_NAMES
        assert dsl.whitelist_for("transit") is dsl.EVENT_NAMES

    def test_min_needs_two_args(self):
        assert not dsl.validate(dsl.parse("value[0] += min(num_vehicle)"), ROUTINE).ok
        assert dsl.validate(dsl.parse("value[0] += min(num_vehicle, 3, 4)"), ROUTINE).ok

    @given(name=st.from_regex(r"[a-z_][a-z0-9_]{0,14}", fullmatch=True))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_identifiers_rejected_unless_whitelisted(self, name):
        import keyword

        try:
            ast = dsl.parse(f"value[0] += {name}")
        except SyntaxError:
            # keywords cannot even parse; that is rejection too
            assert keyword.iskeyword(name)
            return
        report = dsl.validate(ast, ROUTINE)
        assert report.ok == (dsl.canonical_binding(name) in ROUTINE)


class TestEvaluate:
    def test_seed_linear(self):
        body = dsl.compile_body(dsl.parse(SEED_SKILL.inlane_code))
        assert body.run({"num_waiting_vehicle": 3.0}) == 3.0

    def test_flagship_inlane_hand_value(self):
        # waiting=6, dist=4, vehicles=8: 6*(max(1,4) - 4%3) + 8//4 = 20
        ast = dsl.parse(LIBRARY["saturation-branch"].inlane_code)
        bindings = {"num_waiting_vehicle": 6.0, "vehicle_dist": 4.0, "num_vehicle": 8.0}
        assert dsl.compile_body(ast).run(bindings) == 20.0

    def test_division_by_zero_is_eval_error(self):
        ast = dsl.parse("value[0] += 1 / num_vehicle")
        with pytest.raises(dsl.EvalError):
            dsl.compile_body(ast).run({"num_vehicle": 0.0})

    def test_modulo_sign_follows_divisor(self):
        ast = dsl.parse("value[0] += num_vehicle % -3")
        assert dsl.compile_body(ast).run({"num_vehicle": 5.0}) == 5.0 % -3

    def test_floor_division_on_reals(self):
        ast = dsl.parse("value[0] += num_vehicle // 2")
        assert dsl.compile_body(ast).run({"num_vehicle": 7.5}) == 3.0

    def test_non_finite_result_is_eval_error(self):
        ast = dsl.parse("value[0] += num_vehicle ** num_vehicle")
        with pytest.raises(dsl.EvalError):
            dsl.compile_body(ast).run({"num_vehicle": 1e9})

    def test_non_real_result_is_eval_error(self):
        ast = dsl.parse("value[0] += (0 - num_vehicle) ** 0.5")
        with pytest.raises(dsl.EvalError):
            dsl.compile_body(ast).run({"num_vehicle": 2.0})

    def test_bindings_not_mutated(self):
        bindings = {"num_waiting_vehicle": 4.0}
        dsl.compile_body(dsl.parse(SEED_SKILL.inlane_code)).run(bindings)
        assert bindings == {"num_waiting_vehicle": 4.0}

    def test_repeated_calls_bit_identical(self):
        ast = dsl.parse(LIBRARY["saturation-branch"].inlane_code)
        bindings = {"num_waiting_vehicle": 7.0, "vehicle_dist": 11.3, "num_vehicle": 9.0}
        results = {dsl.compile_body(ast).run(bindings) for _ in range(20)}
        assert len(results) == 1

    def test_unbound_variable_is_eval_error(self):
        ast = dsl.parse("value[0] += vehicle_dist")
        with pytest.raises(dsl.EvalError):
            dsl.compile_body(ast).run({})

    def test_names_outside_the_canonical_bindings_are_never_bound(self):
        for code in ("value[0] += value", "value[0] += outlane_2_num_waiting_vehicle"):
            body = dsl.compile_body(dsl.parse(code))
            with pytest.raises(dsl.EvalError, match="is unbound in this context"):
                body.function(*[1.0] * 10)

    def test_sum_of_range_is_closed_form_and_cheap(self):
        ast = dsl.parse("value[0] += sum(range(999999))")
        body = dsl.compile_body(ast)
        started = time.perf_counter()
        for _ in range(100):
            assert body.run({}) == 999999 * 999998 / 2
        assert (time.perf_counter() - started) / 100 < 1e-3
        assert dsl.compile_body(dsl.parse("value[0] += sum(range(-3.5)) + len(range(2.9))")).run({}) == 2.0

    def test_range_results_stay_in_double_precision(self):
        # Integer arithmetic would give 1000**1000 - 1000**1000 = 0.
        ast = dsl.parse(
            "value[0] += len(range(1000)) ** len(range(1000)) - len(range(1000)) ** len(range(1000))"
        )
        with pytest.raises(dsl.EvalError):
            dsl.compile_body(ast).run({})

    def test_range_bound_is_still_refused(self):
        with pytest.raises(dsl.EvalError, match="exceeds the sandbox bound"):
            dsl.compile_body(dsl.parse("value[0] += len(range(1000001))")).run({})

    @given(
        waiting=st.floats(0, 50, allow_nan=False),
        dist=st.floats(0, 300, allow_nan=False),
        vehicles=st.floats(0, 60, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_alias_soundness(self, waiting, dist, vehicles):
        # A program written with lane-indexed aliases evaluates exactly
        # like its abstract-name rewrite, for all contexts.
        aliased = dsl.parse(LIBRARY["saturation-branch"].inlane_code)
        abstract = dsl.parse(
            LIBRARY["saturation-branch"]
            .inlane_code.replace("inlane_2_", "")
        )
        bindings = {
            "num_waiting_vehicle": waiting,
            "vehicle_dist": dist,
            "num_vehicle": vehicles,
        }
        a = dsl.compile_body(aliased).run(bindings)
        b = dsl.compile_body(abstract).run(bindings)
        assert a == b

    def test_agrees_with_reference_on_library(self):
        bindings = dict.fromkeys(EVENT, 3.0)
        for skill in [SEED_SKILL, *LIBRARY.values()]:
            for code in (skill.inlane_code, skill.outlane_code):
                ast = dsl.parse(code)
                assert dsl.compile_body(ast).run(bindings) == (
                    reference_evaluate(ast, bindings)
                )

    @example(dsl.parse("value[0] += (-2) ** num_vehicle"), [3.0] * 10)
    @example(dsl.parse("value[0] += sum(range(num_vehicle)) - len(range(-0.0 * bus_count))"), [7.5] * 10)
    @given(
        ast=trees,
        values=st.lists(
            st.one_of(st.integers(-5, 60).map(float), st.floats(-1e4, 1e4), st.sampled_from((-0.0, 1e300))),
            min_size=10,
            max_size=10,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_reference_on_generated_trees(self, ast, values):
        # Bit-equal results, or a fault on both sides.
        bindings = dict(zip(EVENT, values))
        try:
            expected = reference_evaluate(ast, bindings).hex()
        except dsl.EvalError:
            expected = "fault"
        try:
            got = dsl.compile_body(ast).run(bindings).hex()
        except dsl.EvalError:
            got = "fault"
        assert got == expected

    def test_a_negative_zero_literal_is_a_body_of_its_own(self):
        # 0.0 == -0.0 as floats, but the two bodies give results of
        # other signs; compiled in this order, the second must not be
        # served the first's code from the compile or scorer cache.
        zeros = dict.fromkeys(EVENT, 0.0)
        positive = dsl.parse("value[0] *= 0.0")
        negative = dsl.parse("value[0] *= -0.0")
        for ast, want in ((positive, "0x0.0p+0"), (negative, "-0x0.0p+0")):
            assert reference_evaluate(ast, zeros).hex() == want
            assert dsl.compile_body(ast).run(zeros).hex() == want
        assert positive != negative and hash(positive) != hash(negative)
        assert scorer("value[0] *= -0.0", "value[0] *= -0.0") is not scorer("value[0] *= 0.0", "value[0] *= 0.0")

    def test_concurrent_callers_with_distinct_contexts(self):
        import threading

        ast = dsl.parse(LIBRARY["saturation-branch"].inlane_code)

        def bindings_for(w):
            return {
                "num_waiting_vehicle": float(w),
                "vehicle_dist": 3.7 * w,
                "num_vehicle": float(2 * w),
            }

        expected = {
            w: dsl.compile_body(ast).run(bindings_for(w)) for w in range(6)
        }
        mismatches = []

        def worker(w):
            for _ in range(500):
                got = dsl.compile_body(ast).run(bindings_for(w))
                if got != expected[w]:
                    mismatches.append((w, got))

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not mismatches


def nested(depth: int) -> str:
    body = "value[0] += 1"
    for _ in range(depth):
        body = "if num_vehicle > 1:\n" + "\n".join("    " + line for line in body.splitlines())
    return body


class TestBodySize:
    def test_library_and_rewrite_bodies_sit_far_below_the_limits(self):
        from evosignal.generator import _EVENT_REWRITE_TEMPLATES, _REWRITE_TEMPLATES

        bodies = [code for skill in [SEED_SKILL, *LIBRARY.values()] for code in (skill.inlane_code, skill.outlane_code)]
        templates = [*_REWRITE_TEMPLATES, *(t for ts in _EVENT_REWRITE_TEMPLATES.values() for t in ts)]
        bodies += [code for _, inlane, outlane in templates for code in (inlane, outlane)]
        for code in bodies:
            nodes, depth = dsl.complexity(dsl.parse(code))
            assert nodes * 20 <= MAX_BODY_NODES and depth * 10 <= MAX_BRANCH_DEPTH, code

    def test_node_limit_is_inclusive(self):
        at_limit = "value[0] += num_vehicle\n" * 166 + "value[0] += 1"
        assert dsl.complexity(dsl.parse(at_limit))[0] == MAX_BODY_NODES
        assert dsl.validate(dsl.parse(at_limit), ROUTINE).ok
        over = "value[0] += num_vehicle\n" * 167
        report = dsl.validate(dsl.parse(over), ROUTINE)
        assert not report.ok and report.stage == "whitelist"
        assert report.message == f"body has 501 nodes, more than the limit of {MAX_BODY_NODES}"

    def test_depth_limit_is_inclusive(self):
        assert dsl.validate(dsl.parse(nested(MAX_BRANCH_DEPTH)), ROUTINE).ok
        report = dsl.validate(dsl.parse(nested(MAX_BRANCH_DEPTH + 1)), ROUTINE)
        assert not report.ok and report.stage == "whitelist"
        assert report.message == f"body nests conditionals 33 deep, more than the limit of {MAX_BRANCH_DEPTH}"

    def test_a_long_straight_line_body_is_refused_before_it_runs(self):
        line = "value[0] += num_waiting_vehicle * max(1, vehicle_dist) + num_vehicle // 5\n"
        skill = make_skill(line * 2000)
        assert len(skill.inlane_code) > 100_000
        report = dsl.sandbox_check(skill, ROUTINE)
        assert not report.ok and report.stage == "whitelist"
        assert report.message.startswith("inlane: body has 18000 nodes")


class TestReads:
    """CompiledBody.reads: (num_vehicle, num_waiting_vehicle,
    vehicle_dist), each True when the body names it, aliases included."""

    @pytest.mark.parametrize(
        "code, reads",
        [
            ("value[0] += num_waiting_vehicle", (False, True, False)),
            ("value[0] += inlane_2_vehicle_dist", (False, False, True)),
            ("value[0] += outlane_0_num_vehicle * index", (True, False, False)),
            ("value[0] += inlane_1_num_vehicle + num_vehicle", (True, False, False)),
            ("value[0] += emergency_distance - index", (False, False, False)),
            ("if vehicle_dist > 3:\n    value[0] += 1\nelse:\n    value[0] += inlane_0_num_waiting_vehicle",
             (False, True, True)),
        ],
    )
    def test_reads_follow_canonical_names(self, code, reads):
        assert dsl.compile_body(dsl.parse(code)).reads == reads

    def test_library_bodies(self):
        flagship = LIBRARY["saturation-branch"]
        assert dsl.compile_body(dsl.parse(flagship.inlane_code)).reads == (True, True, True)
        assert dsl.compile_body(dsl.parse(flagship.outlane_code)).reads == (True, False, True)
        assert dsl.compile_body(dsl.parse(SEED_SKILL.outlane_code)).reads == (False, False, False)


def minus_chain(levels: int) -> str:
    return "value[0] += " + "-" * levels + "num_vehicle"


# Expressions nested past MAX_EXPR_DEPTH: under 500 nodes and deep enough
# to exhaust the recursion limit when the tree is hashed or compared; and
# past the recursion limit of the conversion itself, a chain of 1000
# terms, of 1000 unary minuses, and of 3000, which Python's parser refuses.
DEEP_BODIES = (
    minus_chain(400),
    "value[0] += " + " + ".join(["num_vehicle"] * 1000),
    minus_chain(1000),
    minus_chain(3000),
)


class TestSandboxCheck:
    def test_library_skills_pass(self):
        for skill in [SEED_SKILL, *LIBRARY.values()]:
            report = dsl.sandbox_check(skill, EVENT)
            assert report.ok, (skill.id, report)

    def test_unknown_name_reported_at_whitelist_stage(self):
        skill = make_skill("value[0] += foo")
        report = dsl.sandbox_check(skill, ROUTINE)
        assert not report.ok and report.stage == "whitelist"

    def test_forced_zero_divisor_reported_at_sandbox_stage(self):
        skill = make_skill("value[0] += 1 // (num_vehicle - 1)")
        report = dsl.sandbox_check(skill, ROUTINE)
        assert not report.ok and report.stage == "sandbox"

    def test_parse_failure_reported_at_parse_stage(self):
        skill = make_skill("import os")
        report = dsl.sandbox_check(skill, ROUTINE)
        assert not report.ok and report.stage == "parse"

    @pytest.mark.parametrize("code", DEEP_BODIES)
    def test_a_too_deep_expression_is_a_parse_failure(self, code):
        with pytest.raises(SyntaxError, match=f"more than {MAX_EXPR_DEPTH} levels deep"):
            dsl.parse(code)
        report = dsl.sandbox_check(make_skill(code), ROUTINE)
        assert not report.ok and report.stage == "parse"
        assert report.message.startswith(f"inlane: expression nests more than {MAX_EXPR_DEPTH} levels deep")

    def test_expression_depth_limit_is_inclusive(self):
        assert dsl.sandbox_check(make_skill(minus_chain(MAX_EXPR_DEPTH)), ROUTINE).ok
        with pytest.raises(SyntaxError):
            dsl.parse(minus_chain(MAX_EXPR_DEPTH + 1))

    def test_outlane_body_is_checked_too(self):
        skill = make_skill("value[0] += num_vehicle", outlane="value[0] += foo")
        report = dsl.sandbox_check(skill, ROUTINE)
        assert not report.ok and report.stage == "whitelist"
        assert "outlane" in report.message


class TestComplexity:
    def test_seed_counts_three_nodes_depth_zero(self):
        assert dsl.complexity(dsl.parse(SEED_SKILL.inlane_code)) == (3, 0)

    def test_single_chain_is_depth_one(self):
        ast = dsl.parse(
            "if num_vehicle > 1:\n    value[0] += 1\nelif num_vehicle > 0:\n    value[0] += 2"
        )
        assert dsl.complexity(ast)[1] == 1

    def test_nested_chain_is_depth_two(self):
        ast = dsl.parse(LIBRARY["preempt-approach"].inlane_code)
        assert dsl.complexity(ast)[1] == 2

    def test_flagship_within_expected_range(self):
        nodes, depth = dsl.complexity(dsl.parse(LIBRARY["saturation-branch"].inlane_code))
        assert 15 <= nodes <= 20
        assert depth == 1

    def test_skill_level_takes_heavier_body(self):
        assert skill_complexity(SEED_SKILL) == (3, 0)
        nodes, depth = skill_complexity(LIBRARY["saturation-branch"])
        assert 15 <= nodes <= 20 and depth == 1

    @with_library_examples
    @example(dsl.parse(nested(3)))
    @example(dsl.parse("if index > 1:\n    value[0] += 1\nelse:\n    value[0] += 2\n    if index > 0:\n        value[0] += 3"))
    @given(trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_counter_on_library(self, ast):
        # On every library body and on drawn trees.
        assert dsl.complexity(ast) == reference_complexity(ast)


class TestSkillSerialization:
    def test_round_trip(self):
        skill = LIBRARY["bus-priority"].with_lineage(id="g01-c2", parent_id="seed", generation=1)
        again = Skill.from_json(json.dumps(skill.to_json_dict()))
        assert again == skill

    def test_json_carries_wire_fields(self):
        data = SEED_SKILL.to_json_dict()
        for key in ("description", "guidance", "inlane_code", "outlane_code",
                    "id", "parent_id", "generation", "fitness"):
            assert key in data
