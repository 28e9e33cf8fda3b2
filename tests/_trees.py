"""Hypothesis strategies for skill trees as the parser makes them.

A generated tree is valid on the event names and is in the form
``dsl.parse`` returns: a signed literal is one ``Num`` (never a unary
operation on one), an ``else`` body is never a single chain (that is an
``elif``), and ``range`` appears only as the one argument of ``sum`` or
``len``. The trees reach negative literal bases of ``**``, infinite
literals, ``-0.0``, comparison chains and nested if/elif/else chains.
``with_library_examples`` adds every library body to a test as an
explicit example.
"""

from __future__ import annotations

from hypothesis import example
from hypothesis import strategies as st

from evosignal import dsl
from evosignal.dsl import nodes
from evosignal.skills import LIBRARY, SEED_SKILL

INF = float("inf")

# Every name an event body may read, in a fixed order (the order decides
# which trees a seed draws), and three lane-index aliases.
NAMES = (
    "num_vehicle",
    "num_waiting_vehicle",
    "vehicle_dist",
    "emergency_distance",
    "emergency_phase",
    "bus_count",
    "bus_delay",
    "incident_blocked",
    "congestion_level",
    "index",
    "inlane_2_num_vehicle",
    "inlane_0_num_waiting_vehicle",
    "outlane_1_vehicle_dist",
)

SPECIAL_LITERALS = (-2.0, -0.0, 0.0, 0.5, 3.0, 1e9, INF, -INF)

literals = st.one_of(
    st.sampled_from(SPECIAL_LITERALS),
    st.integers(-20, 20).map(float),
    st.floats(allow_nan=False),
)

# Small arguments of range: the reference evaluator builds the sequence.
range_arguments = st.one_of(
    st.sampled_from(NAMES).map(nodes.Ref),
    st.sampled_from((-3.5, 0.0, 2.9, 12.0, 1_000_001.0, INF)).map(nodes.Num),
)


def _compound(children):
    return st.one_of(
        st.builds(nodes.UnaryOp, st.sampled_from("+-"), children.filter(lambda e: not isinstance(e, nodes.Num))),
        st.builds(nodes.BinOp, st.sampled_from(nodes.ARITH_OPS), children, children),
        st.builds(nodes.BinOp, st.just("**"), st.sampled_from((-2.0, -0.5, -INF)).map(nodes.Num), children),
        st.integers(1, 3).flatmap(
            lambda n: st.builds(
                nodes.Compare,
                st.lists(st.sampled_from((">", "<", ">=", "<=", "==", "!=")), min_size=n, max_size=n).map(tuple),
                st.lists(children, min_size=n + 1, max_size=n + 1).map(tuple),
            )
        ),
        st.builds(nodes.Call, st.sampled_from(("min", "max")), st.lists(children, min_size=2, max_size=3).map(tuple)),
        children.map(lambda e: nodes.Call("abs", (e,))),
        st.builds(
            lambda func, arg: nodes.Call(func, (nodes.Call("range", (arg,)),)),
            st.sampled_from(("sum", "len")),
            range_arguments,
        ),
    )


expressions = st.recursive(
    st.one_of(literals.map(nodes.Num), st.sampled_from(NAMES).map(nodes.Ref)),
    _compound,
    max_leaves=10,
)

augmented = st.builds(nodes.AugAssign, st.sampled_from(nodes.ARITH_OPS), expressions)


def _blocks(bodies):
    chain = st.builds(
        nodes.CondChain,
        st.lists(st.tuples(expressions, bodies), min_size=1, max_size=3).map(tuple),
        st.one_of(
            st.just(()),
            bodies.filter(lambda body: not (len(body) == 1 and isinstance(body[0], nodes.CondChain))),
        ),
    )
    return st.lists(st.one_of(augmented, chain), min_size=1, max_size=3).map(tuple)


trees = st.recursive(
    st.lists(augmented, min_size=1, max_size=3).map(tuple),
    _blocks,
    max_leaves=6,
).map(nodes.SkillAst)


def with_library_examples(test):
    """``test`` with each library body as an explicit example."""
    for skill in [SEED_SKILL, *LIBRARY.values()]:
        for code in (skill.inlane_code, skill.outlane_code):
            test = example(dsl.parse(code))(test)
    return test
