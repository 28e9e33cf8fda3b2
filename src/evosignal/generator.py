"""Candidate-skill generation: prompt assembly and backends.

Two interchangeable backends produce skill drafts from (elite, metrics,
direction): a remote chat-completions model, and a deterministic
scripted mutator for offline runs and tests. Either way a draft is a
JSON object with description / guidance / inlane_code / outlane_code;
drafts that fail the three-stage validation pipeline are re-prompted
with the error attached, at most three retries, then dropped.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
from dataclasses import dataclass, field

from . import dsl
from .dsl.whitelist import EVENT_VARIABLES, whitelist_for
from .skills import LIBRARY, Skill
from .util import mix_seed

MAX_VALIDATION_RETRIES = 3
TRANSPORT_RETRIES = 3
RETRYABLE_4XX = (408, 429)  # timeout and rate limit; any other 4xx fails at once
REQUEST_TIMEOUT = 60.0
TEMPERATURE = 0.7

ENV_API_BASE = "EVOSIGNAL_API_BASE"
ENV_MODEL = "EVOSIGNAL_MODEL"
ENV_API_KEY = "EVOSIGNAL_API_KEY"


class GeneratorUnavailable(RuntimeError):
    """Transport to the generator failed beyond the retry budget."""


# What the prompt says when no diagnostic signal is active.
NEUTRAL_DIRECTION = "Optimize performance."


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


@dataclass(frozen=True)
class GenerationRequest:
    """Everything a backend may use for one draft."""

    prompts: PromptBundle
    elite: Skill
    signals: dict[str, bool] = field(default_factory=dict)
    event_kind: str | None = None
    previous_error: str | None = None


EVENT_STRATEGY_HINTS = {
    "emergency": (
        "An approaching emergency vehicle should win its phase outright: "
        "switch to the phase serving its approach and keep it green until the vehicle clears."
    ),
    "transit": (
        "Weight phases serving detected buses heavily; per-person cost makes one bus "
        "worth many cars."
    ),
    "incident": (
        "When lanes are blocked, favor phases whose traffic is still moving and route "
        "flow around the blockage."
    ),
    "congestion": (
        "Respond nonlinearly once queues pass the saturation threshold; severity is "
        "graded 0-3."
    ),
}


def build_prompts(
    elite: Skill,
    metrics: dict[str, float] | None,
    direction: str,
    event_kind: str | None = None,
) -> PromptBundle:
    """Assemble the two-part prompt: a system prompt fixing the task,
    output format, sandbox rules (the event context variables only for
    an ``event_kind``), and strategy hints; a user prompt carrying the
    elite's full representation, its metrics, and the evolution
    direction."""
    direction = direction.strip() or NEUTRAL_DIRECTION
    lane_lines = [
        "inlane variables: num_vehicle, num_waiting_vehicle, vehicle_dist",
        "outlane variables: num_vehicle, vehicle_dist",
        "accumulator: value[0] (write scores with augmented assignment, e.g. value[0] += ...)",
        "metadata: index (the phase being scored)",
    ]
    if event_kind is not None:
        lane_lines.append("event context variables: " + ", ".join(EVENT_VARIABLES))
    system = "\n".join(
        [
            "You are a traffic signal control strategy optimization expert.",
            "You improve control skills for a phase-selection traffic controller.",
            "Respond with exactly one JSON object with string fields:",
            '  {"description": ..., "guidance": ..., "inlane_code": ..., "outlane_code": ...}',
            "The code fields are Python-like snippets executed once per lane-link.",
            "Sandbox rules:",
            *("  - " + line for line in lane_lines),
            "  - allowed operations: + - * / // % **, comparisons, if/elif/else",
            "  - allowed builtins: min, max, abs, sum, len, range",
            "  - no imports, definitions, lambdas, attribute access, or other subscripts",
            "Strategy hints: consider conditional branching on queue thresholds,",
            "multi-variable products, and min/max nonlinear transforms rather than",
            "only adjusting coefficients.",
        ]
        + (
            ["Event focus (" + event_kind + "): " + EVENT_STRATEGY_HINTS[event_kind]]
            if event_kind is not None
            else []
        )
    )
    metric_lines = (
        "\n".join(f"  {key}: {value}" for key, value in sorted(metrics.items()))
        if metrics
        else "  (not yet evaluated)"
    )
    user = "\n".join(
        [
            "Current elite skill:",
            f"description: {elite.description}",
            f"guidance: {elite.guidance}",
            "inlane_code:",
            elite.inlane_code,
            "outlane_code:",
            elite.outlane_code,
            "Elite performance:",
            metric_lines,
            f"Evolution direction: {direction}",
            "Produce one improved variant skill as the JSON object described.",
        ]
    )
    return PromptBundle(system=system, user=user)


# ----------------------------------------------------------------------
# draft JSON extraction

# A skill object is a few kilobytes; a longer reply is refused unread.
MAX_REPLY_CHARS = 50_000

# A fenced object opens at the first fence that an optional "json",
# whitespace and "{" follow, and closes at the first "}" after that
# which whitespace and a fence follow. Two searches find both.
_FENCE_OPEN_RE = re.compile(r"```(?:json)?\s*\{")
_FENCE_CLOSE_RE = re.compile(r"\}\s*```")
_BRACE_RE = re.compile(r"[{}]")


def extract_draft_json(text: str) -> dict:
    """Pull the skill JSON object out of a model reply: bare object,
    fenced block, or the first balanced {...} span (braces counted
    without regard to strings) that is one JSON object, each brace's
    match found in one pass over the reply. A reply longer than
    ``MAX_REPLY_CHARS``, one nested past the recursion limit and a bare
    JSON value that is not an object raise ValueError."""
    if len(text) > MAX_REPLY_CHARS:
        raise ValueError(f"generator reply of {len(text)} characters is longer than {MAX_REPLY_CHARS}")
    text = text.strip()
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            pass
        else:
            if not isinstance(data, dict):
                raise ValueError(f"generator reply is a JSON {type(data).__name__}, not an object")
            return data
        opening = _FENCE_OPEN_RE.search(text)
        closing = opening and _FENCE_CLOSE_RE.search(text, opening.end())
        if closing:
            return json.loads(text[opening.end() - 1 : closing.start() + 1])
        opened = []
        ends = {}
        for brace in _BRACE_RE.finditer(text):
            if brace.group() == "{":
                opened.append(brace.start())
            elif opened:
                ends[opened.pop()] = brace.end()
        for start, end in sorted(ends.items()):
            try:
                return json.loads(text[start:end])
            except json.JSONDecodeError:
                continue
    except RecursionError:
        raise ValueError("generator reply nests too deeply to parse") from None
    raise ValueError("no JSON object found in generator reply")


# ----------------------------------------------------------------------
# scripted backend

_THRESHOLD_SHIFTS = (1.0, -1.0, 2.0, -2.0)
_INSERT_VARS = ("num_vehicle", "num_waiting_vehicle", "vehicle_dist")
_INSERT_COEFFS = (0.25, 0.5, 1.0, 2.0)

# Whole-body rewrite templates: (label, inlane, outlane). These are the
# structural jumps the mutator can make when told to innovate.
_REWRITE_TEMPLATES: tuple[tuple[str, str, str], ...] = (
    (
        "pressure balance",
        "value[0] += num_waiting_vehicle + num_vehicle * 0.3",
        "value[0] -= num_waiting_vehicle",
    ),
    (
        "weighted pressure",
        "value[0] += num_waiting_vehicle * 2 + num_vehicle",
        "value[0] -= num_vehicle * 0.5",
    ),
    (
        "saturation branch",
        LIBRARY["saturation-branch"].inlane_code.replace("inlane_2_", ""),
        LIBRARY["saturation-branch"].outlane_code.replace("outlane_2_", ""),
    ),
    (
        "distance weighting",
        LIBRARY["distance-weighted"].inlane_code,
        "value[0] -= num_waiting_vehicle * 0.5",
    ),
    (
        "ratio saturation",
        LIBRARY["ratio-saturation"].inlane_code,
        "value[0] += 0",
    ),
    (
        "capped queue",
        "value[0] += min(8, num_waiting_vehicle) * 2 + num_vehicle * 0.2",
        "value[0] -= min(6, num_waiting_vehicle)",
    ),
)

_EVENT_REWRITE_TEMPLATES: dict[str, tuple[tuple[str, str, str], ...]] = {
    "emergency": (
        (
            "emergency preemption",
            LIBRARY["preempt-approach"].inlane_code,
            LIBRARY["preempt-approach"].outlane_code,
        ),
        (
            "emergency distance bias",
            "if emergency_phase == index:\n"
            "    value[0] += max(0, 200 - emergency_distance) * 5 + num_waiting_vehicle\n"
            "else:\n"
            "    value[0] += num_waiting_vehicle",
            "value[0] -= num_vehicle * 0.2",
        ),
    ),
    "transit": (
        (
            "bus priority",
            LIBRARY["bus-priority"].inlane_code,
            LIBRARY["bus-priority"].outlane_code,
        ),
        (
            "bus-delay weighting",
            "value[0] += num_waiting_vehicle * 2 + bus_count * bus_delay",
            "value[0] -= num_vehicle * 0.3",
        ),
    ),
    "incident": (
        (
            "incident diversion",
            LIBRARY["incident-diversion"].inlane_code,
            LIBRARY["incident-diversion"].outlane_code,
        ),
        (
            "blocked-lane avoidance",
            "if incident_blocked > 0:\n"
            "    value[0] += (num_vehicle - num_waiting_vehicle) * 4\n"
            "else:\n"
            "    value[0] += num_waiting_vehicle * 2",
            "value[0] -= num_waiting_vehicle",
        ),
    ),
    "congestion": (
        (
            "saturation response",
            LIBRARY["saturation-response"].inlane_code,
            LIBRARY["saturation-response"].outlane_code,
        ),
    ),
}

REWRITE_PROB_INNOVATE = 0.8
REWRITE_PROB_BASE = 0.15


def _mutate_literal(code: str, rng: random.Random, kind: str) -> str | None:
    """Nudge one numeric literal (coefficient) or one comparison bound
    (threshold). Render-then-edit keeps the edit site simple: find the
    numbers in the canonical rendering, pick one, shift it. The
    accumulator's subscript is not a literal (hence the `[` exclusion)."""
    rendered = dsl.render(dsl.parse(code), "value[0]", dsl.source_literal)
    matches = list(re.finditer(r"(?<![\w.\[])(\d+(?:\.\d+)?)", rendered))
    if not matches:
        return None
    match = matches[int(rng.randrange(len(matches)))]
    value = float(match.group(1))
    if kind == "coefficient":
        op = rng.choice(("add", "mul"))
        if op == "add":
            value = value + rng.choice((1.0, -1.0, 2.0))
        else:
            value = value * rng.choice((2.0, 0.5))
    else:  # threshold
        value = value + rng.choice(_THRESHOLD_SHIFTS)
    if value < 0:
        value = abs(value)
    text = str(int(value)) if value == int(value) else f"{value:g}"
    return rendered[: match.start(1)] + text + rendered[match.end(1) :]


def _scale_accumulation(code: str, rng: random.Random) -> str:
    """Coefficient mutation for bodies with no literal to perturb:
    multiply each top-level accumulation by a drawn factor."""
    factor = rng.choice((2.0, 0.5))
    ast = dsl.parse(code)
    statements = []
    for stmt in ast.statements:
        if isinstance(stmt, dsl.AugAssign):
            statements.append(
                dsl.AugAssign(stmt.op, dsl.BinOp("*", stmt.expr, dsl.Num(factor)))
            )
        else:
            statements.append(stmt)
    return dsl.render(dsl.SkillAst(tuple(statements)), "value[0]", dsl.source_literal)


def _wrap_in_conditional(code: str, rng: random.Random) -> str:
    theta = rng.randrange(2, 7)
    body = "\n".join("    " + line for line in code.splitlines())
    return (
        f"if num_waiting_vehicle > {theta}:\n{body}\n"
        "else:\n    value[0] += num_waiting_vehicle"
    )


def _insert_term(code: str, rng: random.Random, event_kind: str | None) -> str:
    variables = list(_INSERT_VARS)
    if event_kind == "emergency":
        variables.append("emergency_distance")
    elif event_kind == "transit":
        variables += ["bus_count", "bus_delay"]
    elif event_kind == "incident":
        variables.append("incident_blocked")
    elif event_kind == "congestion":
        variables.append("congestion_level")
    var = rng.choice(variables)
    coeff = rng.choice(_INSERT_COEFFS)
    text = str(int(coeff)) if coeff == int(coeff) else f"{coeff:g}"
    return f"{code}\nvalue[0] += {var} * {text}"


def scripted_mutate(
    elite: Skill,
    signals: dict[str, bool],
    rng: random.Random,
    event_kind: str | None = None,
) -> dict:
    """One deterministic mutation of the elite; returns the draft JSON
    dict. Every draft passes the validation pipeline by construction
    (mutations that fault on the dummy run fall back to a template
    rewrite)."""
    force = bool(signals.get("force_innovation"))
    rewrite_prob = REWRITE_PROB_INNOVATE if force else REWRITE_PROB_BASE
    if rng.random() < rewrite_prob:
        op = "rewrite"
    else:
        op = rng.choice(("coefficient", "threshold", "wrap", "insert"))

    inlane, outlane = elite.inlane_code, elite.outlane_code
    label = op

    if op == "rewrite":
        pool = list(_REWRITE_TEMPLATES)
        if event_kind:
            pool = list(_EVENT_REWRITE_TEMPLATES.get(event_kind, ())) + pool
        name, inlane, outlane = pool[rng.randrange(len(pool))]
        label = f"rewrite: {name}"
    elif op == "coefficient" or op == "threshold":
        mutated = _mutate_literal(elite.inlane_code, rng, op)
        if mutated is None and op == "coefficient":
            mutated = _scale_accumulation(elite.inlane_code, rng)
        if mutated is not None:
            inlane = mutated
            label = f"{op} adjustment"
    elif op == "wrap":
        inlane = _wrap_in_conditional(elite.inlane_code, rng)
        label = "wrap in saturation conditional"
    elif op == "insert":
        side = rng.choice(("inlane", "outlane"))
        if side == "inlane":
            inlane = _insert_term(elite.inlane_code, rng, event_kind)
        else:
            outlane = f"{elite.outlane_code}\nvalue[0] -= num_vehicle * 0.5"
        label = f"term insertion ({side})"

    draft = {
        "description": f"Scripted mutation of '{elite.id}': {label}.",
        "guidance": f"Derived from the elite by a {label} step.",
        "inlane_code": inlane,
        "outlane_code": outlane,
    }
    probe = Skill(id="draft", description="", guidance="", inlane_code=inlane, outlane_code=outlane)
    if not dsl.sandbox_check(probe, whitelist_for(event_kind)).ok:
        name, inlane, outlane = _REWRITE_TEMPLATES[rng.randrange(len(_REWRITE_TEMPLATES))]
        draft = {
            "description": f"Scripted mutation of '{elite.id}': rewrite: {name}.",
            "guidance": "Fallback structural rewrite after an invalid point mutation.",
            "inlane_code": inlane,
            "outlane_code": outlane,
        }
    return draft


class ScriptedBackend:
    """Deterministic stand-in for the remote model. Its first draft
    reproduces the elite; each later call draws its own child generator
    from (seed, call index) and mutates for the request's event kind, so
    a checkpoint only needs the call counter to resume bit-identically."""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = 0

    def propose(self, request: GenerationRequest) -> str:
        call_index = self.calls
        self.calls += 1
        if call_index == 0:
            # Reproduce the baseline once so the search starts from it.
            elite = request.elite
            return json.dumps(
                {
                    "description": elite.description,
                    "guidance": elite.guidance,
                    "inlane_code": elite.inlane_code,
                    "outlane_code": elite.outlane_code,
                }
            )
        rng = random.Random(mix_seed(self.seed, call_index))
        return json.dumps(scripted_mutate(request.elite, request.signals, rng, request.event_kind))


class RemoteBackend:
    """OpenAI-compatible chat-completions transport. One POST per draft
    at ``TEMPERATURE``, each waiting at most ``REQUEST_TIMEOUT`` s;
    bounded exponential backoff between attempts, then
    GeneratorUnavailable. A 4xx other than 408 and 429 is not retried."""

    def __init__(
        self,
        api_base: str | None = None,
        model: str | None = None,
        api_key: str | None = None,
        session=None,
    ):
        self.api_base = (api_base or os.environ.get(ENV_API_BASE, "")).rstrip("/")
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.api_key = api_key or os.environ.get(ENV_API_KEY, "")
        self.calls = 0
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        if not self.api_base or not self.model:
            raise GeneratorUnavailable(
                f"remote generator needs {ENV_API_BASE} and {ENV_MODEL} set"
            )

    def propose(self, request: GenerationRequest) -> str:
        self.calls += 1
        user = request.prompts.user
        if request.previous_error:
            user = f"{user}\n\nYour previous draft was rejected: {request.previous_error}\nFix it."
        body = {
            "model": self.model,
            "temperature": TEMPERATURE,
            "messages": [
                {"role": "system", "content": request.prompts.system},
                {"role": "user", "content": user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        delay = 1.0
        last_error: Exception | None = None
        for attempt in range(TRANSPORT_RETRIES):
            if attempt:
                time.sleep(delay)
                delay *= 2
            try:
                response = self._session.post(
                    f"{self.api_base}/chat/completions",
                    json=body,
                    headers=headers,
                    timeout=REQUEST_TIMEOUT,
                )
            except Exception as exc:  # transport failure
                last_error = exc
                continue
            status = getattr(response, "status_code", None)
            if status is not None and 400 <= status < 500 and status not in RETRYABLE_4XX:
                raise GeneratorUnavailable(f"remote generator refused the request: HTTP {status}")
            try:
                response.raise_for_status()
                return response.json()["choices"][0]["message"]["content"]
            except Exception as exc:  # server error or malformed reply
                last_error = exc
        raise GeneratorUnavailable(f"remote generator unreachable: {last_error}")


def generate(
    backend,
    prompts: PromptBundle,
    count: int,
    *,
    elite: Skill,
    signals: dict[str, bool] | None = None,
    event_kind: str | None = None,
    on_attempt=None,
) -> list[Skill]:
    """Request ``count`` drafts, validating each through the full
    pipeline on the names skills of ``event_kind`` may read, with up to
    three re-prompts; exhausted drafts are dropped.
    ``on_attempt(index, attempt, draft_or_none, report_or_none)`` is the
    audit hook - called once per backend invocation."""
    signals = signals or {}
    names = whitelist_for(event_kind)
    accepted: list[Skill] = []
    for i in range(count):
        error: str | None = None
        for attempt in range(1 + MAX_VALIDATION_RETRIES):
            request = GenerationRequest(
                prompts=prompts,
                elite=elite,
                signals=signals,
                event_kind=event_kind,
                previous_error=error,
            )
            raw = backend.propose(request)
            draft: Skill | None = None
            report = None
            try:
                data = extract_draft_json(raw)
                draft = Skill(
                    id=f"draft-{i}",
                    description=str(data.get("description", "")),
                    guidance=str(data.get("guidance", "")),
                    inlane_code=str(data["inlane_code"]),
                    outlane_code=str(data["outlane_code"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                error = f"draft is not a skill JSON object: {exc}"
            if draft is not None:
                report = dsl.sandbox_check(draft, names)
                if report.ok:
                    if on_attempt:
                        on_attempt(i, attempt, draft, report)
                    accepted.append(draft)
                    break
                error = f"{report.stage}: {report.message}"
            if on_attempt:
                on_attempt(i, attempt, draft, report)
        # falling through all attempts drops the draft
    return accepted
