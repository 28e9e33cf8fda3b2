"""Small shared helpers: percentiles, seed mixing, canonical JSON."""

from __future__ import annotations

import json
import math


def percentile(values, q: float) -> float:
    """The q-th percentile of ``values``; see ``percentile_of_sorted``."""
    return percentile_of_sorted(sorted(float(v) for v in values), q)


def percentile_of_sorted(data, q: float) -> float:
    """Linear interpolation between order statistics of the ascending
    ``data`` at rank q/100 * (n-1). One method for the whole engine: the
    evolution signal extractor and the congestion detector must agree
    with each other, and tests compare against an independent
    implementation exactly, so the formula below - data[low]*(1-frac) +
    data[high]*frac - is the pinned convention."""
    if not data:
        raise ValueError("empty sample has no percentile")
    if len(data) == 1:
        return float(data[0])
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[int(rank)])
    frac = rank - low
    return data[low] * (1 - frac) + data[high] * frac


def mix_seed(base: int, *parts: int) -> int:
    """Derive a child seed from a base seed and a tuple of indices.
    Stable across runs and platforms (no PYTHONHASHSEED dependence)."""
    state = (base & 0xFFFFFFFFFFFFFFFF) ^ 0x9E3779B97F4A7C15
    for part in parts:
        state ^= (part & 0xFFFFFFFFFFFFFFFF) + 0x9E3779B97F4A7C15 + ((state << 6) & 0xFFFFFFFFFFFFFFFF) + (state >> 2)
        state &= 0xFFFFFFFFFFFFFFFF
    return state


def canonical_json(payload: dict) -> str:
    """One JSON spelling per payload, so identical runs write identical
    bytes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
