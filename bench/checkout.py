"""Locate the evosignal sources of the checkout this benchmark lives in.

The benchmark always measures the code next to it, never an installed
copy: ``use_checkout_sources`` puts ``<checkout>/src`` first on
``sys.path`` and refuses to run when that directory holds no package.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    if not (SRC / "evosignal" / "__init__.py").is_file():
        raise SystemExit(f"bench: no evosignal package under {SRC}; run from a checkout of the repository")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
