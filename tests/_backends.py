"""Generator backends that only tests use."""

from __future__ import annotations

import json

from evosignal.generator import GenerationRequest


class EliteCopyBackend:
    """Returns the elite verbatim; rigs stagnation."""

    kind = "copy"

    def __init__(self):
        self.calls = 0

    def propose(self, request: GenerationRequest) -> str:
        self.calls += 1
        elite = request.elite
        return json.dumps(
            {
                "description": elite.description,
                "guidance": elite.guidance,
                "inlane_code": elite.inlane_code,
                "outlane_code": elite.outlane_code,
            }
        )
