"""Solve reports: the measurable output of every solver run."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

SCHEMA_VERSION = 1


@dataclass
class SolveReport:
    """Per-run record of work done and quality achieved."""

    method: str
    p: float
    eps: float
    n: int
    d: int
    seed: int | None = None
    gram_solves: int = 0
    sketch_applications: int = 0   # always 0: leverage scores are exact
    phase_counts: dict = field(default_factory=dict)
    residual_lp: float = math.nan
    residual_l2: float = math.nan
    certified_gap: float | None = None
    wall_time: float = math.nan
    error: str | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        out = asdict(self)
        out["p"] = "inf" if self.p == math.inf else self.p
        return out

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)
