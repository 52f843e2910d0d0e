"""Serialized records of verified claims.

A certificate carries the claim, the run parameters, the exact computed
quantities, a margin where meaningful, and a three-valued outcome: 'pass',
'fail', or 'inconclusive' (for claims whose bound degenerates to equality).
Re-running with the same parameters reproduces identical quantities; only
the timestamp field varies.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Any

from . import __version__

OUTCOMES = ("pass", "fail", "inconclusive")


def _plain(value: Any) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (int, float, str, bool)):
        return value.item()
    return value


@dataclass
class Certificate:
    claim: str
    params: dict[str, Any]
    quantities: dict[str, Any]
    outcome: str
    margin: Any = None
    timestamp: str = dc_field(default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat())
    version: str = __version__

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}")

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_dict(self) -> dict[str, Any]:
        return {
            "claim": self.claim,
            "params": _plain(self.params),
            "quantities": _plain(self.quantities),
            "margin": _plain(self.margin),
            "outcome": self.outcome,
            "timestamp": self.timestamp,
            "version": self.version,
        }

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [f"claim: {d['claim']}"]
        for section in ("params", "quantities"):
            for k in sorted(d[section]):
                lines.append(f"{section}.{k}: {d[section][k]}")
        if d["margin"] is not None:
            lines.append(f"margin: {d['margin']}")
        lines.append(f"outcome: {d['outcome']}")
        lines.append(f"version: {d['version']}")
        lines.append(f"timestamp: {d['timestamp']}")
        return "\n".join(lines) + "\n"
