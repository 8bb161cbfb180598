"""Check records shared by the residual suites and the CLI reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    """One named numerical check: a residual compared against a tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.detail:
            out["detail"] = self.detail
        return out
