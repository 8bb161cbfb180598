"""Check records shared by the residual suites and the CLI reports."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

# the keys of a record that `to_json` writes without a detail, in its order
_PLAIN_KEYS = ("name", "residual", "tolerance", "verdict")


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


def list_text(items: list, level: int, template) -> list[str]:
    """json.dumps(items, indent=2, allow_nan=False) of a list nested `level`
    deep in a document, as pieces to write in order: one per item, then the
    closing bracket.

    `template(item, inner)` gives the text of an item it can write, each
    line after its first started by `inner`, or None (no text is empty):
    that item goes through json.dumps itself, so its text and its refusals
    are the stdlib's.  JSON strings escape their newlines, so each newline
    of an item's text starts one of its lines."""
    if not items:
        return ["[]"]
    inner = "\n" + "  " * (level + 1)  # starts a line of an item
    lead = "," + inner
    pieces = [lead + (template(item, inner)
                      or json.dumps(item, indent=2, allow_nan=False).replace("\n", inner))
              for item in items]
    pieces[0] = "[" + pieces[0][1:]  # the first item follows no separator
    pieces.append("\n" + "  " * level + "]")
    return pieces


def record_template(rec, inner: str) -> str | None:
    """The `list_text` template of a check record: a record that `to_json`
    writes without a detail (str name and verdict, finite float residual
    and tolerance), as the stdlib encoder would, with strings by
    `encode_basestring_ascii` and floats by `float.__repr__`.  None for any
    other record, including one with NaN or infinity."""
    if type(rec) is not dict or tuple(rec) != _PLAIN_KEYS:
        return None
    name, residual, tolerance, verdict = rec.values()
    if not (type(name) is str and type(verdict) is str
            and type(residual) is float and type(tolerance) is float
            and math.isfinite(residual) and math.isfinite(tolerance)):
        return None
    key = inner + "  "  # starts a line of one of its keys
    return (f'{{{key}"name": {encode_basestring_ascii(name)},'
            f'{key}"residual": {float.__repr__(residual)},'
            f'{key}"tolerance": {float.__repr__(tolerance)},'
            f'{key}"verdict": {encode_basestring_ascii(verdict)}{inner}}}')
