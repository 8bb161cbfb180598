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


def records_text(records: list, level: int) -> list[str]:
    """json.dumps(records, indent=2, allow_nan=False) of a list of records
    nested `level` deep in a document, as pieces to write in order: one per
    record, then the closing bracket.

    A record that `to_json` writes without a detail (str name and verdict,
    finite float residual and tolerance) fills one template, as the stdlib
    encoder would: strings by `encode_basestring_ascii`, floats by
    `float.__repr__`.  Any other record, including one with NaN or infinity,
    goes through json.dumps itself, so its text and its refusals are the
    stdlib's.  JSON strings escape their newlines, so each newline of a
    record's text starts one of its lines."""
    if not records:
        return ["[]"]
    inner = "\n" + "  " * (level + 1)  # starts a line of the record
    key = inner + "  "  # starts a line of one of its keys
    pieces = []
    for rec in records:
        if type(rec) is dict and tuple(rec) == _PLAIN_KEYS:
            name, residual, tolerance, verdict = rec.values()
            if (type(name) is str and type(verdict) is str
                    and type(residual) is float and type(tolerance) is float
                    and math.isfinite(residual) and math.isfinite(tolerance)):
                pieces.append(f',{inner}{{{key}"name": {encode_basestring_ascii(name)},'
                              f'{key}"residual": {float.__repr__(residual)},'
                              f'{key}"tolerance": {float.__repr__(tolerance)},'
                              f'{key}"verdict": {encode_basestring_ascii(verdict)}{inner}}}')
                continue
        pieces.append((",\n" + json.dumps(rec, indent=2, allow_nan=False)).replace("\n", inner))
    pieces[0] = "[" + pieces[0][1:]  # the first record follows no separator
    pieces.append("\n" + "  " * level + "]")
    return pieces
