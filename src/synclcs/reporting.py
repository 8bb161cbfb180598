"""Check records shared by the residual suites and the CLI reports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from math import inf as _INF


@dataclass(slots=True)
class CheckRecord:
    """One named numerical check: a residual compared against a tolerance."""

    name: str
    residual: float
    tolerance: float
    detail: dict | None = None

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


def record_template(rec, inner: str) -> str:
    """The `list_text` template of a check record: the text of
    json.dumps(rec, indent=2, allow_nan=False, default=CheckRecord.to_json).

    A CheckRecord that `to_json` writes without a detail, with a str name
    and a finite float residual and tolerance, is written from one
    f-string, as the stdlib encoder would: the name by
    `encode_basestring_ascii`, the floats by `float.__repr__` (what `!r`
    calls on an exact float), the verdict from residual <= tolerance.  Any
    other record, one with NaN or infinity or a validation record among
    them, goes through json.dumps itself, so its text and its refusals are
    the stdlib's."""
    if type(rec) is CheckRecord and not rec.detail:
        name, residual, tolerance = rec.name, rec.residual, rec.tolerance
        # finite floats: neither NaN nor an infinity lies strictly between
        # the infinities
        if (type(name) is str and type(residual) is float and type(tolerance) is float
                and -_INF < residual < _INF and -_INF < tolerance < _INF):
            key = inner + "  "  # starts a line of one of its keys
            verdict = '"pass"' if residual <= tolerance else '"fail"'
            return (f'{{{key}"name": {encode_basestring_ascii(name)},'
                    f'{key}"residual": {residual!r},'
                    f'{key}"tolerance": {tolerance!r},'
                    f'{key}"verdict": {verdict}{inner}}}')
    return json.dumps(rec, indent=2, allow_nan=False,
                      default=CheckRecord.to_json).replace("\n", inner)
