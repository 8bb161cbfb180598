"""Check records shared by the residual suites and the CLI reports.

A suite returns its checks as `Checks`: single `CheckRecord`s and
`CheckBlock`s, which hold the checks of a large family as columns and
build its records only when they are iterated."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import inf as _INF

CHUNK = 1024  # records of a block written as one piece of text


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


@dataclass(slots=True, eq=False)
class CheckBlock:
    """Checks as columns, all against one tolerance.  Row k of the label
    columns holds one check of each family, in order: the check of family f
    is named f"{families[f]}:{'|'.join(row k of the labels)}" and has the
    residual residuals[f][k].  Families that check the same labels share a
    block, so their records alternate as they would one by one."""

    families: tuple[str, ...]
    labels: tuple  # label columns of str, each one per row
    residuals: tuple  # a column of floats per family
    tolerance: float

    def __len__(self) -> int:
        return len(self.labels[0]) * len(self.families)

    def checks(self):
        """(name, residual) of each check, in order.  A name is built by
        str.join, which refuses a label that is not a str."""
        for row, residuals in zip(zip(*self.labels), zip(*self.residuals)):
            label = "|".join(row)
            for family, residual in zip(self.families, residuals):
                yield f"{family}:{label}", residual

    def __iter__(self):
        return (CheckRecord(name, residual, self.tolerance) for name, residual in self.checks())

    def ordered_residuals(self):
        """The residuals in record order."""
        if len(self.residuals) == 1:
            return self.residuals[0]
        return [r for row in zip(*self.residuals) for r in row]

    def name(self, k: int) -> str:
        """The name of the k-th check."""
        return next(islice(self.checks(), k, None))[0]


class Checks:
    """A suite's records in order, held as CheckRecords and CheckBlocks;
    iterating it builds each block's records as it reaches them."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        self.parts = list(parts)

    def __iter__(self):
        return chain.from_iterable(part if type(part) is CheckBlock else (part,)
                                   for part in self.parts)

    def __len__(self) -> int:
        return sum(len(part) if type(part) is CheckBlock else 1 for part in self.parts)

    def __add__(self, other) -> Checks:
        return Checks([*self.parts, *(other.parts if type(other) is Checks else other)])

    def __radd__(self, other) -> Checks:
        return Checks([*other, *self.parts])


def list_text(items, level: int, write) -> list[str]:
    """json.dumps(items, indent=2, allow_nan=False) of a list nested `level`
    deep in a document, as pieces to write in order, then the closing
    bracket.

    `write(items, lead, inner)` yields the pieces of the items' text, each
    item started by `lead` and each line after an item's first started by
    `inner`.  JSON strings escape their newlines, so each newline of an
    item's text starts one of its lines."""
    inner = "\n" + "  " * (level + 1)  # starts a line of an item
    pieces = list(write(items, "," + inner, inner))
    if not pieces:
        return ["[]"]
    pieces[0] = "[" + pieces[0][1:]  # the first item follows no separator
    pieces.append("\n" + "  " * level + "]")
    return pieces


def item_text(item, lead: str, inner: str, default=None) -> str:
    """An item of a list as json.dumps writes it, after `lead`."""
    return lead + json.dumps(item, indent=2, allow_nan=False, default=default).replace("\n", inner)


def checks_text(checks, lead: str, inner: str):
    """The `list_text` writer of check records, a list or a Checks: the text
    of json.dumps(list(checks), indent=2, allow_nan=False,
    default=CheckRecord.to_json).

    A block is written CHUNK records to a piece, each piece from one
    template when its residuals and its tolerance are finite floats: the
    name by `encode_basestring_ascii`, the floats by `float.__repr__` (what
    `!r` calls on an exact float), the verdict from residual <= tolerance,
    as the stdlib encoder would.  Any other piece, and every other item,
    goes through json.dumps record by record, so its text and its refusals
    are the stdlib's."""
    for part in (checks.parts if type(checks) is Checks else checks):
        if type(part) is CheckBlock:
            yield from _block_text(part, lead, inner)
        else:
            yield item_text(part, lead, inner, CheckRecord.to_json)


def _block_text(block: CheckBlock, lead: str, inner: str):
    key = inner + "  "  # starts a line of one of a record's keys
    head, middle = f'{lead}{{{key}"name": ', f',{key}"residual": '
    tol = block.tolerance
    # finite floats: neither NaN nor an infinity lies strictly between the
    # infinities
    finite = type(tol) is float and -_INF < tol < _INF
    if finite:  # the text after the residual, by residual <= tolerance
        tails = [f',{key}"tolerance": {tol!r},{key}"verdict": "{verdict}"{inner}}}'
                 for verdict in ("fail", "pass")]
    checks = block.checks()
    while chunk := list(islice(checks, CHUNK)):
        if finite and all(type(r) is float and -_INF < r < _INF for _, r in chunk):
            yield "".join([f"{head}{encode_basestring_ascii(name)}{middle}{r!r}{tails[r <= tol]}"
                           for name, r in chunk])
        else:
            yield "".join([item_text(CheckRecord(name, r, tol), lead, inner, CheckRecord.to_json)
                           for name, r in chunk])
