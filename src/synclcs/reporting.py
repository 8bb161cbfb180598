"""Check records, and the writer of the CLI reports that hold them.

A suite returns its checks as `Checks`: single `CheckRecord`s and
`CheckBlock`s, which hold the checks of a large family as columns and
build its records only when they are iterated.  `report_text` writes a
report as json.dumps would, each value by its type."""

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


def report_text(value, level: int = 0) -> list[str]:
    """json.dumps(value, indent=2, allow_nan=False) of a value nested `level`
    deep, as pieces to write in order.  A dict with str keys is written key
    by key, a list, tuple or Checks item by item (a CheckBlock CHUNK records
    to a piece, an [int, int] pair by one f-string), and any other value by
    the stdlib encoder, a CheckRecord as its to_json(), refusals included."""
    pad = "\n" + "  " * level  # starts the line of the closing bracket
    inner = pad + "  "  # starts the line of a key or an item
    if type(value) is dict and all(type(key) is str for key in value):
        pieces = []
        for key, item in value.items():
            text = report_text(item, level + 1)
            text[0] = f",{inner}{encode_basestring_ascii(key)}: {text[0]}"
            pieces += text
        return _enclosed(pieces, "{}", pad)
    if type(value) in (list, tuple, Checks):
        lead = "," + inner
        pieces = []
        for item in (value.parts if type(value) is Checks else value):
            if type(item) is CheckBlock:
                pieces += _block_text(item, lead, inner)
            elif (type(item) is list and len(item) == 2 and type(item[0]) is int
                  and type(item[1]) is int):
                pieces.append(f"{lead}[{inner}  {item[0]},{inner}  {item[1]}{inner}]")
            else:
                text = report_text(item, level + 1)
                text[0] = lead + text[0]
                pieces += text
        return _enclosed(pieces, "[]", pad)
    return [_ENCODER.encode(value).replace("\n", pad)]


def _enclosed(pieces: list[str], brackets: str, pad: str) -> list[str]:
    """The pieces of a dict's or a list's items, each after a comma, bracketed."""
    if not pieces:
        return [brackets]
    pieces[0] = brackets[0] + pieces[0][1:]  # the first item follows no comma
    pieces.append(pad + brackets[1])
    return pieces


class _Encoder(json.JSONEncoder):
    def default(self, obj):  # a CheckRecord as its to_json(), else the stdlib's TypeError
        return obj.to_json() if type(obj) is CheckRecord else super().default(obj)


_ENCODER = _Encoder(indent=2, allow_nan=False)


def _block_text(block: CheckBlock, lead: str, inner: str):
    """The text of a block's records, each after `lead`, CHUNK records to a
    piece.  A piece comes from one template when its residuals and the
    tolerance are finite floats: the name by `encode_basestring_ascii`, the
    floats by `float.__repr__` (what `!r` calls on an exact float), the
    verdict from residual <= tolerance, as the stdlib encoder would.  Any
    other piece goes through the encoder record by record."""
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
            yield "".join([lead + _ENCODER.encode(CheckRecord(name, r, tol)).replace("\n", inner)
                           for name, r in chunk])
