"""Check records, and the writer of the CLI reports that hold them.

A suite returns its checks as `Checks`: single `CheckRecord`s and
`CheckBlock`s, which hold the checks of a large family as columns and
build its records only when they are iterated.  `report_text` writes a
report as json.dumps would, each value by its type, and leaves a block
that cannot be refused to be written in pieces when the writer reaches it."""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii
from math import isfinite

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


def report_text(value, level: int = 0, lead: str = "", out: list | None = None) -> list:
    """json.dumps(value, indent=2, allow_nan=False) of a value nested `level`
    deep, as pieces to write in order, appended to `out` after `lead`.  A
    dict with str keys is walked key by key, a list, tuple or Checks item by
    item, a CheckRecord as its to_json(), and a str, int, finite float, bool
    or None is written as the stdlib writes it; any other value goes through
    the stdlib encoder, refusals included.  In a list, an [int, int] pair is
    written by one f-string, and a CheckBlock that `_streamable` admits is a
    function that makes its text, CHUNK records to a piece, anew on each
    call.  Every other block is written as its records, so that whatever the
    report refuses is refused before the first piece is written."""
    out = [] if out is None else out
    kind = type(value)
    if kind is str:
        out.append(lead + encode_basestring_ascii(value))
    elif kind is int:
        out.append(lead + int.__repr__(value))
    elif kind is float and isfinite(value):
        out.append(lead + float.__repr__(value))
    elif kind is bool or value is None:
        out.append(lead + ("null" if value is None else "true" if value else "false"))
    elif kind is CheckRecord:
        report_text(value.to_json(), level, lead, out)
    elif kind is dict and all(type(key) is str for key in value):
        inner = "\n" + "  " * (level + 1)  # starts the line of a key
        sep, comma = lead + "{" + inner, "," + inner  # before the first key, and the others
        for key, item in value.items():
            report_text(item, level + 1, f"{sep}{encode_basestring_ascii(key)}: ", out)
            sep = comma
        out.append(inner[:-2] + "}" if sep == comma else lead + "{}")
    elif kind in (list, tuple, Checks):
        inner = "\n" + "  " * (level + 1)  # starts the line of an item
        sep, comma = lead + "[" + inner, "," + inner  # before the first item, and the others
        for item in (value.parts if kind is Checks else value):
            if (type(item) is list and len(item) == 2 and type(item[0]) is int
                    and type(item[1]) is int):
                out.append(f"{sep}[{inner}  {item[0]},{inner}  {item[1]}{inner}]")
            elif type(item) is not CheckBlock:
                report_text(item, level + 1, sep, out)
            elif _streamable(item):
                out.append(partial(_block_text, item, sep, inner))
            else:
                for record in item:  # so a refusal comes before any output
                    report_text(record, level + 1, sep, out)
                    sep = comma
                continue
            sep = comma
        out.append(inner[:-2] + "]" if sep == comma else lead + "[]")
    else:  # NaN and the infinities are refused here, with the stdlib's message
        out.append(lead + _ENCODER.encode(value).replace("\n", "\n" + "  " * level))
    return out


class _Encoder(json.JSONEncoder):
    def default(self, obj):  # a CheckRecord as its to_json(), else the stdlib's TypeError
        return obj.to_json() if type(obj) is CheckRecord else super().default(obj)


_ENCODER = _Encoder(indent=2, allow_nan=False)


def _streamable(block: CheckBlock) -> bool:
    """Whether a block can be written after the report's other values are:
    it holds a record, its tolerance and residuals are finite floats, and
    its families and labels are str, so writing it can refuse nothing."""
    return (len(block) > 0 and type(block.tolerance) is float and isfinite(block.tolerance)
            and all(type(family) is str for family in block.families)
            and all(set(map(type, column)) == {str} for column in block.labels)
            and all(set(map(type, column)) == {float} and all(map(isfinite, column))
                    for column in block.residuals))


def _block_text(block: CheckBlock, lead: str, inner: str):
    """The text of a streamable block's records, the first after `lead`,
    the others after a comma, CHUNK records to a piece, as the stdlib
    writes a record's to_json(): names by `encode_basestring_ascii`, floats
    by `float.__repr__` and the verdict from residual <= tolerance.  Each
    label is escaped once.  A one-family block is written by runs of
    residuals with equal bits, which share their text: a run is one join
    of its labels."""
    key = inner + "  "  # starts a line of one of a record's keys
    comma = "," + inner  # between two records
    tol = block.tolerance
    tails = [f',{key}"tolerance": {tol!r},{key}"verdict": "{verdict}"{inner}}}'
             for verdict in ("fail", "pass")]
    starts = [f'{{{key}"name": {encode_basestring_ascii(family)[:-1]}:'
              for family in block.families]
    escaped = {label: encode_basestring_ascii(label)[1:-1]
               for label in set(chain.from_iterable(block.labels))}
    step = max(1, CHUNK // len(starts))  # rows to a piece
    for a in range(0, len(block.labels[0]), step):
        labels = list(map("|".join, zip(*(map(escaped.__getitem__, column[a:a + step])
                                          for column in block.labels))))
        if len(starts) == 1:
            residuals = array("d", block.residuals[0][a:a + step])
            texts, k = [], 0
            # the bits of each residual: equal bits, equal text
            for _, run in groupby(memoryview(residuals).cast("B").cast("Q")):
                n = sum(1 for _ in run)
                r = residuals[k]
                end = f'",{key}"residual": {r!r}{tails[r <= tol]}'
                texts.append(starts[0] + f"{end}{comma}{starts[0]}".join(labels[k:k + n]) + end)
                k += n
        else:
            texts = [f'{start}{label}",{key}"residual": {r!r}{tails[r <= tol]}'
                     for label, row in zip(labels, zip(*(c[a:a + step] for c in block.residuals)))
                     for start, r in zip(starts, row)]
        yield lead + comma.join(texts)
        lead = comma
