"""load_representation converts each generator's matrix as soon as it is
decoded.  Against json.load and representation_from_json (the oracle in
`rep_oracle`) it must give bit-identical images, or raise the same
exception with the same message, and it must hold far less than the
decoded lists of the whole file."""

import json
import re
import tracemalloc

import numpy as np
import pytest

import synclcs.reps as reps_module
from conftest import seeded_unitary
from rep_oracle import (
    conjugate_representation,
    json_load_representation,
    padded,
    pentagram_rep,
    representation_to_json,
)
from synclcs import load_representation, pauli_magic_square_rep, representation_from_json
from synclcs.cli import main
from synclcs.errors import ParseError

BASE = representation_to_json(pauli_magic_square_rep())
COMPACT = json.dumps(BASE, separators=(",", ":"))
SENTINEL = 12345.5  # an entry whose text a case rewrites
TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": .*$', re.MULTILINE)


def with_generator_entry(value) -> dict:
    """BASE with the first entry of g3 replaced."""
    gens = {name: [[list(pair) for pair in row] for row in M]
            for name, M in BASE["generators"].items()}
    gens["g3"][0][0] = [value, 0.0]
    return dict(BASE, generators=gens)


def members(pairs) -> str:
    """A JSON object from (key, value text) pairs, duplicates kept."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"


def generators_text(before=(), after=()) -> str:
    pairs = [(name, json.dumps(M)) for name, M in BASE["generators"].items()]
    return members([*before, *pairs, *after])


def document_text(generators: str, **fields) -> str:
    head = [(key, json.dumps(fields.get(key, BASE[key]))) for key in ("p", "dim", "omega_convention")]
    return members(head + [("generators", generators)])


def ragged() -> dict:
    doc = with_generator_entry(0.0)
    doc["generators"]["g3"][1].pop()
    return doc


CASES = {
    "pretty": json.dumps(BASE, indent=2),
    "compact": COMPACT,
    "keys-reversed": json.dumps({key: (dict(reversed(value.items())) if key == "generators" else value)
                                 for key, value in reversed(BASE.items())}),
    "duplicate-generator-last-good": document_text(generators_text(before=[("g1", '"junk"')])),
    "duplicate-generator-last-bad": document_text(generators_text(after=[("g1", '"junk"')])),
    "duplicate-generators-object": COMPACT.replace('"generators":', '"generators":{"g1":[[1]]},"generators":'),
    "escaped-key": COMPACT.replace('"g1"', '"g\\u0031"'),
    "escaped-generators-key": COMPACT.replace('"generators"', '"gener\\u0061tors"'),
    "bom": "\ufeff" + COMPACT,
    "trailing-data": COMPACT + " {}",
    "trailing-whitespace": COMPACT + " \n\t\r\n",
    "leading-whitespace": "\n  " + COMPACT,
    "top-level-list": "[1, 2]",
    "top-level-number": "42",
    "empty": "",
    "nan": json.dumps(with_generator_entry(float("nan"))),
    "infinity": json.dumps(with_generator_entry(float("inf"))),
    "minus-infinity": json.dumps(with_generator_entry(float("-inf"))),
    "null": json.dumps(with_generator_entry(None)),
    "bool": json.dumps(with_generator_entry(True)),
    "false": json.dumps(with_generator_entry(False)),
    "string": json.dumps(with_generator_entry("1.0")),
    "negative-string": json.dumps(with_generator_entry("-1")),
    "ragged-rows": json.dumps(ragged()),
    "1e400": json.dumps(with_generator_entry(SENTINEL)).replace(str(SENTINEL), "1e400"),
    "400-digit-int": json.dumps(with_generator_entry(SENTINEL)).replace(str(SENTINEL), "9" * 400),
    "extra-objects": json.dumps(dict(BASE, meta={"generators": {"J": [[1, 2]]}, "list": [{"a": None}]})),
    "convention-object": json.dumps(dict(BASE, omega_convention={"value": [1.0, 2.0]})),
    "generators-list": json.dumps(dict(BASE, generators=[[1.0]])),
    "generator-object": document_text(generators_text(after=[("J", '{"re": [[1.0]]}')])),
    "bad-p-and-ragged": json.dumps(dict(ragged(), p="2")),
    "truncated": COMPACT[: len(COMPACT) // 2],
    "missing-colon": COMPACT.replace('"J":', '"J"'),
    "missing-value": COMPACT.replace('"J":', '"J":,'),
    "unquoted-key": COMPACT.replace('"J":', "J:"),
    "bad-escape-in-key": COMPACT.replace('"J":', '"\\x":'),
    "trailing-comma": COMPACT[:-2] + ",}}",
    "empty-generators": json.dumps(dict(BASE, generators={})),
}
BYTES = {"not-utf8": b'{"p": "\xff"}'}


def outcome(load, path: str):
    try:
        rep = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return rep.p, rep.dim, list(rep.images), [M.view(np.int64) for M in rep.images.values()]


@pytest.mark.parametrize("name", list(CASES) + list(BYTES))
def test_load_matches_json_load(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(BYTES[name] if name in BYTES else CASES[name].encode())
    got, expected = outcome(load_representation, str(path)), outcome(json_load_representation, str(path))
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert got[:3] == expected[:3]
        assert all(np.array_equal(a, b) for a, b in zip(got[3], expected[3]))


@pytest.mark.parametrize("name", ["bool", "false", "string", "negative-string"])
def test_non_numeric_entries_are_refused(tmp_path, name):
    # numpy would read each of them as a float
    path = tmp_path / f"{name}.json"
    path.write_text(CASES[name])
    for load in (load_representation, json_load_representation):
        with pytest.raises(ParseError, match="matrix for g3 is not numeric"):
            load(str(path))
    with pytest.raises(ParseError, match="matrix for g3 is not numeric"):
        representation_from_json(json.loads(CASES[name]))


@pytest.mark.parametrize("kind", ["str", "bool", "complex", "object-str"])
def test_non_numeric_arrays_are_refused(kind):
    # numpy would convert each of them to float
    J = np.asarray(BASE["generators"]["J"], dtype=float)
    rows = {"str": J.astype(str), "bool": J != 0, "complex": J.astype(complex),
            "object-str": J.astype(object)}[kind]
    if kind == "object-str":
        rows[0, 0, 0] = "-1"
    with pytest.raises(ParseError, match="matrix for J is not numeric"):
        representation_from_json(dict(BASE, generators=dict(BASE["generators"], J=rows)))


def test_int_and_float_arrays_load():
    expected = representation_from_json(BASE)
    for dtype in (float, np.int64):
        gens = {name: np.asarray(M, dtype=dtype) for name, M in BASE["generators"].items()}
        rep = representation_from_json(dict(BASE, generators=gens))
        assert all(np.array_equal(rep.images[name], M) for name, M in expected.images.items())


@pytest.mark.parametrize("name", ["convention-object", "trailing-data"])
def test_cli_refusal_matches_json_load(capsys, tmp_path, monkeypatch, name):
    system, rep = tmp_path / "ms.json", tmp_path / "rep.json"
    assert main(["examples", "magic-square", "--out-file", str(system)]) == 0
    rep.write_text(CASES[name])
    capsys.readouterr()
    reports = []
    for load in (load_representation, json_load_representation):
        monkeypatch.setattr(reps_module, "load_representation", load)
        assert main(["repcheck", str(system), "--rep", str(rep)]) == 3
        reports.append(capsys.readouterr().out)
    assert json.loads(reports[0])["error"]["type"] == "ParseError"
    assert TIMESTAMP_LINE.sub("", reports[0]) == TIMESTAMP_LINE.sub("", reports[1])


def test_load_holds_one_generator_of_lists(tmp_path):
    # json.load held every generator's lists at once: 4.3 times the file
    rep = conjugate_representation(padded(pentagram_rep(), 8), seeded_unitary(64, 3))
    path = tmp_path / "d64.json"
    path.write_text(json.dumps(representation_to_json(rep), separators=(",", ":")))
    tracemalloc.start()
    try:
        loaded = load_representation(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.dim == 64 and len(loaded.images) == 11
    assert peak <= 2.5 * path.stat().st_size
