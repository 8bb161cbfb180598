"""Pinned digests of whole CLI reports.

Each case runs one command and compares the sha256 of its stdout, with the
volatile "timestamp" line removed, against a digest recorded from an
earlier build.  The determinism tests only compare two runs of the same
code; these catch a refactor that changes any byte of a report.

Only reports without float residuals are pinned (classical commands and
exact scalar certification), so the digests do not depend on the BLAS
build.  Commands run from a temporary directory with relative file names,
so the echoed input paths are stable.  Error and refusal reports are pinned
too, so their shapes cannot drift either.
"""

import cmath
import hashlib
import json
import random
import re

import pytest

from conftest import (
    P7_441_SUPPORTS,
    planted_system,
    random_consistent_system,
    wide_modulus_system,
)
from synclcs.cli import main
from synclcs import LinearSystem
from synclcs.presets import magic_square_system, p3_demo_system

TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": .*$', re.MULTILINE)

SYSTEMS = {
    "ms.json": magic_square_system,
    "p3.json": p3_demo_system,
    "s3.json": lambda: random_consistent_system(random.Random(3), 3, 3, 4),
    "s5.json": lambda: random_consistent_system(random.Random(5), 5, 2, 3),
    # a zero row with b = 0, and row 3 repeating row 1
    "z3.json": lambda: LinearSystem.from_ints(
        3, [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 2]], [1, 0, 1, 2]),
    # a zero row with b != 0, row 3 repeating row 1, and rows 1 and 4 on
    # disjoint supports
    "zb3.json": lambda: LinearSystem.from_ints(
        3, [[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 2], [0, 1, 1, 0]],
        [1, 2, 1, 0, 2]),
    # residues above int64
    "wide.json": wide_modulus_system,
    "s7.json": lambda: LinearSystem.from_ints(7, [[1, 2, 0], [0, 3, 1], [1, 5, 4]], [6, 0, 3]),
    # 441 vertices per graph: the search maps every vertex, so the report
    # pins a whole bijection found 441 levels deep
    "p7.json": lambda: planted_system(random.Random(7), 7, 7, P7_441_SUPPORTS),
}


def _one_dim_rep(p: int, n: int) -> dict:
    omega = cmath.exp(2j * cmath.pi / p)
    generators = {f"g{j}": [[[1.0, 0.0]]] for j in range(1, n + 1)}
    generators["J"] = [[[omega.real, omega.imag]]]
    return {"p": p, "dim": 1, "omega_convention": "exp(2*pi*i/p)", "generators": generators}


# documents the error reports read, written as they are
DOCUMENTS = {
    "c6.json": {"p": 6, "A": [[1, 1]], "b": [0]},
    "ragged.json": {"p": 2, "A": [[1, 1], [1]], "b": [0, 0]},
    "p37.json": {"p": 37, "A": [[1]], "b": [0]},
    # a valid p=3 representation with as many generators as ms.json has variables
    "rep3.json": _one_dim_rep(3, 9),
}

CLASSICAL = [
    ["solve"], ["iso"], ["analyze"], ["graph"], ["graph", "--homogeneous"], ["group"],
]

CASES = [
    (cmd[0], path, *cmd[1:])
    for path in ("ms.json", "p3.json", "s3.json")
    for cmd in CLASSICAL
] + [
    ("repcheck", "p3.json", "--rep", "scalar:1,0,0"),
    ("repcheck", "s3.json", "--rep", "scalar:1,1,2,0"),
    ("repcheck", "s5.json", "--rep", "scalar:3,2,0"),
    ("repcheck", "z3.json", "--rep", "scalar:1,0,1"),
    ("repcheck", "s7.json", "--rep", "scalar:3,5,6"),
    ("iso", "p7.json"),
] + [
    (command, path) for path in ("zb3.json", "wide.json") for command in ("analyze", "graph", "iso")
]

GOLDEN = {
    "solve ms.json": (0, "047419123ed9e88c15f615900c962dfe77e68c61d236f2f17ddc1e98bef2f109"),
    "iso ms.json": (0, "d352a7d6a94324b124eeed65cf46bc498476975af21b8b47c913dad92b27f924"),
    "analyze ms.json": (0, "59812eb65202ec646edcc453f87183ff661cea27f27195f311faab170f0c2b4c"),
    "graph ms.json": (0, "7ad04995f809772b6e6dd6f66871e2b3ccdfcf63ff210ff5c9d80427f790bac9"),
    "graph ms.json --homogeneous": (0, "ff53c4b90000d586b2e86489abf4e591a00ea754defd8bad4eb4085c3e14e7db"),
    "group ms.json": (0, "8202b846ee18d0c3cb8aad252241804a593459d42f5c218346aebc7efef3d816"),
    "solve p3.json": (0, "c530ed45b8816e42d21c66ab2524c89701a2f45e85faf904e0faf944901120c4"),
    "iso p3.json": (0, "2ad231423d06491399ea416dd42309349a6b6db614136532ebd8a577681a457f"),
    "analyze p3.json": (0, "bfada383dd68077406e5c64e4fec4780ebd19fb607797867343d17289899e578"),
    "graph p3.json": (0, "bcabea353d88c4b787f30c64d95e2cb60cb602ec2b891347af509efaa51f2bcd"),
    "graph p3.json --homogeneous": (0, "add37a66bb29b9bbdbade26b1ea0ce03f27333f0535c24b78e1321dcd25c5753"),
    "group p3.json": (0, "58a3b20529b46e7817bca6902cef0365a8b2346e8bc9e98ff377c5db146af1f7"),
    "solve s3.json": (0, "553a3046a8ffb59eeb1984d0d9329be6844165ff98e23783d2e6f0acb9a164ee"),
    "iso s3.json": (0, "f86356befd6ab849f3d000cec72af8d13bb71fc25454dfbd04018c6f23737826"),
    "analyze s3.json": (0, "ad8e03452e8d3b5a51911b67bb9e56a834552ae6c0524f625e3baa0fe8c778e4"),
    "graph s3.json": (0, "dcb8b52789b707cb6d217eaa34c76361dc05674c6b09e04059237d9f399ef84e"),
    "graph s3.json --homogeneous": (0, "065e1106ce46da84f28fe508c2be141fef5a00cde967bc5934e50b39bc230a2c"),
    "group s3.json": (0, "29a0276b982d18123467b613f5cf328c098be1c3a2b93fae87cd6f240670dce8"),
    "repcheck p3.json --rep scalar:1,0,0": (0, "b3cc19875aaba96091db9bdf7961fd943be387904aab13108605bc1e8ffea55a"),
    "repcheck s3.json --rep scalar:1,1,2,0": (0, "a1b6cdb8d84984d45dfb99819fd27b830acd05aca83c0ae5022c2b340ffe633f"),
    "repcheck s5.json --rep scalar:3,2,0": (0, "d397c420030d9c3a918bc25f8c2b13b4d857c018721883a319fefc55e2d53854"),
    "repcheck z3.json --rep scalar:1,0,1": (0, "970ce6e8146a95b05d436f731b97eceb1a277b3d6672251071b8becd6b67319d"),
    "repcheck s7.json --rep scalar:3,5,6": (0, "1b999e9304937cc12fee36c73e3276cd7aaef20a97a69b7ab85788bfd405af70"),
    "iso p7.json": (0, "8d151b5f55fed88d0244395d5871b317e0ad041cf6668e41ffb245de5c8ff76b"),
    "analyze zb3.json": (0, "5dcb9977699a2e87d424ee6a83c32aac807c21bf33fef94e7306ce27dc9a4ab1"),
    "graph zb3.json": (0, "0d29a69604be22b1043a0716c362e76bd56fdef159415f863dd23d8d95874105"),
    "iso zb3.json": (0, "ebd0e6ed5393a5cd1b9393590f6be1b259d258285b67beab65e977dd6085f728"),
    "analyze wide.json": (0, "a6eb2ed7d0838a8552287f367a63de727a3f7841d68d48f9458268866232bdf3"),
    "graph wide.json": (0, "a5b1b8b237738c7d99b5d8d1d6433945f4f40f5092612be0227112c067d54d57"),
    "iso wide.json": (0, "734e4019ad5ad3c1197186f703419be4632c14ebee27bc773dd6e49526aa867c"),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, build in SYSTEMS.items():
        (tmp_path / name).write_text(json.dumps(build().to_json()))
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_digest(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    out = TIMESTAMP_LINE.sub("", capsys.readouterr().out)
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_report_matches_golden_digest(argv, workdir, capsys):
    assert run_digest(argv, capsys) == GOLDEN[" ".join(argv)]


# reports that end in a validation failure, a parse error, a cap or a
# repcheck refusal; a leading NAME=value sets an environment variable
ERROR_GOLDEN = {
    "validate c6.json": (2, "d06cf316a33319d1e941c1c48ea8292467a5104abf4b30cad97c8a751f1f9453"),
    "solve c6.json": (2, "539ce7c3fbc7d738f0b6dc3a7e5c050326105e00a8da7bc99d2126e2a86e221d"),
    "validate ragged.json": (3, "36cfab4364e272a0da334b1cc79fc89aa72fd0add672f3aaf5611e2f35fdf8fe"),
    "SYNCLCS_SEARCH_BUDGET=5 iso ms.json": (4, "daf8b8d0f885f47cc7074f6bb44eca608d4cf2932cbe8be25e63c1e6648611ea"),
    "examples nope": (2, "025567de417dd4943c73f50013b54d21a60f1fcc9ef22f569709a2fdfd072b0c"),
    "repcheck p3.json --rep scalar:0,0,0": (2, "91e75bd87e02931531a100e44ba12dcc8e85d8d5368a53a2d922d70572b7415b"),
    "repcheck p3.json --rep pauli-ms": (2, "e417f17cd9d68877eba09ead78d36d56ea7f43ee79b19583b53290f87b205a22"),
    "repcheck ms.json --rep rep3.json": (2, "ca9ff3334ad20056df030fc2b2897f37ff03bef4c44ffc8d2a44db94fe883f24"),
    "repcheck p37.json --rep scalar:0": (4, "4f5a18972cb2eb90778371f83122b02674d301cad0755560457ceb5f5a6145b9"),
}


@pytest.mark.parametrize("case", ERROR_GOLDEN)
def test_error_report_matches_golden_digest(case, workdir, capsys, monkeypatch):
    argv = case.split()
    while "=" in argv[0]:
        name, value = argv.pop(0).split("=")
        monkeypatch.setenv(name, value)
    assert run_digest(argv, capsys) == ERROR_GOLDEN[case]


# sha256 of the whole file written by `graph --dot`
DOT_CASES = [
    (path, *flags)
    for path in ("ms.json", "p3.json", "s3.json")
    for flags in ((), ("--homogeneous",))
] + [("zb3.json",), ("wide.json",)]

DOT_GOLDEN = {
    "ms.json": (0, "49360eb7abb99751339d97347c417919912f4010b99cb19268ea2e49b064c410"),
    "ms.json --homogeneous": (0, "174a2323bfb47078c24fb3c7bf63e0a838b0fe249dea8bd11a94096a09a5f620"),
    "p3.json": (0, "64e145520c04d91a3bf08ab90db7791732ebcc1ccb7e0b7dfcb748a130d9e5a3"),
    "p3.json --homogeneous": (0, "f5ca35930a99dc606f765b8d5d7fd40f93418af0dd142d7146edbac6f4e683e9"),
    "s3.json": (0, "2d29268ac0f156a6400be2a5f360ceb492235d13589e432f9a6d48e7d5a703d2"),
    "s3.json --homogeneous": (0, "3adb17e60294580e5d307a84aedc8f01ba2d479b98689f6acaaac505878625a5"),
    "zb3.json": (0, "c3ff0c8183eefd6289cbf33c56d6e13a932ddec5b379913eb26570d017f66672"),
    "wide.json": (0, "a750e3ac07fc046bb3323354aaccd1e15aeebb543846c89b2f7780a13f6ff9f2"),
}


@pytest.mark.parametrize("argv", DOT_CASES, ids=" ".join)
def test_dot_file_matches_golden_digest(argv, workdir, capsys):
    code = main(["graph", *argv, "--dot", "out.dot"])
    capsys.readouterr()
    digest = hashlib.sha256((workdir / "out.dot").read_bytes()).hexdigest()
    assert (code, digest) == DOT_GOLDEN[" ".join(argv)]
