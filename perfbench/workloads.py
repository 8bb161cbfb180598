"""Workload inputs and per-entry oracles for the synclcs benchmark.

Every input is built here from the workload seed and written as a file;
the program under test only ever sees those files.  Each entry is one
`synclcs` CLI command plus an oracle: the exit code it must return and a
check of the verdicts in its JSON report.  Solvability is known by
construction (planted solutions, parity arguments) and cross-checked with
`gauss_solve` before anything is timed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Mermin's pentagram (PRL 65, 1990): ten 3-qubit Pauli products, one per
# variable, on five lines of four.  Each line's operators commute; the
# first line multiplies to -I and the other four to +I.
PENTAGRAM_OPS = ("XXX", "XYY", "YXY", "YYX", "XII", "IXI", "IIX", "IYI", "IIY", "YII")
PENTAGRAM_LINES = (
    ("XXX", "XYY", "YXY", "YYX"),
    ("XXX", "XII", "IXI", "IIX"),
    ("XYY", "XII", "IYI", "IIY"),
    ("YXY", "YII", "IXI", "IIY"),
    ("YYX", "YII", "IYI", "IIX"),
)

# The two-qubit operator solution of the 3x3 magic square, by grid cell.
MAGIC_SQUARE_OPS = (("IZ", "ZI", "ZZ"), ("XI", "IX", "XX"), ("XZ", "ZX", "YY"))

# Pinned best deterministic values of the unsolvable systems, as the seed
# program reports them (34 of 36 question pairs on the magic square).
BEST_VALUE = {
    "magic-square": "17/18",
    "pentagram": "23/25",
    "magic-square-z3": "17/18",
    "magic-square-4x4": "31/32",
}


@dataclass(frozen=True)
class System:
    name: str
    p: int
    A: list
    b: list
    solvable: bool

    def to_json(self) -> dict:
        return {"p": self.p, "A": self.A, "b": self.b}


@dataclass(frozen=True)
class Entry:
    """One CLI command and its oracle.

    `check` receives the parsed report and returns the list of problems
    found; an entry passes when the command exits with 0 and the list is
    empty.
    """

    name: str
    argv: tuple
    check: Callable[[dict], list]


def magic_square(name: str, p: int, size: int) -> System:
    """size x size grid over Z_p: rows sum to 0, columns to 0 except the
    last, which sums to 1.  Summing all rows and all columns gives 0 = 1,
    so no classical solution exists for any p."""
    A, b = [], []
    for r in range(size):
        A.append([1 if k // size == r else 0 for k in range(size * size)])
        b.append(0)
    for c in range(size):
        A.append([1 if k % size == c else 0 for k in range(size * size)])
        b.append(1 if c == size - 1 else 0)
    return System(name, p, A, b, solvable=False)


def pentagram() -> System:
    """p=2, five lines of four points, line 1 sums to 1.  Every point lies
    on two lines, so the sum of all equations is 0 = 1: unsolvable."""
    A = [[1 if op in line else 0 for op in PENTAGRAM_OPS] for line in PENTAGRAM_LINES]
    return System("pentagram", 2, A, [1, 0, 0, 0, 0], solvable=False)


def planted_system(rng: random.Random, name: str, p: int, n: int, supports) -> tuple[System, list]:
    """Rows with the given supports (0-based columns, relabelled by a seeded
    permutation) and seeded nonzero coefficients; b = A x* for a seeded x*.

    The supports fix the graph sizes, so the cost barely depends on the seed.
    """
    perm = rng.sample(range(n), n)
    xstar = [rng.randrange(p) for _ in range(n)]
    A, b = [], []
    for cols in supports:
        row = [0] * n
        for c in cols:
            row[perm[c]] = rng.randrange(1, p)
        A.append(row)
        b.append(sum(a * x for a, x in zip(row, xstar)) % p)
    return System(name, p, A, b, solvable=True), xstar


def near_prime(rng: random.Random, bits: int) -> int:
    """A seeded prime just below 2**bits (deterministic Miller-Rabin)."""
    q = (1 << bits) - 1 - 2 * rng.randrange(1 << 20)
    while not _miller_rabin(q):
        q -= 2
    return q


def _miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pauli(word: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for ch in word:
        out = np.kron(out, PAULI[ch])
    return out


def pentagram_images() -> dict:
    images = {f"g{j + 1}": pauli(op) for j, op in enumerate(PENTAGRAM_OPS)}
    images["J"] = -np.eye(8, dtype=complex)
    return images


def magic_square_images() -> dict:
    images = {f"g{3 * r + c + 1}": pauli(MAGIC_SQUARE_OPS[r][c])
              for r in range(3) for c in range(3)}
    images["J"] = -np.eye(4, dtype=complex)
    return images


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def padded_conjugate(images: dict, pad: int, U: np.ndarray) -> dict:
    """M -> U (M kron I_pad) U*, for every image including J."""
    eye = np.eye(pad, dtype=complex)
    return {name: U @ np.kron(M, eye) @ U.conj().T for name, M in images.items()}


def rep_document(p: int, images: dict) -> dict:
    """Representation-schema document: generators g1..gn then J."""
    names = sorted((k for k in images if k != "J"), key=lambda k: int(k[1:])) + ["J"]
    dim = images["J"].shape[0]
    return {
        "p": p,
        "dim": dim,
        "omega_convention": "exp(2*pi*i/p)",
        "generators": {k: np.stack([images[k].real, images[k].imag], -1).tolist() for k in names},
    }


# ---------------------------------------------------------------- oracles

def _common(report: dict) -> list:
    verdict = report.get("summary", {}).get("verdict")
    return [] if verdict == "pass" else [f"verdict {verdict!r}"]


def check_validate(report: dict, solvable: bool) -> list:
    problems = _common(report)
    levels = {r["name"]: r["level"] for r in report.get("checks", [])}
    if levels.get("modulus-prime") != "pass":
        problems.append("modulus not accepted as prime")
    if (levels.get("classical-solvability") == "pass") != solvable:
        problems.append("classical-solvability disagrees with construction")
    return problems


def check_solve(report: dict, solvable: bool, best_value: str) -> list:
    problems = _common(report)
    if report.get("linear_system", {}).get("consistent") is not solvable:
        problems.append("linear_system.consistent disagrees with construction")
    if (report.get("perfect_strategy") is not None) != solvable:
        problems.append("perfect strategy present iff solvable violated")
    if report.get("best_value") != best_value:
        problems.append(f"best_value {report.get('best_value')!r} != {best_value!r}")
    return problems


def check_iso(report: dict, solvable: bool) -> list:
    problems = _common(report)
    found = report.get("search", {}).get("outcome") == "found"
    if found != solvable:
        problems.append("isomorphic iff solvable violated "
                        f"(outcome {report.get('search', {}).get('outcome')!r})")
    if solvable and not report.get("translation", {}).get("agrees_with_search"):
        problems.append("translation isomorphism missing or disagreeing")
    return problems


def check_repcheck(report: dict, exact: bool) -> list:
    problems = _common(report)
    summary = report.get("summary", {})
    if summary.get("failures") != 0:
        problems.append(f"{summary.get('failures')} failing checks")
    residual = summary.get("max_residual")
    if exact and residual != 0.0:
        problems.append(f"exact max_residual {residual!r} is not 0.0")
    if not exact and not (isinstance(residual, float) and residual <= report.get("tolerance", -1)):
        problems.append(f"max_residual {residual!r} above tolerance")
    return problems


# ------------------------------------------------------------- workloads

WORKLOADS = ("exact-scalar", "float-operator", "classical")


class InputWriter:
    """Writes input files under `workdir`, named by paths relative to the
    checkout so that reports (which echo their input paths) do not depend
    on where the checkout lives."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.systems: list[System] = []

    def write(self, name: str, doc: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, separators=(",", ":")))
        return path

    def system(self, system: System) -> str:
        self.systems.append(system)
        return self.write(f"{system.name}.json", system.to_json())


def exact_scalar(w: InputWriter, seed: int) -> list:
    rng = random.Random(seed)
    specs = [
        ("p3-324v", 3, 6, [[c for c in range(6) if c != r] for r in range(4)]),
        ("p5-175v", 5, 6, [[0, 1, 2, 3], [2, 3, 4], [0, 4, 5]]),
        ("p7-105v", 7, 5, [[0, 1, 2], [2, 3, 4], [0, 3]]),
    ]
    entries = []
    for name, p, n, supports in specs:
        system, xstar = planted_system(rng, name, p, n, supports)
        path = w.system(system)
        rep = "scalar:" + ",".join(map(str, xstar))
        entries.append(Entry(f"repcheck-{name}", ("repcheck", path, "--rep", rep),
                             lambda r: check_repcheck(r, exact=True)))
    return entries


def float_operator(w: InputWriter, seed: int) -> list:
    rng = np.random.default_rng(seed)
    ms_path = w.system(magic_square("magic-square", 2, 3))
    pg_path = w.system(pentagram())
    reps = {
        "pentagram-d8": pentagram_images(),
        "pentagram-d64": padded_conjugate(pentagram_images(), 8, haar_unitary(rng, 64)),
        "pauli-ms-d256": padded_conjugate(magic_square_images(), 64, haar_unitary(rng, 256)),
    }
    rep_paths = {name: w.write(f"{name}.json", rep_document(2, images))
                 for name, images in reps.items()}
    check = lambda r: check_repcheck(r, exact=False)  # noqa: E731
    return [
        Entry("repcheck-pauli-ms-d4", ("repcheck", ms_path, "--rep", "pauli-ms"), check),
        Entry("repcheck-pentagram-d8", ("repcheck", pg_path, "--rep", rep_paths["pentagram-d8"]), check),
        Entry("repcheck-pentagram-d64", ("repcheck", pg_path, "--rep", rep_paths["pentagram-d64"]), check),
        Entry("repcheck-pauli-ms-d256", ("repcheck", ms_path, "--rep", rep_paths["pauli-ms-d256"]), check),
    ]


def classical(w: InputWriter, seed: int) -> list:
    rng = random.Random(seed)
    entries = []

    def solve(system: System):
        entries.append(Entry(f"solve-{system.name}", ("solve", w.system(system)),
                             lambda r: check_solve(r, system.solvable, BEST_VALUE.get(system.name, "1"))))

    def iso(system: System):
        entries.append(Entry(f"iso-{system.name}", ("iso", w.system(system)),
                             lambda r: check_iso(r, system.solvable)))

    def validate(system: System):
        entries.append(Entry(f"validate-{system.name}", ("validate", w.system(system)),
                             lambda r: check_validate(r, system.solvable)))

    for system in (magic_square("magic-square", 2, 3), pentagram()):
        solve(system)
        iso(system)
    solve(magic_square("magic-square-z3", 3, 3))
    solve(magic_square("magic-square-4x4", 2, 4))
    iso(planted_system(rng, "p7-441v", 7, 7, [[0, 1, 2, 3], [3, 4, 5], [0, 5, 6]])[0])
    q = near_prime(rng, 46)
    one_eq = System("p46bit", q, [[1, rng.randrange(1, q)]], [rng.randrange(q)], solvable=True)
    validate(one_eq)
    return entries


def build(workload: str, workdir: str, seed: int):
    """Write the workload's inputs; return its entries and its systems."""
    os.makedirs(workdir, exist_ok=True)
    w = InputWriter(workdir)
    if workload == "exact-scalar":
        entries = exact_scalar(w, seed)
    elif workload == "float-operator":
        entries = float_operator(w, seed)
    elif workload == "classical":
        entries = classical(w, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return entries, w.systems
