"""The product chains of the group and reps modules start at their first
factor and compute each relation power once.  Against the identity-started
chains of `rep_oracle` they must give equal values and equal residuals.
Exact representations, object arrays of cyclotomic scalars, run on the
object-array engine of `rep_oracle`, whose chains the library's float
chains share."""

import random
from collections import Counter

import numpy as np
import pytest

import rep_oracle
import synclcs.group as group
import synclcs.matops as matops
import synclcs.reps as reps
from conftest import pentagram_system, planted_system, seeded_unitary
from rep_oracle import (
    conjugate_representation,
    eye_like,
    eye_mat_power,
    eye_relation_residuals,
    eye_spectral_product,
    eye_spectral_projection,
    frob,
    padded,
    pentagram_rep,
)
from synclcs import (
    build_game_graph,
    build_presentation,
    gauss_solve,
    make_representation,
    pauli_magic_square_rep,
)
from synclcs.presets import magic_square_system


def scalar_case(p: int):
    # a zero row with b = 0 gives an empty row-product word and a vertex
    # with no columns
    sys_ = planted_system(random.Random(p), p, 4, [[0, 1, 2], [1, 3], [], [0, 3]])
    return sys_, rep_oracle.scalar_rep_from_solution(sys_, gauss_solve(sys_.A, sys_.b).particular)


def chains(rep):
    """(mat_power, spectral projection of (g, s, p), spectral product,
    relation_residuals, the module group's powers are taken from) of the
    library for a float representation, of rep_oracle's engine for an
    object-array one."""
    if rep.exact:
        return (rep_oracle.mat_power,
                lambda g, s, p: rep_oracle._spectral_projection(g, s, p, True),
                rep_oracle._spectral_product, rep_oracle.relation_residuals, rep_oracle)
    return (matops.mat_power, reps._spectral_projection, reps._spectral_product,
            group.relation_residuals, matops)


def case(name: str):
    if name == "pauli-ms":
        return magic_square_system(), pauli_magic_square_rep()
    if name == "pentagram-d8":
        return pentagram_system(), pentagram_rep()
    if name.startswith("pauli-ms-haar-d32"):
        rep = conjugate_representation(padded(pauli_magic_square_rep(), 8), seeded_unitary(32, 5))
        if name.endswith("fortran"):
            rep = make_representation(2, {k: np.asfortranarray(M) for k, M in rep.images.items()})
        return magic_square_system(), rep
    return scalar_case(int(name[len("scalar-p"):]))


CASES = ["pauli-ms", "pentagram-d8", "pauli-ms-haar-d32", "pauli-ms-haar-d32-fortran",
         "scalar-p3", "scalar-p5", "scalar-p7"]


def assert_same(got: np.ndarray, expected: np.ndarray):
    # exact entries compare by value
    assert np.array_equal(got, expected)
    identity = eye_like(expected)
    assert frob(got - identity) == frob(expected - identity)


@pytest.mark.parametrize("name", CASES)
def test_chains_equal_the_identity_started_chains(name):
    sys_, rep = case(name)
    mat_power, _spectral_projection, _spectral_product, relation_residuals, _ = chains(rep)
    p = rep.p
    for M in rep.images.values():
        for e in range(-p, p + 1):
            power = mat_power(M, e)
            assert power.flags.c_contiguous
            assert_same(power, eye_mat_power(M, e))
    for j in range(1, rep.n + 1):
        for s in range(p):
            assert_same(_spectral_projection(rep.images[f"g{j}"], s, p),
                        eye_spectral_projection(rep.images[f"g{j}"], s, p, rep.exact))
    identity = eye_like(rep.images["J"])
    G = build_game_graph(sys_)
    for i, x in G.vertices:
        cols = sys_.supports[i - 1]
        assert_same(
            _spectral_product(identity, cols, x, lambda j, s: _spectral_projection(
                rep.images[f"g{j}"], s, p)),
            eye_spectral_product(identity, cols, x, lambda j, s: eye_spectral_projection(
                rep.images[f"g{j}"], s, p, rep.exact)))
    pres = build_presentation(sys_)
    assert relation_residuals(rep, pres) == eye_relation_residuals(rep, pres)


@pytest.mark.parametrize("name", ["pauli-ms-haar-d32", "pauli-ms-haar-d32-fortran",
                                  "scalar-p5"])
def test_relation_powers_are_computed_once_and_c_contiguous(monkeypatch, name):
    # evaluating each word on its own took one mat_power call per factor:
    # 137 on the magic square, whose words use 30 distinct powers
    sys_, rep = case(name)
    mat_power, _, _, relation_residuals, powers_of = chains(rep)
    pres = build_presentation(sys_)
    calls, depth = Counter(), []

    def counted(M, e):
        # mat_power of a negative exponent calls itself through the patched
        # name; only the calls of the relation checks count
        if not depth:
            calls[(id(M), e)] += 1
        depth.append(e)
        try:
            return mat_power(M, e)
        finally:
            depth.pop()

    # the library's group module imports mat_power from matops when it runs
    monkeypatch.setattr(powers_of, "mat_power", counted)
    relation_residuals(rep, pres)
    factors = {factor for rel in pres.relations for factor in rel.word.factors}
    assert dict(calls) == {(id(rep.images[gen]), e): 1 for gen, e in factors if e != 1}

    powers = (rep_oracle if rep.exact else group)._relation_powers(pres, rep.images)
    assert set(powers) == factors
    for (gen, e), power in powers.items():
        assert power.flags.c_contiguous
        if e == 1 and rep.images[gen].flags.c_contiguous:
            assert power is rep.images[gen]
