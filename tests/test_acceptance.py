"""End-to-end acceptance checks, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` for the per-criterion
verdict lines.  Everything is seeded and deterministic.
"""

import cmath
import itertools
import random
import re
from fractions import Fraction

import numpy as np

from closure_game import relationship
from conftest import (
    brute_force_row_solutions,
    edges_preserved,
    random_system,
    seeded_unitary,
)
from rep_oracle import checked_family, conjugate_representation
from synclcs import (
    LinearSystem,
    best_deterministic_strategy,
    build_game_graph,
    build_presentation,
    build_synclcs_game,
    check_iso_relations,
    check_mutual_inverse,
    find_perfect_deterministic,
    gauss_solve,
    iso_generator_images,
    iso_partition_checks,
    isomorphism_search,
    make_representation,
    pauli_magic_square_rep,
    phi_welldefinedness_checks,
    projection_family_checks,
    relation_residuals,
    row_solutions,
    run_check_suite,
    scalar_rep_from_solution,
    translate_isomorphism,
)
from synclcs.cli import main
from synclcs.presets import magic_square_system, one_eq_system, p3_demo_system

SEED = 20260811
TOL = 1e-9


def _verdict(name: str, ok: bool):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _sample_systems():
    rng = random.Random(SEED)
    return [
        random_system(rng, rng.choice([2, 3]), rng.randint(1, 5), rng.randint(1, 5))
        for _ in range(100)
    ]


def test_solution_set_cardinality():
    """200 random nonzero rows: the restricted solution count is exactly
    p^(support size - 1), cross-checked against brute-force enumeration."""
    rng = random.Random(SEED + 1)
    checked = 0
    ok = True
    while checked < 200:
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 6)
        support_size = rng.randint(1, min(5, n))
        cols = rng.sample(range(n), support_size)
        row = [0] * n
        for c in cols:
            row[c] = rng.randint(1, p - 1)
        sys_ = LinearSystem.from_ints(p, [row], [rng.randrange(p)])
        sols = row_solutions(sys_, 1)
        expected = p ** (support_size - 1)
        brute = brute_force_row_solutions(sys_, 1)
        ok = ok and len(sols) == expected
        ok = ok and set(sols) == brute
        checked += 1
    _verdict("solution-set cardinality (200 rows)", ok)


def test_classical_equivalence_chain():
    """Linear solvability, perfect deterministic strategy existence, and
    graph isomorphism existence coincide on 100 random systems; for the
    consistent ones the translation map is a full isomorphism."""
    ok = True
    for sys_ in _sample_systems():
        consistent = gauss_solve(sys_.A, sys_.b) is not None
        game = build_synclcs_game(sys_)
        strat = find_perfect_deterministic(game)
        ok = ok and (strat is not None) == consistent
        G = build_game_graph(sys_)
        H = build_game_graph(sys_, homogeneous=True)
        result = isomorphism_search(G, H)
        ok = ok and (result.bijection is not None) == consistent
        if consistent:
            xstar = gauss_solve(sys_.A, sys_.b).particular
            bij = translate_isomorphism(G, H, xstar)
            ok = ok and edges_preserved(G, H, bij)
        if not ok:
            break
    _verdict("classical equivalence chain (100 systems)", ok)


def test_magic_square_negative_case():
    """The built-in 6x9 parity system: linearly inconsistent, best
    deterministic value exactly 34/36 (verified against exhaustive search),
    and no graph isomorphism after full exhaustion at 24 vertices."""
    ms = magic_square_system()
    ok = gauss_solve(ms.A, ms.b) is None

    game = build_synclcs_game(ms)
    ok = ok and find_perfect_deterministic(game) is None
    # oracle: outputs outside a row's solution set lose every pair
    # involving that row, so exhausting per-row solutions is exact
    per_row = [row_solutions(ms, i) for i in game.inputs]
    oracle_best = max(
        sum(
            1
            for a, i in enumerate(game.inputs)
            for c, j in enumerate(game.inputs)
            if game.wins(choice[a], choice[c], i, j)
        )
        for choice in itertools.product(*per_row)
    )
    ok = ok and Fraction(oracle_best, 36) == Fraction(34, 36)
    _, best_value = best_deterministic_strategy(game)
    ok = ok and best_value == Fraction(34, 36)

    G = build_game_graph(ms)
    H = build_game_graph(ms, homogeneous=True)
    ok = ok and G.order() == 24 and H.order() == 24
    result = isomorphism_search(G, H)
    ok = ok and result.bijection is None and result.outcome == "exhausted"
    _verdict("magic-square negative case", ok)


def test_scalar_representation_residuals_exactly_zero():
    """On every consistent sampled system, the scalar representation from
    a classical solution certifies all identities with residual exactly 0:
    group relations, family invariants, generator-map well-definedness,
    and both round trips."""
    ok = True
    count = 0
    for sys_ in _sample_systems():
        sol = gauss_solve(sys_.A, sys_.b)
        if sol is None:
            continue
        count += 1
        rep = scalar_rep_from_solution(sys_, sol.particular)
        records = [rec for rec in run_check_suite(rep, sys_, TOL)
                   if rec.name.startswith(("relation:", "psi-", "phi-", "roundtrip-"))]
        ok = ok and bool(records) and all(rec.residual == 0.0 for rec in records)
        if not ok:
            break
    _verdict(f"exact-zero residuals on scalar representations ({count} systems)", ok)


def test_pauli_representation_residuals():
    """The 4-dimensional operator solution passes every identity at 1e-9:
    all 43 group relations, family invariants, well-definedness
    discrepancies, and both round trips."""
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    relations = relation_residuals(rep, build_presentation(ms), TOL)
    ok = len(relations) == 43
    fam = checked_family(rep, ms, TOL)
    records = (
        relations
        + projection_family_checks(fam, TOL)
        + phi_welldefinedness_checks(fam, TOL)
        + check_mutual_inverse(fam, TOL)
    )
    ok = ok and all(rec.residual <= TOL for rec in records)
    _verdict("operator-solution residuals at 1e-9", ok)


def _iso_zero_quadruples_oracle(sys_) -> tuple[int, int]:
    """Count rule-zero generator quadruples straight from the graphs: all
    of them, and those in which each generator's G vertex and H vertex
    lie in the same row (both factors structurally nonzero)."""
    G = build_game_graph(sys_)
    H = build_game_graph(sys_, homogeneous=True)
    zero = same_row = 0
    for vg1 in G.vertices:
        for vg2 in G.vertices:
            rel_g = relationship(G, vg1, vg2)
            for vh1 in H.vertices:
                for vh2 in H.vertices:
                    if rel_g != relationship(H, vh1, vh2):
                        zero += 1
                        same_row += vg1[0] == vh1[0] and vg2[0] == vh2[0]
    return zero, same_row


def _quadruple_counts(records) -> tuple[int, int]:
    detail = next(r for r in records if r.name == "iso-rule-orthogonality").detail
    return detail["zero_quadruples"], detail["with_nonzero_factors"]


def test_isomorphism_game_identities():
    """Partition-of-unity identities and rule orthogonality of the
    isomorphism-game generator family, on both representation sources."""
    ok = True
    # operator source: the magic square
    ms = magic_square_system()
    fam = checked_family(pauli_magic_square_rep(), ms, TOL)
    H = iso_generator_images(fam)
    partition = iso_partition_checks(fam, H, TOL)
    rules = check_iso_relations(fam, H, TOL)
    ok = ok and all(rec.residual <= TOL for rec in partition + rules)
    ok = ok and _quadruple_counts(rules) == _iso_zero_quadruples_oracle(ms)

    # scalar source: small consistent sampled systems plus the presets
    scalar_targets = [one_eq_system(), p3_demo_system()]
    for sys_ in _sample_systems():
        if len(scalar_targets) >= 7:
            break
        sol = gauss_solve(sys_.A, sys_.b)
        if sol is None:
            continue
        if build_game_graph(sys_).order() <= 30:
            scalar_targets.append(sys_)
    for sys_ in scalar_targets:
        sol = gauss_solve(sys_.A, sys_.b)
        rep = scalar_rep_from_solution(sys_, sol.particular)
        records = [rec for rec in run_check_suite(rep, sys_, TOL)
                   if rec.name.startswith(("iso-sum-over-", "iso-idempotent", "iso-selfadjoint",
                                           "iso-rule-orthogonality"))]
        ok = ok and all(rec.residual <= TOL for rec in records)
        if build_game_graph(sys_).order() <= 15:
            ok = ok and _quadruple_counts(records) == _iso_zero_quadruples_oracle(sys_)

    # a zero row with nonzero b: an empty G block beside a one-vertex H block
    zero_row = LinearSystem.from_ints(3, [[1, 1, 0], [0, 0, 0]], [1, 2])
    phases = {"g1": 1, "g2": 0, "g3": 0, "J": 1}  # x = (1, 0, 0) solves row 1
    rep = make_representation(3, {
        name: np.array([[cmath.exp(2j * cmath.pi * k / 3)]]) for name, k in phases.items()})
    fam = checked_family(rep, zero_row, TOL)
    rules = check_iso_relations(fam, iso_generator_images(fam))
    ok = ok and _quadruple_counts(rules) == _iso_zero_quadruples_oracle(zero_row)
    _verdict("isomorphism-game identities on both sources", ok)


def test_unitary_conjugation_invariance():
    """Conjugating the operator solution by a random unitary changes no
    verdict and moves no residual by more than 1e-9."""
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    conj = conjugate_representation(rep, seeded_unitary(4, SEED))
    base = run_check_suite(rep, ms, TOL)
    moved = run_check_suite(conj, ms, TOL)
    ok = [r.name for r in base] == [r.name for r in moved]
    for a, b in zip(base, moved):
        ok = ok and a.passed == b.passed and abs(a.residual - b.residual) <= 1e-9
    _verdict("unitary-conjugation invariance", ok)


TIMESTAMP_LINE = re.compile(r'^\s*"timestamp": .*$', re.MULTILINE)


def test_report_determinism(capsys, tmp_path):
    """Repeating any CLI command on the built-in examples produces
    byte-identical reports apart from the volatile timestamp field."""

    def run(argv):
        code = main(argv)
        return code, TIMESTAMP_LINE.sub("", capsys.readouterr().out)

    ok = True
    for name in ("magic-square", "one-eq", "p3-demo"):
        path = str(tmp_path / f"{name}.json")
        code, _ = run(["examples", name, "--out-file", path])
        ok = ok and code == 0
        commands = [
            ["validate", path],
            ["analyze", path],
            ["solve", path],
            ["graph", path],
            ["iso", path],
            ["group", path],
            ["group", path, "--format", "relators"],
        ]
        if name == "magic-square":
            commands.append(["repcheck", path, "--rep", "pauli-ms"])
        elif name == "one-eq":
            commands.append(["repcheck", path, "--rep", "scalar:0,0"])
        else:
            commands.append(["repcheck", path, "--rep", "scalar:1,0,0"])
        for argv in commands:
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            ok = ok and code1 == code2 and out1 == out2
            if not ok:
                break
    _verdict("report determinism across built-ins", ok)
