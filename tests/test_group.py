import pytest

from conftest import random_consistent_system, random_system, seeded_unitary
from rep_oracle import conjugate_representation
from row_oracle import row_support
from synclcs import (
    LinearSystem,
    Representation,
    build_presentation,
    gauss_solve,
    pauli_magic_square_rep,
    relation_residuals,
    scalar_rep_from_solution,
)
from synclcs.errors import DimensionMismatch
from synclcs.group import CENTRAL_J, ORDER_G, ORDER_J, ROW_COMMUTATION, ROW_PRODUCT
from synclcs.scalar import relation_residuals as scalar_relation_residuals
from synclcs.presets import magic_square_system


def test_one_equation_presentation_has_seven_relations():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [1])
    pres = build_presentation(sys_)
    assert len(pres.relations) == 7
    displays = {rel.display() for rel in pres.relations}
    assert displays == {"g1^2", "g2^2", "J^2", "[g1,J]", "[g2,J]", "[g1,g2]",
                        "g1 g2 J^-1"}


def test_magic_square_presentation_counts():
    pres = build_presentation(magic_square_system())
    counts = pres.counts_by_family()
    assert counts == {ORDER_G: 9, ORDER_J: 1, CENTRAL_J: 9,
                      ROW_COMMUTATION: 18, ROW_PRODUCT: 6}
    assert len(pres.relations) == 43
    # no commutation pair repeats
    pairs = [rel.display() for rel in pres.relations if rel.family == ROW_COMMUTATION]
    assert len(pairs) == len(set(pairs))


def test_zero_row_gives_empty_word():
    pres = build_presentation(LinearSystem.from_ints(2, [[0, 0]], [0]))
    row_rels = [r for r in pres.relations if r.family == ROW_PRODUCT]
    assert len(row_rels) == 1
    assert row_rels[0].word.factors == ()
    assert row_rels[0].display() == "1"


def test_relation_count_closed_form(rng):
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        sys_ = random_system(rng, p, rng.randint(1, 5), rng.randint(1, 5))
        pres = build_presentation(sys_)
        pairs = set()
        for i in range(1, sys_.m + 1):
            cols = sorted(row_support(sys_, i))
            pairs.update(
                (a, b) for k, a in enumerate(cols) for b in cols[k + 1:]
            )
        expected = sys_.n + 1 + sys_.n + len(pairs) + sys_.m
        assert len(pres.relations) == expected


def test_all_symbols_are_declared_generators(rng):
    sys_ = random_system(rng, 3, 4, 4)
    pres = build_presentation(sys_)
    declared = set(pres.generators)
    for rel in pres.relations:
        assert {g for g, _ in rel.word.factors} <= declared


def test_scalar_representation_residuals_exactly_zero(rng):
    for _ in range(5):
        sys_ = random_consistent_system(rng, rng.choice([2, 3]),
                                        rng.randint(1, 4), rng.randint(1, 4))
        sol = gauss_solve(sys_.A, sys_.b)
        rep = scalar_rep_from_solution(sys_, sol.particular)
        for rec in scalar_relation_residuals(rep, build_presentation(sys_)):
            assert rec.residual == 0.0


def test_pauli_representation_residuals():
    recs = relation_residuals(pauli_magic_square_rep(),
                              build_presentation(magic_square_system()))
    assert len(recs) == 43
    assert max(r.residual for r in recs) <= 1e-12
    families = {r.detail["family"] for r in recs}
    assert families == {ORDER_G, ORDER_J, CENTRAL_J, ROW_COMMUTATION, ROW_PRODUCT}


def test_perturbed_representation_fails_order_relation():
    rep = pauli_magic_square_rep()
    images = dict(rep.images)
    images["g1"] = images["g1"] * 1.01  # no longer order two
    fake = Representation(2, 4, images)
    recs = relation_residuals(fake, build_presentation(magic_square_system()))
    failing = [r for r in recs if not r.passed]
    assert failing
    assert any(r.name == "relation:order-g:g1" for r in failing)


def test_residuals_invariant_under_conjugation():
    ms = magic_square_system()
    pres = build_presentation(ms)
    rep = pauli_magic_square_rep()
    conj = conjugate_representation(rep, seeded_unitary(4, 7))
    base = relation_residuals(rep, pres)
    moved = relation_residuals(conj, pres)
    for a, b in zip(base, moved):
        assert a.name == b.name
        assert abs(a.residual - b.residual) <= 1e-9


def test_relation_residuals_requires_all_generators():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [0])
    pres = build_presentation(sys_)
    rep = pauli_magic_square_rep()  # has g1..g9 but is checked against n=2
    images = {"g1": rep.images["g1"], "J": rep.images["J"]}
    incomplete = Representation(2, 4, images)
    with pytest.raises(DimensionMismatch):
        relation_residuals(incomplete, pres)


def test_relators_text_format():
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [1])
    text = build_presentation(sys_).to_relators_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# generators: g1, g2, J")
    assert "g1^2" in lines
    assert "[g1,J]" in lines
    assert "g1 g2 J^-1" in lines


def test_presentation_json_shape():
    doc = build_presentation(magic_square_system()).to_json()
    assert doc["p"] == 2 and doc["n"] == 9
    assert doc["generators"][-1] == "J"
    assert len(doc["relations"]) == 43
    assert all({"family", "row", "word", "display"} <= set(rel) for rel in doc["relations"])


def test_p3_row_product_word():
    pres = build_presentation(LinearSystem.from_ints(3, [[1, 2, 0]], [1]))
    row_rel = [r for r in pres.relations if r.family == ROW_PRODUCT][0]
    assert row_rel.word.factors == (("g1", 1), ("g2", 2), ("J", -1))
    assert row_rel.display() == "g1 g2^2 J^-1"
