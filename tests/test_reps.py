import gc
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rep_oracle
import synclcs.scalar as scalar_module
from conftest import json_like, pentagram_system, random_consistent_system, seeded_unitary, zvec
from rep_oracle import (
    IsoGeneratorFamily,
    all_at_once_partition_checks,
    as_matrices,
    cached_check_mutual_inverse,
    cached_iso_partition_checks,
    cached_phi_welldefinedness_checks,
    cached_projection_family_checks,
    checked_family,
    conjugate_representation,
    dagger,
    engine_of,
    expanded,
    frob,
    padded,
    pentagram_rep,
    per_record_check_suite,
    psi_image,
    representation_to_json,
    save_representation,
)
from synclcs import (
    LinearSystem,
    ZpVector,
    build_game_graph,
    check_iso_relations,
    check_mutual_inverse,
    f_projection,
    gauss_solve,
    iso_generator_images,
    iso_partition_checks,
    load_representation,
    make_representation,
    pauli_magic_square_rep,
    phi_welldefinedness_checks,
    projection_family_checks,
    representation_from_json,
    row_solutions,
    run_check_suite,
    scalar_rep_from_solution,
)
from synclcs.errors import (
    JNotIdentified,
    NonCommutingFactors,
    NotASolution,
    ParseError,
    SyncLCSError,
    UnitarityViolation,
)
from synclcs.cyclotomic import Cyclotomic
from synclcs.presets import magic_square_system, one_eq_system, p3_demo_system
from synclcs.reporting import CheckRecord
from synclcs.reps import _assemble_family, omega_pow, psi_iso_consistency_checks

TOL = 1e-9


def scalar_value(M):
    """The complex value of a 1x1 image, or of a scalar representation's image."""
    return complex(M[0, 0] if isinstance(M, np.ndarray) else M)


# ---------------------------------------------------------------- scalar reps


def test_scalar_rep_p2_values():
    rep = scalar_rep_from_solution(one_eq_system(), zvec(2, 1, 1))
    assert scalar_value(rep.images["g1"]) == -1
    assert scalar_value(rep.images["g2"]) == -1
    assert scalar_value(rep.images["J"]) == -1
    assert rep.exact and rep.dim == 1


def test_scalar_rep_p3_row_product():
    rep = scalar_rep_from_solution(p3_demo_system(), zvec(3, 1, 0, 0))
    # g1 * g2^2 = omega * 1 = image(J)
    product = rep.images["g1"] * rep.images["g2"] ** 2
    assert product == rep.images["J"]


def test_scalar_rep_rejects_non_solution():
    with pytest.raises(NotASolution):
        scalar_rep_from_solution(one_eq_system(), zvec(2, 1, 0))


# ----------------------------------------------------------------- pauli rep


def test_pauli_generators_square_to_identity():
    rep = pauli_magic_square_rep()
    eye = np.eye(4)
    for j in range(1, 10):
        g = rep.images[f"g{j}"]
        assert np.array_equal(g @ g, eye + 0j)


def test_pauli_last_column_product_is_minus_identity():
    rep = pauli_magic_square_rep()
    product = rep.images["g3"] @ rep.images["g6"] @ rep.images["g9"]
    assert frob(product + np.eye(4)) <= 1e-12
    for triple in [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8)]:
        prod = np.eye(4, dtype=complex)
        for j in triple:
            prod = prod @ rep.images[f"g{j}"]
        assert frob(prod - np.eye(4)) <= 1e-12


# ------------------------------------------------------------- f projections


def scalar_projections_agree(sys_, x):
    """The by-value projections of the scalar representation at x are the
    object-array engine's spectral projections; returns the engine's rep."""
    rep = rep_oracle.scalar_rep_from_solution(sys_, x)
    images = scalar_rep_from_solution(sys_, x).images
    for j in range(1, sys_.n + 1):
        for s in range(sys_.p):
            assert scalar_module._eigenprojection(sys_.p, images[f"g{j}"], s) == \
                rep_oracle.f_projection(rep, j, s)[0, 0]
    return rep


def test_f_projection_scalar_indicator():
    rep = scalar_projections_agree(p3_demo_system(), zvec(3, 1, 0, 0))
    assert scalar_value(rep_oracle.f_projection(rep, 1, 1)) == 1
    assert scalar_value(rep_oracle.f_projection(rep, 1, 0)) == 0
    assert scalar_value(rep_oracle.f_projection(rep, 1, 2)) == 0
    # g1 = omega^1, so s=0 and s=2 miss the eigenvalue
    assert scalar_value(rep_oracle.f_projection(rep, 2, 0)) == 1  # g2 = omega^0


def test_f_projection_pauli_eigenprojections():
    rep = pauli_magic_square_rep()
    for j in (1, 5, 9):
        g = rep.images[f"g{j}"]
        f0 = f_projection(rep, j, 0)
        f1 = f_projection(rep, j, 1)
        assert frob(f0 - (np.eye(4) + g) / 2) <= 1e-12
        assert frob(f0 + f1 - np.eye(4)) <= 1e-12
        assert frob(f0 @ f1) <= 1e-12
        assert frob(f0 @ f0 - f0) <= 1e-12
        assert frob(dagger(f0) - f0) <= 1e-12


def test_f_family_reconstructs_generator():
    rep = pauli_magic_square_rep()
    for j in range(1, 10):
        total = np.zeros((4, 4), dtype=complex)
        for s in range(2):
            total = total + omega_pow(rep.p, s) * f_projection(rep, j, s)
        assert frob(total - rep.images[f"g{j}"]) <= 1e-12


def test_f_commutation_shift():
    # omega^s f(s) equals g f(s): multiplying by the eigenvalue is the
    # same as applying the generator on its eigenspace
    rep = pauli_magic_square_rep()
    for j in (2, 7):
        g = rep.images[f"g{j}"]
        for s in range(2):
            f = f_projection(rep, j, s)
            assert frob(omega_pow(rep.p, s) * f - g @ f) <= 1e-12


def test_f_identity_generator():
    sys_ = LinearSystem.from_ints(2, [[1, 0]], [0])
    rep = scalar_projections_agree(sys_, zvec(2, 0, 0))
    assert scalar_value(rep_oracle.f_projection(rep, 1, 0)) == 1
    assert scalar_value(rep_oracle.f_projection(rep, 1, 1)) == 0


def test_eigenprojection_of_a_phase_that_is_no_root():
    # a phase sum that is not a p-th root of unity, as a family whose rows
    # disagree would give, projects by the spectral formula, as the
    # object-array engine does
    for p in (2, 3, 5, 7):
        for phase in (0, Cyclotomic(p, [1] * (p - 1) + [0]) / 2,
                      Cyclotomic.omega_power(p, 1) + Cyclotomic.omega_power(p, 2)):
            image = np.empty((1, 1), dtype=object)
            image[0, 0] = phase
            for s in range(p):
                assert scalar_module._eigenprojection(p, phase, s) == \
                    rep_oracle._spectral_projection(image, s, p, True)[0, 0]


# ----------------------------------------------------------------- psi / phi


def test_psi_scalar_indicators():
    sys_ = p3_demo_system()
    rep = rep_oracle.scalar_rep_from_solution(sys_, zvec(3, 1, 0, 0))
    values = [scalar_value(psi_image(rep, sys_, 1, x)) for x in row_solutions(sys_, 1)]
    assert sorted(values, key=lambda z: z.real) == [0, 0, 1]


def test_psi_pauli_rank_one_projections():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    for i in range(1, 7):
        traces = []
        for x in row_solutions(ms, i):
            E = psi_image(rep, ms, i, x)
            assert frob(E @ E - E) <= 1e-12
            traces.append(complex(np.trace(E)))
        assert abs(sum(traces) - 4) <= 1e-12
        assert all(abs(t - 1) <= 1e-12 for t in traces)


def test_psi_single_variable_row_equals_f():
    sys_ = LinearSystem.from_ints(2, [[1, 0]], [0])
    rep = rep_oracle.scalar_rep_from_solution(sys_, zvec(2, 0, 0))
    x = row_solutions(sys_, 1)[0]
    assert scalar_value(psi_image(rep, sys_, 1, x)) == scalar_value(
        rep_oracle.f_projection(rep, 1, x[0])
    )


def test_psi_rejects_non_solution_and_noncommuting():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    with pytest.raises(NotASolution):
        psi_image(rep, ms, 1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    # X and Z anticommute: a fake rep with them in one row must be refused
    sys_ = LinearSystem.from_ints(2, [[1, 1]], [0])
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    fake = make_representation(2, {"g1": X, "g2": Z, "J": -np.eye(2, dtype=complex)})
    with pytest.raises(NonCommutingFactors):
        psi_image(fake, sys_, 1, (0, 0))


def test_build_family_scalar_one_per_row():
    sys_ = p3_demo_system()
    sol = gauss_solve(sys_.A, sys_.b)
    rep = rep_oracle.scalar_rep_from_solution(sys_, sol.particular)
    fam = checked_family(rep, sys_)
    ones = [x for (i, x), E in fam.entries.items() if scalar_value(E) == 1]
    assert len(ones) == 1  # one surviving projection per row, one row here
    for rec in rep_oracle.projection_family_checks(fam):
        assert rec.residual == 0.0
    library = run_check_suite(scalar_rep_from_solution(sys_, sol.particular), sys_)
    assert [r.residual for r in library if r.name.startswith("psi-")] == \
        [0.0] * sum(1 for r in library if r.name.startswith("psi-"))


def test_build_family_pauli_invariants():
    ms = magic_square_system()
    fam = checked_family(pauli_magic_square_rep(), ms)
    recs = projection_family_checks(fam)
    assert max(r.residual for r in recs) <= 1e-9
    names = {r.name.split(":")[0] for r in recs}
    assert names == {"psi-idempotent", "psi-selfadjoint", "psi-orthogonal", "psi-rowsum"}


def test_family_checks_name_the_violation():
    # a unitary that is not an involution breaks idempotency of f-products
    sys_ = one_eq_system()
    theta = np.diag([1, 1j]).astype(complex)
    rep = make_representation(
        2, {"g1": theta, "g2": theta, "J": -np.eye(2, dtype=complex)},
    )
    failing = [rec for rec in projection_family_checks(_assemble_family(rep, sys_, TOL, 2**20))
               if not rec.passed]
    assert failing
    assert all(rec.name.startswith("psi-") for rec in failing)


def test_phi_scalar_recovers_solution_phases():
    sys_ = p3_demo_system()
    rep = rep_oracle.scalar_rep_from_solution(sys_, zvec(3, 1, 0, 0))
    fam = checked_family(rep, sys_)
    # phi(g_j) is the phase sum of the lowest row containing j
    assert scalar_value(fam.phase_sums(1)[1]) == complex(rep_oracle.omega_pow(rep.p, 1, rep.exact))
    assert scalar_value(fam.phase_sums(2)[1]) == 1


def test_phi_pauli_recovers_generators():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    fam = checked_family(rep, ms)
    recs = {r.name: r for r in phi_welldefinedness_checks(fam)}
    for j in range(1, 10):
        per_row = fam.phase_sums(j)
        rows = list(per_row)
        assert rows == sorted(rows) and len(rows) == 2
        assert recs[f"phi-welldefined:g{j}"].detail == {"rows": rows}
        for i in rows:
            assert frob(per_row[i] - rep.images[f"g{j}"]) <= 1e-9
    assert max(r.residual for r in recs.values()) <= 1e-9


def test_phi_unused_variable():
    sys_ = LinearSystem.from_ints(2, [[1, 0]], [0])
    rep = rep_oracle.scalar_rep_from_solution(sys_, zvec(2, 0, 0))
    fam = checked_family(rep, sys_)
    assert fam.phase_sums(2) == {}
    names = [r.name for r in rep_oracle.phi_welldefinedness_checks(fam)]
    assert names == ["phi-welldefined:g1", "phi-valueblock:g1:t=0", "phi-valueblock:g1:t=1"]
    library = run_check_suite(scalar_rep_from_solution(sys_, zvec(2, 0, 0)), sys_)
    assert [r.name for r in library if r.name.startswith("phi-")] == names


def test_mutual_inverse_exact_on_scalar(rng):
    for _ in range(5):
        sys_ = random_consistent_system(rng, rng.choice([2, 3]),
                                        rng.randint(1, 3), rng.randint(1, 3))
        sol = gauss_solve(sys_.A, sys_.b)
        rep = scalar_rep_from_solution(sys_, sol.particular)
        roundtrips = [rec for rec in run_check_suite(rep, sys_)
                      if rec.name.startswith("roundtrip-")]
        assert roundtrips and all(rec.residual == 0.0 for rec in roundtrips)


def test_mutual_inverse_pauli():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    recs = check_mutual_inverse(checked_family(rep, ms))
    assert max(r.residual for r in recs) <= 1e-9
    kinds = {r.name.split(":")[0] for r in recs}
    assert kinds == {"roundtrip-generator", "roundtrip-projection"}


def test_corrupted_family_yields_named_failure():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    fam = _assemble_family(rep, ms, TOL, 2**20)
    key = next(iter(fam.entries))
    fam.entries[key] = np.eye(4, dtype=complex)
    recs = projection_family_checks(fam) + check_mutual_inverse(fam)
    failing = [r for r in recs if not r.passed]
    assert failing
    assert all(r.name for r in failing)


# ------------------------------------------------------------------ iso side


def test_iso_generator_images_structure():
    ms = magic_square_system()
    fam = checked_family(pauli_magic_square_rep(), ms)
    H = iso_generator_images(fam)
    assert len(fam.graph.vertices) == 24 and len(H.vertices) == 24
    # cross-row entries are structurally zero
    vg = fam.graph.vertices[0]
    vh = next(v for v in H.vertices if v[0] != vg[0])
    assert frob(IsoGeneratorFamily(fam).entry(vg, vh)) == 0.0
    recs = iso_partition_checks(fam, H)
    assert len(recs) == 48
    assert max(r.residual for r in recs) <= 1e-9


def test_iso_relations_pauli():
    ms = magic_square_system()
    fam = checked_family(pauli_magic_square_rep(), ms)
    G = build_game_graph(ms)
    recs = check_iso_relations(fam, iso_generator_images(fam))
    by_name = {r.name: r for r in recs}
    assert by_name["iso-rule-orthogonality"].residual <= 1e-9
    detail = by_name["iso-rule-orthogonality"].detail
    assert detail["zero_quadruples"] == (
        detail["with_nonzero_factors"] + detail["trivially_zero"]
    )
    # every rule-zero product reduces to an adjacent-pair product
    assert detail["distinct_products"] == G.edge_count()
    assert by_name["iso-idempotent"].residual <= 1e-9
    assert by_name["iso-selfadjoint"].residual <= 1e-9


def test_iso_relations_scalar_exact():
    sys_ = one_eq_system()
    rep = scalar_rep_from_solution(sys_, zvec(2, 0, 0))
    iso_records = [rec for rec in run_check_suite(rep, sys_)
                   if rec.name.startswith(("iso-idempotent", "iso-selfadjoint",
                                           "iso-rule-orthogonality", "iso-sum-over-"))]
    assert len(iso_records) == 3 + 2 * 2
    for rec in iso_records:
        assert rec.residual == 0.0


def _add(p, x, y):
    """x + y mod p, entry by entry, on solution tuples."""
    return tuple((a + b) % p for a, b in zip(x, y))


def _label(x):
    """"(x_1,...,x_n)", a solution as record names spell it."""
    return "(" + ",".join(str(e) for e in x) + ")"


def _iso_table_oracle(fam):
    """The isomorphism-game generators as an explicit per-pair table, built
    from row_solutions alone: ((i, x), (i, y)) -> family(i, x + y) for x in
    S_i(A,b), y in S_i(A,0); pairs across rows are absent (zero)."""
    sys_ = fam.graph.system
    hom = sys_.homogeneous()
    return {
        ((i, x), (i, y)): fam.entry(i, _add(sys_.p, x, y))
        for i in range(1, sys_.m + 1)
        for x in row_solutions(sys_, i)
        for y in row_solutions(hom, i)
    }


def _iso_oracle_sources():
    ms = magic_square_system()
    yield checked_family(pauli_magic_square_rep(), ms)
    sys_ = random_consistent_system(random.Random(20261018), 3, 3, 4)
    rep = rep_oracle.scalar_rep_from_solution(sys_, gauss_solve(sys_.A, sys_.b).particular)
    yield checked_family(rep, sys_)


def test_iso_family_matches_per_pair_table():
    for fam in _iso_oracle_sources():
        engine = engine_of(fam.rep)
        H, iso = engine.iso_generator_images(fam), IsoGeneratorFamily(fam)
        table = _iso_table_oracle(fam)
        assert table
        for vg in fam.graph.vertices:
            for vh in H.vertices:
                if (vg, vh) in table:
                    assert np.array_equal(iso.entry(vg, vh), table[(vg, vh)])
                else:
                    assert vg[0] != vh[0]
                    assert frob(iso.entry(vg, vh)) == 0.0
        by_name = {r.name: r for r in engine.check_iso_relations(fam, H)}
        idem = max(frob(E @ E - E) for E in table.values())
        adj = max(frob(dagger(E) - E) for E in table.values())
        assert by_name["iso-idempotent"].residual == idem
        assert by_name["iso-selfadjoint"].residual == adj
        sys_ = fam.graph.system
        sizes = [(len(row_solutions(sys_, i)), len(row_solutions(sys_.homogeneous(), i)))
                 for i in range(1, sys_.m + 1)]
        expected = {"generators": sum(g for g, _ in sizes) * sum(h for _, h in sizes),
                    "nonzero": sum(g * h for g, h in sizes)}
        for name in ("iso-idempotent", "iso-selfadjoint"):
            assert by_name[name].detail == expected


def test_check_suite_computes_shared_products_once(monkeypatch):
    # projections are shared per (variable, value) and the residuals,
    # edge products and phase sums per family; computing them per record
    # took 144 projections and 659 norms here
    import synclcs.reps as reps_module

    calls = Counter()
    for name in ("_spectral_projection", "frob"):
        def counted(*args, _name=name, _original=getattr(reps_module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(reps_module, name, counted)
    records = run_check_suite(pauli_magic_square_rep(), magic_square_system())
    assert all(r.passed for r in records)
    assert calls["_spectral_projection"] <= 54
    assert calls["frob"] <= 449


def test_exact_suite_certifies_by_value(monkeypatch):
    # equal exact entries share their products and every iso sum of a row
    # is its row sum; a product per edge and a sum per iso pair took 13,233
    # cyclotomic products and 12,073 norms here, and the 1x1 object arrays
    # of the matrix suite up to 2,000 products and 600 norms
    sys_ = random_consistent_system(random.Random(11), 3, 4, 5)
    rep = scalar_rep_from_solution(sys_, gauss_solve(sys_.A, sys_.b).particular)
    calls = Counter()

    def counting(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)
        return counted

    for method in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Cyclotomic, method, counting("mul", vars(Cyclotomic)[method]))
    monkeypatch.setattr(scalar_module, "_norm", counting("norm", scalar_module._norm))
    records = run_check_suite(rep, sys_)
    assert len(records) == 6390 and all(r.residual == 0.0 for r in records)
    assert calls["mul"] <= 100
    assert calls["norm"] <= 600


def with_zero_row(b: int) -> LinearSystem:
    """The magic square with a seventh row, of zeros, right-hand side b."""
    doc = magic_square_system().to_json()
    return LinearSystem.from_ints(2, doc["A"] + [[0] * 9], doc["b"] + [b])


@pytest.mark.parametrize("name", ["pauli-ms", "pentagram-d8", "zero-row-b1", "zero-row-b0"])
def test_float_partition_sums_match_all_at_once(name):
    # row by row, each sum adds the same terms in the same order; with
    # b = 1 the zero row has no solution, and its vertex of G(A,0) keeps
    # the residual of the zero sum
    sys_, rep = {
        "pauli-ms": (magic_square_system(), pauli_magic_square_rep()),
        "pentagram-d8": (pentagram_system(), pentagram_rep()),
        "zero-row-b1": (with_zero_row(1), pauli_magic_square_rep()),
        "zero-row-b0": (with_zero_row(0), pauli_magic_square_rep()),
    }[name]
    fam = checked_family(rep, sys_)
    H = iso_generator_images(fam)
    got, expected = iso_partition_checks(fam, H, TOL), all_at_once_partition_checks(fam, H, TOL)
    assert [(r.name, r.residual.hex()) for r in got] == [(r.name, r.residual.hex()) for r in expected]
    assert (name == "zero-row-b1") == any(r.residual == 2.0 for r in got)


def test_float_partition_sums_hold_one_row():
    # a sum per vertex of both graphs held 82 images here
    rep = conjugate_representation(padded(pentagram_rep(), 8), seeded_unitary(64, 3))
    fam = checked_family(rep, pentagram_system())
    H = iso_generator_images(fam)
    fam.zero  # the partition sums start from it; built before the measured call
    tracemalloc.start()
    try:
        records = iso_partition_checks(fam, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in records)
    widest = max(len(ys) for ys in H.rows.values())
    assert peak <= (widest + 4) * fam.zero.nbytes


def _commuting_non_solution() -> tuple[LinearSystem, object]:
    """The magic square with seeded diagonal sign images, conjugated: every
    row's images commute, but the rows' products are not +-I as the system
    asks, so the phase sums of a variable differ from row to row."""
    gen = np.random.default_rng(7)
    images = {f"g{j}": np.diag(gen.choice([1.0, -1.0], size=8)).astype(complex)
              for j in range(1, 10)}
    images["J"] = -np.eye(8, dtype=complex)
    rep = conjugate_representation(make_representation(2, images), seeded_unitary(8, 5))
    return magic_square_system(), rep


def _scalar_source(sys_: LinearSystem, x: ZpVector | None = None):
    """sys_ with its scalar representation at x, or at Gauss's particular solution."""
    return sys_, scalar_rep_from_solution(
        sys_, gauss_solve(sys_.A, sys_.b).particular if x is None else x)


_PARITY_SOURCES = {
    "pauli-ms": lambda: (magic_square_system(), pauli_magic_square_rep()),
    "pentagram-d8": lambda: (pentagram_system(), pentagram_rep()),
    "pentagram-d64-conjugated": lambda: (pentagram_system(), conjugate_representation(
        padded(pentagram_rep(), 8), seeded_unitary(64, 3))),
    "zero-row-b0": lambda: (with_zero_row(0), pauli_magic_square_rep()),
    "zero-row-b1": lambda: (with_zero_row(1), pauli_magic_square_rep()),
    "scalar-p3-zero-row": lambda: _scalar_source(_zero_row_system(0), zvec(3, 1, 0, 1)),
    "scalar-p5": lambda: _scalar_source(random_consistent_system(random.Random(5), 5, 3, 3)),
    "scalar-p7": lambda: _scalar_source(random_consistent_system(random.Random(7), 7, 2, 3)),
    # a 1x1 object-array representation of a vector that solves no row:
    # the library builds no scalar representation of it
    "exact-non-solution": lambda: (_zero_row_system(1),
                                   _direct_sum_scalar_rep(_zero_row_system(1), (0, 0, 0))),
    "unused-variable": lambda: _scalar_source(LinearSystem.from_ints(2, [[1, 0]], [0])),
    "commuting-non-solution": _commuting_non_solution,
}


@pytest.mark.parametrize("name", list(_PARITY_SOURCES))
def test_cached_residuals_match_cached_sums(name):
    # the family keeps residual floats where it kept d x d sums; each
    # record must be the one the cached sums gave, bit for bit
    # (exact representations run on the object-array engine, the oracle
    # of the scalar suite)
    sys_, rep = _PARITY_SOURCES[name]()
    rep = as_matrices(sys_, rep)
    engine = engine_of(rep)
    fam = engine._assemble_family(rep, sys_, TOL, 2**20)
    H = engine.iso_generator_images(fam)
    checks = [
        (engine.projection_family_checks, cached_projection_family_checks, (fam,)),
        (engine.phi_welldefinedness_checks, cached_phi_welldefinedness_checks, (fam,)),
        (engine.check_mutual_inverse, cached_check_mutual_inverse, (fam,)),
        (engine.iso_partition_checks, cached_iso_partition_checks, (fam, H)),
    ]
    for library, oracle, args in checks:
        got, expected = library(*args, TOL), oracle(*args, TOL)
        assert [(r.name, r.residual.hex(), r.detail) for r in got] == \
            [(r.name, r.residual.hex(), r.detail) for r in expected], library.__name__
    if name == "commuting-non-solution":
        assert min(r.residual for r in engine.phi_welldefinedness_checks(fam, TOL)
                   if r.name.startswith("phi-welldefined")) > 0.1


@pytest.mark.parametrize("name", ["pauli-ms", "pentagram-d8", "scalar-p3-zero-row", "scalar-p5",
                                  "scalar-p7", "commuting-non-solution"])
def test_suite_blocks_expand_to_the_per_record_suite(name):
    # seven families are blocks of columns; the suite they expand to must
    # be the one built record by record, in order, bit for bit (on the
    # object-array engine for a scalar representation)
    sys_, rep = _PARITY_SOURCES[name]()
    checks = run_check_suite(rep, sys_, TOL)
    expected = [(r.name, r.residual.hex(), r.tolerance, r.passed)
                for r in per_record_check_suite(as_matrices(sys_, rep), sys_, TOL)]
    for records in (list(checks), expanded(checks)):
        assert [(r.name, r.residual.hex(), r.tolerance, r.passed) for r in records] == expected
    assert len(checks) == len(expected)
    blocks = [part for part in checks.parts if not isinstance(part, CheckRecord)]
    assert {family for block in blocks for family in block.families} == {
        "psi-idempotent", "psi-selfadjoint", "psi-orthogonal", "roundtrip-projection",
        "iso-sum-over-inhomogeneous", "iso-sum-over-homogeneous", "iso-zero-column"}
    failing_in_blocks = any(not r.passed for block in blocks for r in block)
    assert failing_in_blocks == (name == "commuting-non-solution")


def test_generator_maps_hold_residuals_not_sums():
    # the cached row sums and phase sums, next to phi's projections, peaked
    # at 51.4 images above the start here and held 25.4 after the stage
    rep = conjugate_representation(padded(pentagram_rep(), 8), seeded_unitary(64, 3))
    fam = _assemble_family(rep, pentagram_system(), TOL, 2**20)
    image = rep.images["J"].nbytes
    tracemalloc.start()
    try:
        records = (projection_family_checks(fam) + phi_welldefinedness_checks(fam)
                   + check_mutual_inverse(fam))
        passed = all(r.passed for r in records)
        del records  # what the family holds is left
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert passed
    assert peak <= 30 * image
    assert held <= 1 * image


def test_iso_zero_column_consistency():
    ms = magic_square_system()
    fam = checked_family(pauli_magic_square_rep(), ms)
    for rec in psi_iso_consistency_checks(fam):
        assert rec.residual <= 1e-9


# --------------------------------------------------------------- persistence


def test_representation_roundtrip_bit_identical(tmp_path):
    rep = pauli_magic_square_rep()
    path = tmp_path / "pauli.json"
    save_representation(rep, str(path))
    again = load_representation(str(path))
    assert again.p == rep.p and again.dim == rep.dim
    for name, M in rep.images.items():
        assert np.array_equal(M, again.images[name])


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_load_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, collecting):
    import synclcs.reps as reps_module

    good, malformed, not_utf8 = (tmp_path / name for name in ("pauli.json", "bad.json", "bin.json"))
    save_representation(pauli_magic_square_rep(), str(good))
    malformed.write_text('{"p": 2,')
    not_utf8.write_bytes(b'{"p": "\xff"}')
    during = []  # the collector's state while the file is decoded
    decode = reps_module._decode_representation
    monkeypatch.setattr(reps_module, "_decode_representation",
                        lambda fh: (during.append(gc.isenabled()), decode(fh))[1])
    (gc.enable if collecting else gc.disable)()
    try:
        assert load_representation(str(good)).dim == 4
        assert gc.isenabled() == collecting
        with pytest.raises(ParseError):
            load_representation(str(malformed))
        assert gc.isenabled() == collecting
        with pytest.raises(UnicodeDecodeError):
            load_representation(str(not_utf8))
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert during == [False] * 3


def test_load_rejects_non_square():
    doc = {
        "p": 2, "dim": 2, "omega_convention": "exp(2*pi*i/p)",
        "generators": {"g1": [[[1.0, 0.0]]], "J": [[[-1.0, 0.0], [0.0, 0.0]],
                                                   [[0.0, 0.0], [-1.0, 0.0]]]},
    }
    with pytest.raises(ParseError):
        representation_from_json(doc)


def test_load_rejects_bad_convention_and_names():
    base = representation_to_json(pauli_magic_square_rep())
    wrong = dict(base, omega_convention="exp(-2*pi*i/p)")
    with pytest.raises(ParseError):
        representation_from_json(wrong)
    gens = dict(base["generators"])
    gens["h1"] = gens.pop("g1")
    with pytest.raises(ParseError):
        representation_from_json(dict(base, generators=gens))


def test_load_flags_unidentified_j(tmp_path):
    doc = representation_to_json(pauli_magic_square_rep())
    eye = [[[1.0 if r == c else 0.0, 0.0] for c in range(4)] for r in range(4)]
    doc["generators"]["J"] = eye
    path = tmp_path / "badj.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(JNotIdentified):
        load_representation(str(path))


@settings(max_examples=300, deadline=None)
@given(json_like(),
       st.dictionaries(st.sampled_from(["p", "dim", "omega_convention", "generators"]),
                       json_like(2, 3, 1, 1.0, True, "J", ["J"]), max_size=2),
       st.dictionaries(st.sampled_from(["g1", "g2", "J", "h1"]), json_like(0.0, 1.0),
                       max_size=2))
def test_representation_from_json_fails_closed(junk, fields, generators):
    # documents malformed as a whole, in up to two fields or in up to two
    # generators end in a toolkit error, never in another exception; an
    # accepted p and dim were written as integers, not coerced to them
    valid = representation_to_json(rep_oracle.scalar_rep_from_solution(one_eq_system(),
                                                                      zvec(2, 1, 1)))
    doc = dict(valid, generators=dict(valid["generators"], **generators))
    doc.update(fields)
    for candidate in (junk, doc):
        try:
            representation_from_json(candidate)
        except SyncLCSError:
            continue
        assert type(candidate["p"]) is int and type(candidate["dim"]) is int


def test_load_rejects_nonunitary():
    doc = representation_to_json(pauli_magic_square_rep())
    doc["generators"]["g1"][0][0] = [2.0, 0.0]
    with pytest.raises(UnitarityViolation):
        representation_from_json(doc)


# ---------------------------------------------------------------- invariance


def test_suite_invariant_under_conjugation():
    ms = magic_square_system()
    rep = pauli_magic_square_rep()
    conj = conjugate_representation(rep, seeded_unitary(4, 99))
    base = run_check_suite(rep, ms)
    moved = run_check_suite(conj, ms)
    assert [r.name for r in base] == [r.name for r in moved]
    for a, b in zip(base, moved):
        assert a.passed == b.passed
        assert abs(a.residual - b.residual) <= 1e-9


def test_f_family_exact_identities_p3():
    # orthogonality, partition of unity, and generator reconstruction of
    # the spectral family, all exactly zero in cyclotomic arithmetic
    sys_ = p3_demo_system()
    rep = rep_oracle.scalar_rep_from_solution(sys_, zvec(3, 1, 0, 0))
    for j in (1, 2):
        fs = [rep_oracle.f_projection(rep, j, s)[0, 0] for s in range(3)]
        assert (fs[0] + fs[1] + fs[2] - 1).is_zero()
        for s in range(3):
            assert (fs[s] * fs[s] - fs[s]).is_zero()
            assert (fs[s].conjugate() - fs[s]).is_zero()
            for r in range(s + 1, 3):
                assert (fs[s] * fs[r]).is_zero()
        w = [rep_oracle.omega_pow(rep.p, s, rep.exact) for s in range(3)]
        recon = w[0] * fs[0] + w[1] * fs[1] + w[2] * fs[2]
        assert (recon - rep.images[f"g{j}"][0, 0]).is_zero()


# ------------------------------------------------------------ residual oracle


def _oracle_projection(g, s, rep):
    M = g * rep_oracle.omega_pow(rep.p, -s, rep.exact)
    total = term = np.eye(M.shape[0], dtype=M.dtype)
    for _ in range(1, rep.p):
        term = term @ M
        total = total + term
    return total / rep.p


def _oracle_residuals(rep, sys_):
    """The residual of every psi-, phi-, roundtrip- and iso-generator record,
    each evaluated on its own by direct loops over row_solutions."""
    p, identity = rep.p, np.eye(rep.dim, dtype=rep.images["J"].dtype)
    zero = np.zeros_like(rep.images["J"])
    rows = {i: row_solutions(sys_, i) for i in range(1, sys_.m + 1)}
    rows = {i: sols for i, sols in rows.items() if sols}
    cols = {i: sorted(j for j in range(1, sys_.n + 1) if sys_.A.rows[i - 1][j - 1])
            for i in rows}

    def product(i, x, factor):
        result = identity
        for j in cols[i]:
            result = result @ factor(j, x[j - 1])
        return result

    E = {(i, x): product(i, x, lambda j, s: _oracle_projection(rep.images[f"g{j}"], s, rep))
         for i, sols in rows.items() for x in sols}
    out = {}
    for (i, x), M in E.items():
        out[f"psi-idempotent:{i}:{_label(x)}"] = frob(M @ M - M)
        out[f"psi-selfadjoint:{i}:{_label(x)}"] = frob(dagger(M) - M)
    keys = sorted(E)
    conflicting = []
    for a, (i, x) in enumerate(keys):
        for k, y in keys[a + 1:]:
            shared = set(cols[i]) & set(cols[k])
            if any(x[j - 1] != y[j - 1] for j in shared):
                conflicting.append(((i, x), (k, y)))
                out[f"psi-orthogonal:{i}:{_label(x)}|{k}:{_label(y)}"] = frob(E[(i, x)] @ E[(k, y)])
    for i, sols in rows.items():
        total = zero
        for x in sols:
            total = total + E[(i, x)]
        out[f"psi-rowsum:{i}"] = frob(total - identity)

    def block(i, j, t=None):
        total = zero
        for x in rows[i]:
            if t is None:
                total = total + E[(i, x)] * rep_oracle.omega_pow(rep.p, x[j - 1], rep.exact)
            elif x[j - 1] == t:
                total = total + E[(i, x)]
        return total

    phi = {}
    for j in range(1, sys_.n + 1):
        containing = [i for i in rows if j in cols[i]]
        if not containing:
            continue
        sums = [block(i, j) for i in containing]
        phi[j] = sums[0]
        out[f"phi-welldefined:g{j}"] = max((frob(S - sums[0]) for S in sums[1:]), default=0.0)
        for t in range(p):
            blocks = [block(i, j, t) for i in containing]
            out[f"phi-valueblock:g{j}:t={t}"] = max(
                (frob(B - blocks[0]) for B in blocks[1:]), default=0.0)
        for i, S in zip(containing, sums):
            out[f"roundtrip-generator:g{j}:row{i}"] = frob(S - rep.images[f"g{j}"])
    for (i, y), M in E.items():
        back = product(i, y, lambda j, s: _oracle_projection(phi[j], s, rep))
        out[f"roundtrip-projection:{i}:{_label(y)}"] = frob(back - M)
    out["iso-idempotent"] = max((frob(M @ M - M) for M in E.values()), default=0.0)
    out["iso-selfadjoint"] = max((frob(dagger(M) - M) for M in E.values()), default=0.0)
    out["iso-rule-orthogonality"] = max(
        (frob(E[u] @ E[v]) for pair in conflicting for u, v in (pair, pair[::-1])),
        default=0.0)
    hom = sys_.homogeneous()
    hom_rows = {i: row_solutions(hom, i) for i in range(1, sys_.m + 1)}
    for i, ys in hom_rows.items():
        for y in ys:
            total = zero
            for x in rows.get(i, ()):
                total = total + E[(i, _add(p, x, y))]
            out[f"iso-sum-over-inhomogeneous:{i}:{_label(y)}"] = frob(total - identity)
    for (i, x), M in E.items():
        total = zero
        for y in hom_rows[i]:
            total = total + E[(i, _add(p, x, y))]
        out[f"iso-sum-over-homogeneous:{i}:{_label(x)}"] = frob(total - identity)
        total = zero
        for k in range(1, sys_.m + 1):
            total = total + (M if k == i else zero)
        out[f"iso-zero-column:{i}:{_label(x)}"] = frob(total - M)
    return out


def _direct_sum_scalar_rep(sys_, *solutions):
    """The diagonal exact representation g_j -> diag(omega^{x_j}, ...) over
    the given vectors, J -> omega * I; a solution group representation
    exactly when every vector solves the system."""
    p, d = sys_.p, len(solutions)

    def diagonal(powers):
        M = np.empty((d, d), dtype=object)
        for r in range(d):
            for c in range(d):
                M[r, c] = Cyclotomic.omega_power(p, powers[r]) if r == c else Cyclotomic(p, [0] * p)
        return M

    images = {f"g{j}": diagonal([x[j - 1] for x in solutions]) for j in range(1, sys_.n + 1)}
    images["J"] = diagonal([1] * d)
    return rep_oracle.make_representation(p, images)


# p = 3 with a zero row and a duplicated row; (1,0,1) and (0,1,2) solve it
# for b2 = 0 and agree on no row support; for b2 = 1 row 2 has no solution
# and (0,0,0) fails rows 1 to 4
def _zero_row_system(b2):
    return LinearSystem.from_ints(3, [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 2]],
                                  [1, b2, 1, 2])


@pytest.mark.parametrize("source", ["pauli-ms", "pauli-ms-conjugated", "scalar-p3",
                                    "exact-direct-sum", "exact-non-solution"])
def test_suite_residuals_match_direct_formulas(source):
    # the library's suites; d x d object arrays on the object-array engine
    suite = run_check_suite
    if source == "scalar-p3":
        sys_ = random_consistent_system(random.Random(3), 3, 3, 4)
        rep = scalar_rep_from_solution(sys_, zvec(3, 1, 1, 2, 0))
    elif source == "exact-direct-sum":
        sys_ = _zero_row_system(0)
        rep, suite = _direct_sum_scalar_rep(sys_, (1, 0, 1), (0, 1, 2)), rep_oracle.run_check_suite
        values = {tuple(E.flat) for E in
                  rep_oracle._assemble_family(rep, sys_, TOL, 2**20).entries.values()}
        assert len(values) == 4
    elif source == "exact-non-solution":
        sys_ = _zero_row_system(1)
        rep, suite = _direct_sum_scalar_rep(sys_, (0, 0, 0)), rep_oracle.run_check_suite
    else:
        sys_, rep = magic_square_system(), pauli_magic_square_rep()
        if source == "pauli-ms-conjugated":
            rep = conjugate_representation(rep, seeded_unitary(4, 11))
    expected = _oracle_residuals(as_matrices(sys_, rep), sys_)
    prefixes = ("psi-", "phi-", "roundtrip-", "iso-idempotent", "iso-selfadjoint",
                "iso-rule-orthogonality", "iso-sum-over-", "iso-zero-column")
    got = {r.name: r.residual for r in suite(rep, sys_)
           if r.name.startswith(prefixes)}
    assert got == expected
    if source == "exact-non-solution":
        assert got["psi-rowsum:1"] > 0 and "psi-rowsum:2" not in got
        assert got["iso-sum-over-homogeneous:1:(1,0,0)"] > 0
        assert got["iso-sum-over-inhomogeneous:2:(0,0,0)"] == 1.0
        assert got["iso-sum-over-inhomogeneous:4:(0,0,0)"] > 0
    orthogonal = [name for name in got if name.startswith("psi-orthogonal")]
    assert orthogonal == [name for name in expected if name.startswith("psi-orthogonal")]
