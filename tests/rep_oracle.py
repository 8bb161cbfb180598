"""Test-side helpers for the reps module: the image of one game-algebra
generator by its direct formula (an oracle for the family entries), the
product chains started at an identity product (an oracle for the
library's chains, which start at their first factor), the float partition
sums held all at once (an oracle for the library's row-by-row sums), the
row sums and phase sums cached as matrices with the check families that
read them (an oracle for the library's cached residuals), the whole suite
built record by record (an oracle for the library's check blocks), the
records of a block by its naming (an oracle for its expansion), a family whose
defining checks all pass, the unitary conjugate and the padding of a
representation, Mermin's pentagram operator solution, and writing a
representation file and reading it back with json.load (an oracle for the
library's loader, which converts one generator at a time)."""

from __future__ import annotations

import json
from functools import cache

import numpy as np

from adjacency_oracle import is_row_solution
from row_oracle import row_support
from synclcs import LinearSystem, Representation, ZpVector, make_representation
from synclcs.config import DEFAULT_ENUM_CAP, DEFAULT_TOL, OMEGA_CONVENTION
from synclcs.errors import NotASolution, ParseError
from synclcs.group import GroupPresentation, Word, build_presentation, relation_residuals
from synclcs.matops import dagger, eye_like, frob
from synclcs.reporting import CheckBlock, CheckRecord, Checks
from synclcs.reps import (
    _PAULI,
    IsoGeneratorFamily,
    ProjectionFamily,
    _assemble_family,
    _check_row_commutes,
    _spectral_projection,
    _spectral_product,
    check_iso_relations,
    f_projection,
    iso_generator_images,
    omega_pow,
    p_block,
    projection_family_checks,
    representation_from_json,
)

# The product chains as the library computed them while each began with an
# identity product.  Multiplying by the identity is exact up to the sign of
# a zero, so the library's chains must give equal values, and equal Frobenius
# residuals, for every representation.


def eye_mat_power(M: np.ndarray, n: int) -> np.ndarray:
    """eye_like(M) @ M @ ... @ M, n factors; negative n uses dagger(M)."""
    if n < 0:
        return eye_mat_power(dagger(M), -n)
    result = eye_like(M)
    for _ in range(n):
        result = result @ M
    return result


def eye_evaluate_word(word: Word, images: dict[str, np.ndarray]) -> np.ndarray:
    """The identity times each generator power of the word, left to right."""
    result = eye_like(images["J"])
    for gen, e in word.factors:
        result = result @ eye_mat_power(images[gen], e)
    return result


def eye_relation_residuals(rep, pres: GroupPresentation,
                           tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The relation records of `relation_residuals`, from `eye_evaluate_word`."""
    identity = eye_like(rep.images["J"])
    return [CheckRecord(f"relation:{rel.label}",
                        frob(eye_evaluate_word(rel.word, rep.images) - identity), tol,
                        detail={"family": rel.family, "display": rel.display()})
            for rel in pres.relations]


def eye_spectral_projection(g: np.ndarray, s: int, p: int, exact: bool) -> np.ndarray:
    """(1/p) sum_{t<p} (omega^{-s} g)^t, every power from the identity."""
    M = g * omega_pow(p, -s, exact)
    total = eye_like(M)
    term = eye_like(M)
    for _ in range(1, p):
        term = term @ M
        total = total + term
    return total / p


def eye_spectral_product(identity: np.ndarray, cols, x: ZpVector, projection) -> np.ndarray:
    """identity @ projection(j, x_j) @ ... over the columns j in cols."""
    result = identity
    for j in cols:
        result = result @ projection(j, x.entry(j))
    return result


def all_at_once_partition_checks(
    iso: IsoGeneratorFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """The float records of `iso_partition_checks` as the library computed
    them while it held the sum at every vertex of both graphs at once."""
    G, H = iso.family.graph, iso.hom_graph
    identity = eye_like(iso.zero)
    sums_g = {vh: iso.zero for vh in H.vertices}
    sums_h = {vg: iso.zero for vg in G.vertices}
    for i, x in G.vertices:
        for y in H.rows[i]:
            E = iso.entry((i, x), (i, y))
            sums_g[(i, y)] = sums_g[(i, y)] + E
            sums_h[(i, x)] = sums_h[(i, x)] + E
    over_g = [frob(total - identity) for total in sums_g.values()]
    over_h = [frob(total - identity) for total in sums_h.values()]
    return [
        CheckRecord(f"{family}:{label}", residual, tol)
        for family, labels, residuals in (("iso-sum-over-inhomogeneous", H.labels, over_g),
                                          ("iso-sum-over-homogeneous", G.labels, over_h))
        for label, residual in zip(labels, residuals)
    ]


# The generator maps as the library computed them while its projection
# family cached the row sums and phase sums themselves, d x d images alive
# until the family was dropped, and check_mutual_inverse cached the
# spectral projections of phi next to them.  The library keeps residual
# floats instead, from the same sums and products, so every record must be
# bit-identical.


def cached_row_sums(fam: ProjectionFamily) -> dict[int, np.ndarray]:
    """Sum over x in S_i of family(i, x), in vertex order, per row with a solution."""
    zero = np.zeros_like(fam.rep.images["J"])
    return {i: sum((fam.entry(i, x) for x in sols), zero) for i, sols in fam.graph.rows.items()}


def cached_phase_sums(fam: ProjectionFamily) -> dict[int, dict[int, np.ndarray]]:
    """[j][i]: sum over x in S_i of omega^{x_j} family(i, x), rows ascending."""
    rep, sums = fam.rep, {}
    for i, sols in fam.graph.rows.items():
        for j in fam.graph.system.supports[i - 1]:
            sums.setdefault(j, {})[i] = sum(
                (fam.entry(i, x) * omega_pow(rep.p, x.entry(j), rep.exact) for x in sols),
                np.zeros_like(rep.images["J"]))
    return sums


def cached_projection_family_checks(fam: ProjectionFamily,
                                    tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `projection_family_checks`, psi-rowsum from `cached_row_sums`."""
    G = fam.graph
    records = []
    for label, (idem, adj) in zip(G.labels, fam.entry_residuals.tolist()):
        records.append(CheckRecord(f"psi-idempotent:{label}", idem, tol))
        records.append(CheckRecord(f"psi-selfadjoint:{label}", adj, tol))
    order = sorted(range(G.order()), key=lambda k: (G.vertices[k][0], G.vertices[k][1].entries))
    pairs = np.argsort(order)[G.edges()]
    products = fam.edge_products
    residuals = np.where(pairs[:, 0] < pairs[:, 1], products[:, 0], products[:, 1])
    pairs.sort(axis=1)
    ranked = np.lexsort(pairs.T[::-1])
    lefts, rights = np.array([G.labels[k] for k in order], dtype=object)[pairs[ranked].T]
    for left, right, residual in zip(lefts, rights, residuals[ranked].tolist()):
        records.append(CheckRecord(f"psi-orthogonal:{left}|{right}", residual, tol))
    for i, total in cached_row_sums(fam).items():
        records.append(CheckRecord(f"psi-rowsum:{i}", frob(total - eye_like(total)), tol))
    return records


def cached_phi_welldefinedness_checks(fam: ProjectionFamily,
                                      tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `phi_welldefinedness_checks`, from `cached_phase_sums`."""
    records = []
    for j, per_row in sorted(cached_phase_sums(fam).items()):
        rows = list(per_row)
        phi = per_row[rows[0]]
        records.append(CheckRecord(
            f"phi-welldefined:g{j}", max((frob(per_row[i] - phi) for i in rows[1:]), default=0.0),
            tol, detail={"rows": rows}))
        for t in range(fam.rep.p):
            blocks = [p_block(fam, i, j, t) for i in rows]
            records.append(CheckRecord(
                f"phi-valueblock:g{j}:t={t}",
                max((frob(bq - blocks[0]) for bq in blocks[1:]), default=0.0), tol))
    return records


def cached_check_mutual_inverse(fam: ProjectionFamily,
                                tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `check_mutual_inverse`, from `cached_phase_sums` and
    a cache of phi's spectral projections filled in vertex order."""
    rep, sums = fam.rep, cached_phase_sums(fam)
    records = [
        CheckRecord(f"roundtrip-generator:g{ell}:row{i}", frob(total - rep.images[f"g{ell}"]), tol)
        for ell in sorted(sums) for i, total in sums[ell].items()
    ]
    projection = cache(lambda j, s: _spectral_projection(
        next(iter(sums[j].values())), s, rep.p, rep.exact))
    identity = eye_like(rep.images["J"])
    G = fam.graph
    for (i, y), label in zip(G.vertices, G.labels):
        result = _spectral_product(identity, G.system.supports[i - 1], y, projection)
        records.append(CheckRecord(
            f"roundtrip-projection:{label}", frob(result - fam.entry(i, y)), tol))
    return records


def cached_iso_partition_checks(iso: IsoGeneratorFamily,
                                tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `iso_partition_checks`: exact ones from
    `cached_row_sums`, float ones from `all_at_once_partition_checks`."""
    fam, G, H = iso.family, iso.family.graph, iso.hom_graph
    if not fam.rep.exact:
        return all_at_once_partition_checks(iso, tol)
    identity, row_sums = eye_like(iso.zero), cached_row_sums(fam)
    by_row = {i: frob(row_sums.get(i, iso.zero) - identity) for i in H.rows}
    return [
        CheckRecord(f"{family}:{label}", by_row[i], tol)
        for family, vertices, labels in (("iso-sum-over-inhomogeneous", H.vertices, H.labels),
                                         ("iso-sum-over-homogeneous", G.vertices, G.labels))
        for (i, _), label in zip(vertices, labels)
    ]


# The check suite as the library built it while every check was a
# CheckRecord of its own, the seven families of its blocks among them: the
# per-vertex families, orthogonality with a name per edge, and the partition
# sums, from the cached oracles above, and the zero-column sums.


def per_record_zero_column_checks(iso: IsoGeneratorFamily,
                                  tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `psi_iso_consistency_checks`, one by one."""
    fam = iso.family
    sys = fam.graph.system
    zero_vec = ZpVector.zero(sys.p, sys.n)
    records = []
    for (i, x), label in zip(fam.graph.vertices, fam.graph.labels):
        total = iso.zero
        for k in range(1, sys.m + 1):
            total = total + iso.entry((i, x), (k, zero_vec))
        records.append(CheckRecord(f"iso-zero-column:{label}", frob(total - fam.entry(i, x)), tol))
    return records


def per_record_check_suite(rep: Representation, sys: LinearSystem, tol: float = DEFAULT_TOL,
                           cap: int = DEFAULT_ENUM_CAP) -> list[CheckRecord]:
    """The records of `run_check_suite`, each built on its own."""
    records = relation_residuals(rep, build_presentation(sys), tol)
    fam = _assemble_family(rep, sys, tol, cap)
    records += cached_projection_family_checks(fam, tol)
    records += cached_phi_welldefinedness_checks(fam, tol)
    records += cached_check_mutual_inverse(fam, tol)
    iso = iso_generator_images(fam, cap)
    records += cached_iso_partition_checks(iso, tol)
    records += check_iso_relations(iso, tol)
    records += per_record_zero_column_checks(iso, tol)
    return records


def expanded(checks) -> list:
    """The records of a list or a Checks, each block's by its naming: row k
    holds one record per family, named family:label|label... from row k of
    the label columns."""
    records = []
    for part in (checks.parts if type(checks) is Checks else checks):
        if type(part) is not CheckBlock:
            records.append(part)
            continue
        for k, row in enumerate(zip(*part.labels)):
            for family, column in zip(part.families, part.residuals):
                records.append(CheckRecord(family + ":" + "|".join(row), column[k], part.tolerance))
    return records


def conjugate_representation(
    rep: Representation, U: np.ndarray, tol: float = DEFAULT_TOL
) -> Representation:
    """Simultaneous unitary conjugation M -> U M U* of all images."""
    images = {name: U @ M @ dagger(U) for name, M in rep.images.items()}
    return make_representation(rep.p, images, tol=tol)


def padded(rep: Representation, pad: int) -> Representation:
    """M -> M kron I_pad for every image."""
    eye = np.eye(pad, dtype=complex)
    return make_representation(rep.p, {name: np.kron(M, eye) for name, M in rep.images.items()})


def psi_image(
    rep: Representation,
    sys: LinearSystem,
    i: int,
    x: ZpVector,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Image of the game-algebra generator for (row i, solution x): the
    product of the per-variable spectral projections over the row support.

    The product is only order-independent when the row's generator images
    commute, so that is verified rather than assumed.
    """
    if not is_row_solution(sys, i, x):
        raise NotASolution(f"x is not a restricted solution of row {i}")
    cols = sorted(row_support(sys, i))
    _check_row_commutes(rep, i, cols, tol)
    return eye_spectral_product(eye_like(rep.images["J"]), cols, x,
                                lambda j, s: f_projection(rep, j, s))


def checked_family(
    rep: Representation,
    sys: LinearSystem,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> ProjectionFamily:
    """The projection family of rep over sys, after asserting that every
    record of its defining checks passes."""
    fam = _assemble_family(rep, sys, tol, cap)
    failing = [rec.name for rec in projection_family_checks(fam, tol) if not rec.passed]
    assert not failing, failing
    return fam


# Mermin's pentagram: ten 3-qubit Pauli products, one per variable of
# conftest.pentagram_system.  The operators of each line commute; the first
# line multiplies to -I and the other four to +I.
PENTAGRAM_OPS = ("XXX", "XYY", "YXY", "YYX", "XII", "IXI", "IIX", "IYI", "IIY", "YII")


def pentagram_rep() -> Representation:
    """The 8-dimensional operator solution of Mermin's pentagram, J -> -I."""
    def pauli(word: str) -> np.ndarray:
        return np.kron(np.kron(_PAULI[word[0]], _PAULI[word[1]]), _PAULI[word[2]])

    images = {f"g{j}": pauli(op) for j, op in enumerate(PENTAGRAM_OPS, 1)}
    images["J"] = -np.eye(8, dtype=complex)
    return make_representation(2, images)


def representation_to_json(rep: Representation) -> dict:
    """Serialize to the matrix JSON schema (floats; exact entries embed)."""

    def encode(M: np.ndarray) -> list:
        Z = M.astype(complex)
        return np.stack([Z.real, Z.imag], -1).tolist()

    names = [f"g{j}" for j in range(1, rep.n + 1)] + ["J"]
    return {
        "p": rep.p,
        "dim": rep.dim,
        "omega_convention": OMEGA_CONVENTION,
        "generators": {name: encode(rep.images[name]) for name in names},
    }


def save_representation(rep: Representation, path: str):
    with open(path, "w") as fh:
        json.dump(representation_to_json(rep), fh, indent=2)
        fh.write("\n")


def json_load_representation(path: str, tol: float = DEFAULT_TOL) -> Representation:
    """The library's loader as it was while it decoded the whole file with
    json.load before it built any image."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return representation_from_json(doc, tol)
