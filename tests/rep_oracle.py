"""Test-side helpers for the reps module: the object-array engine the
library ran exact representations on (an oracle for the by-value suite of
`synclcs.scalar`, and the engine of every test that drives exact d x d
arrays), the image of one game-algebra generator by its direct formula (an
oracle for the family entries), the product chains started at an identity
product (an oracle for the library's chains, which start at their first
factor), the isomorphism-game generators of a family as objects (an
oracle for the stages, which read the family's residuals), the float
partition sums held all at once (an oracle for the library's row-by-row
sums), the row sums and phase sums cached as matrices
with the check families that read them (an oracle for the library's cached
residuals), the whole suite built record by record (an oracle for the
library's check blocks), the records of a block by its naming (an oracle
for its expansion), a family whose defining checks all pass, the unitary
conjugate and the padding of a representation, Mermin's pentagram operator
solution, and writing a representation file and reading it back with
json.load (an oracle for the library's loader, which converts one generator
at a time)."""

from __future__ import annotations

import cmath
import json
import math
import sys
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from operator import matmul

import numpy as np

import synclcs.reps as reps
from adjacency_oracle import dense_edges, is_row_solution, numpy_pair_counts
from row_oracle import row_support
from synclcs import LinearSystem, ZpVector
from synclcs.config import DEFAULT_ENUM_CAP, DEFAULT_TOL, OMEGA_CONVENTION
from synclcs.cyclotomic import Cyclotomic
from synclcs.errors import (
    DimensionMismatch,
    JNotIdentified,
    NonCommutingFactors,
    NotASolution,
    ParseError,
    UnitarityViolation,
)
from synclcs.graphs import EQUAL, GameGraph, build_game_graph
from synclcs.group import GroupPresentation, Word, build_presentation
from synclcs.reporting import CheckBlock, CheckRecord, Checks
from synclcs.reps import _PAULI, representation_from_json
from synclcs.scalar import ScalarRepresentation
from synclcs.zp import check_prime


def engine_of(rep):
    """The module whose check suite certifies rep as the library did: the
    library's reps for a float representation, this engine for an
    object-array one."""
    return sys.modules[__name__] if rep.exact else reps


def as_matrices(sys_: LinearSystem, rep):
    """The object-array representation of this engine for a library scalar
    representation of sys_; any other representation as it is."""
    if isinstance(rep, ScalarRepresentation):
        return scalar_rep_from_solution(sys_, rep.xstar)
    return rep


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


def eye_spectral_product(identity: np.ndarray, cols, x: tuple[int, ...], projection) -> np.ndarray:
    """identity @ projection(j, x_j) @ ... over the columns j in cols."""
    result = identity
    for j in cols:
        result = result @ projection(j, x[j - 1])
    return result


def all_at_once_partition_checks(
    fam: ProjectionFamily, H: GameGraph, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """The float records of `iso_partition_checks` as the library computed
    them while it held the sum at every vertex of both graphs at once."""
    G, iso = fam.graph, IsoGeneratorFamily(fam)
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
                (fam.entry(i, x) * omega_pow(rep.p, x[j - 1], rep.exact) for x in sols),
                np.zeros_like(rep.images["J"]))
    return sums


def cached_projection_family_checks(fam: ProjectionFamily,
                                    tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `projection_family_checks`, psi-rowsum from `cached_row_sums`
    and both products of each edge's entries taken here, in `dense_edges` order."""
    G = fam.graph
    records = []
    for label, idem, adj in zip(G.labels, *fam.entry_residuals):
        records.append(CheckRecord(f"psi-idempotent:{label}", idem, tol))
        records.append(CheckRecord(f"psi-selfadjoint:{label}", adj, tol))
    order = sorted(range(G.order()), key=lambda k: (G.vertices[k][0], G.vertices[k][1]))
    edges = dense_edges(G)
    entries = list(fam.entries.values())
    products = np.array([(frob(entries[a] @ entries[b]), frob(entries[b] @ entries[a]))
                         for a, b in edges], dtype=float).reshape(-1, 2)
    pairs = np.argsort(order)[edges]
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


def cached_iso_partition_checks(fam: ProjectionFamily, H: GameGraph,
                                tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `iso_partition_checks`: exact ones from
    `cached_row_sums`, float ones from `all_at_once_partition_checks`."""
    if not fam.rep.exact:
        return all_at_once_partition_checks(fam, H, tol)
    G, zero = fam.graph, IsoGeneratorFamily(fam).zero
    identity, row_sums = eye_like(zero), cached_row_sums(fam)
    by_row = {i: frob(row_sums.get(i, zero) - identity) for i in H.rows}
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


def per_record_zero_column_checks(fam: ProjectionFamily,
                                  tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """The records of `psi_iso_consistency_checks`, one by one."""
    iso, sys = IsoGeneratorFamily(fam), fam.graph.system
    zero_vec = (0,) * sys.n
    records = []
    for (i, x), label in zip(fam.graph.vertices, fam.graph.labels):
        total = iso.zero
        for k in range(1, sys.m + 1):
            total = total + iso.entry((i, x), (k, zero_vec))
        records.append(CheckRecord(f"iso-zero-column:{label}", frob(total - fam.entry(i, x)), tol))
    return records


def per_record_check_suite(rep: Representation, sys: LinearSystem, tol: float = DEFAULT_TOL,
                           cap: int = DEFAULT_ENUM_CAP) -> list[CheckRecord]:
    """The records of `run_check_suite`, each built on its own, on the
    engine of rep."""
    engine = engine_of(rep)
    records = engine.relation_residuals(rep, build_presentation(sys), tol)
    fam = engine._assemble_family(rep, sys, tol, cap)
    records += cached_projection_family_checks(fam, tol)
    records += cached_phi_welldefinedness_checks(fam, tol)
    records += cached_check_mutual_inverse(fam, tol)
    H = engine.iso_generator_images(fam, cap)
    records += cached_iso_partition_checks(fam, H, tol)
    records += engine.check_iso_relations(fam, H, tol)
    records += per_record_zero_column_checks(fam, tol)
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
    rep: reps.Representation, U: np.ndarray, tol: float = DEFAULT_TOL
) -> reps.Representation:
    """Simultaneous unitary conjugation M -> U M U* of all images."""
    images = {name: U @ M @ dagger(U) for name, M in rep.images.items()}
    return reps.make_representation(rep.p, images, tol=tol)


def padded(rep: reps.Representation, pad: int) -> reps.Representation:
    """M -> M kron I_pad for every image."""
    eye = np.eye(pad, dtype=complex)
    return reps.make_representation(rep.p, {name: np.kron(M, eye) for name, M in rep.images.items()})


def psi_image(
    rep: Representation,
    sys: LinearSystem,
    i: int,
    x: tuple[int, ...],
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
    """The projection family of rep over sys, on the engine of rep, after
    asserting that every record of its defining checks passes."""
    engine = engine_of(rep)
    fam = engine._assemble_family(rep, sys, tol, cap)
    failing = [rec.name for rec in engine.projection_family_checks(fam, tol) if not rec.passed]
    assert not failing, failing
    return fam


# Mermin's pentagram: ten 3-qubit Pauli products, one per variable of
# conftest.pentagram_system.  The operators of each line commute; the first
# line multiplies to -I and the other four to +I.
PENTAGRAM_OPS = ("XXX", "XYY", "YXY", "YYX", "XII", "IXI", "IIX", "IYI", "IIY", "YII")


def pentagram_rep() -> reps.Representation:
    """The 8-dimensional operator solution of Mermin's pentagram, J -> -I."""
    def pauli(word: str) -> np.ndarray:
        return np.kron(np.kron(_PAULI[word[0]], _PAULI[word[1]]), _PAULI[word[2]])

    images = {f"g{j}": pauli(op) for j, op in enumerate(PENTAGRAM_OPS, 1)}
    images["J"] = -np.eye(8, dtype=complex)
    return reps.make_representation(2, images)


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


def json_load_representation(path: str, tol: float = DEFAULT_TOL,
                             screen=None) -> reps.Representation:
    """The library's loader as it was while it decoded the whole file with
    json.load before it built any image."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return representation_from_json(doc, tol, screen)


# ------------------------------------------------------- object-array engine
#
# The reps engine as the library ran it while exact representations were
# object arrays of cyclotomic scalars: the matrix helpers with their exact
# branches, and the whole check suite, whose exact path keys equal entries
# and reads every iso sum of a row as its row sum.  Float arrays go through
# the same code as through the library's float path.  The edge list and the
# pair counts are the numpy ones of `adjacency_oracle`.  The library now
# certifies scalar representations by value, in `synclcs.scalar`; this
# engine is its oracle.


def is_exact(M: np.ndarray) -> bool:
    """True when M carries exact cyclotomic entries instead of floats."""
    return M.dtype == object


def frob(M: np.ndarray) -> float:
    """Frobenius norm as a float; exactly 0.0 for an exactly-zero matrix."""
    if is_exact(M):
        return math.sqrt(sum(abs(e) ** 2 for e in M.flat))
    return float(np.linalg.norm(M))


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def eye_like(M: np.ndarray) -> np.ndarray:
    """Identity of M's size and dtype; an object-dtype identity holds the
    ints 1 and 0, which combine exactly with cyclotomic entries."""
    return np.eye(M.shape[0], dtype=M.dtype)


def mat_power(M: np.ndarray, n: int) -> np.ndarray:
    """M**n by repeated multiplication, C-contiguous; negative n uses the
    conjugate transpose, valid because all matrices fed through here are
    unitary.

    The chain starts at M, not at an identity product: multiplying by the
    identity is exact up to the sign of a zero, so the values are those of
    eye_like(M) @ M @ ... @ M, and so is the layout of every operand."""
    if n < 0:
        return mat_power(dagger(M), -n)
    if n == 0:
        return eye_like(M)
    result = np.ascontiguousarray(M)
    for _ in range(n - 1):
        result = result @ M
    return result


def omega_pow(p: int, k: int, exact: bool):
    """omega^k for omega = exp(2*pi*i/p): exact cyclotomic, or complex."""
    if exact:
        return Cyclotomic.omega_power(p, k)
    return cmath.exp(2j * cmath.pi * (k % p) / p)


@dataclass(eq=False)
class Representation:
    """Unitary matrix images for g_1..g_n and J, all of one dimension,
    with image(J) = omega * I for the principal p-th root of unity omega:
    the representation factors through the quotient identifying J with
    omega, where the game algebra lives.
    """

    p: int
    dim: int
    images: dict[str, np.ndarray]
    exact: bool

    @property
    def n(self) -> int:
        return sum(1 for k in self.images if k != "J")


def make_representation(
    p: int,
    images: dict[str, np.ndarray],
    tol: float = DEFAULT_TOL,
) -> Representation:
    """Validate unitarity and the J = omega*I identification."""
    check_prime(p)
    if "J" not in images:
        raise ParseError("representation must include an image for J")
    dims = {M.shape for M in images.values()}
    if len(dims) != 1:
        raise DimensionMismatch("generator images have mixed dimensions")
    (d1, d2), = dims
    if d1 != d2:
        raise DimensionMismatch("generator images must be square")
    exact = any(is_exact(M) for M in images.values())
    for name, M in images.items():
        residual = frob(M @ dagger(M) - eye_like(M))
        if not residual <= tol:
            raise UnitarityViolation(
                f"image of {name} is not unitary (residual {residual:.3e})"
            )
    jmat = images["J"]
    j_residual = frob(jmat - eye_like(jmat) * omega_pow(p, 1, exact))
    if not j_residual <= tol:
        raise JNotIdentified(f"image(J) differs from omega*I by {j_residual:.3e}")
    return Representation(p, d1, dict(images), exact)


def scalar_rep_from_solution(sys: LinearSystem, xstar: ZpVector) -> Representation:
    """The 1-dimensional representation g_j -> omega^{x*_j}, J -> omega.

    Exists exactly when xstar solves the system; carried in exact
    cyclotomic arithmetic so every certified identity has residual 0.
    """
    if xstar.p != sys.p or len(xstar) != sys.n:
        raise DimensionMismatch(f"solution has {len(xstar)} entries mod {xstar.p}, "
                                f"system has {sys.n} variables mod {sys.p}")
    if sys.A.apply(xstar) != sys.b:
        raise NotASolution("xstar does not solve the system")
    p = sys.p

    def one_by_one(value) -> np.ndarray:
        M = np.empty((1, 1), dtype=object)
        M[0, 0] = value
        return M

    images = {
        f"g{j}": one_by_one(Cyclotomic.omega_power(p, xstar.entry(j)))
        for j in range(1, sys.n + 1)
    }
    images["J"] = one_by_one(Cyclotomic.omega_power(p, 1))
    return make_representation(p, images)


def f_projection(rep: Representation, j: int, s) -> np.ndarray:
    """Spectral projection (1/p) sum_t (omega^{-s} g_j)^t onto the
    omega^s-eigenspace of the image of g_j."""
    return _spectral_projection(rep.images[f"g{j}"], s, rep.p, rep.exact)


def _spectral_projection(g: np.ndarray, s: int, p: int, exact: bool) -> np.ndarray:
    """(1/p) sum_{t<p} (omega^{-s} g)^t for a unitary g of order p, in
    p - 2 products: the t = 1 term is M itself, made C-contiguous as an
    identity product would make it."""
    M = g * omega_pow(p, -s, exact)
    term = np.ascontiguousarray(M)
    total = eye_like(M) + term
    for _ in range(2, p):
        term = term @ M
        total = total + term
    return total / p


def _check_row_commutes(rep: Representation, i: int, cols: tuple[int, ...], tol: float):
    """Raise NonCommutingFactors unless the images of row i's variables commute."""
    for a, jcol in enumerate(cols):
        for ell in cols[a + 1:]:
            gj, gl = rep.images[f"g{jcol}"], rep.images[f"g{ell}"]
            residual = frob(gj @ gl - gl @ gj)
            if residual > tol:
                raise NonCommutingFactors(
                    f"images of g{jcol}, g{ell} fail to commute in row {i} "
                    f"(residual {residual:.3e})"
                )


def _spectral_product(identity: np.ndarray, cols: tuple[int, ...], x: tuple[int, ...],
                      projection) -> np.ndarray:
    """projection(j, x_j) @ ... over the columns j in cols, left to right
    from the first factor; the identity when cols is empty."""
    factors = [projection(j, x[j - 1]) for j in cols]
    return reduce(matmul, factors) if factors else identity


@dataclass(eq=False)
class ProjectionFamily:
    """The matrices standing for the game-algebra generators, one per
    (row, solution) pair, built through the spectral projections.

    The residuals, edge products, row-sum residuals and generator-map
    residuals that several check families read are computed once, from the
    entries as they stand at first use; they hold floats, not sums."""

    rep: Representation
    graph: GameGraph  # G(A,b): its system, rows and vertices index the entries
    entries: dict  # (i, solution) -> matrix, in vertex order

    def entry(self, i: int, x: tuple[int, ...]) -> np.ndarray:
        return self.entries[(i, x)]

    @cached_property
    def entry_residuals(self) -> tuple[list[float], list[float]]:
        """The idempotency and the self-adjointness residual columns of the
        entries, in entry order."""
        entries = self.entries.values()
        return [frob(E @ E - E) for E in entries], [frob(dagger(E) - E) for E in entries]

    @cached_property
    def edge_products(self) -> np.ndarray:
        """frob(E_u E_v) and frob(E_v E_u) for each edge (u, v) of
        graph.edges(), in that order; shape (edges, 2).

        Each vertex is keyed by the first vertex with an equal entry when
        the family is exact (equal canonical entries have equal products),
        and by itself when it is float; one product is computed per
        distinct ordered key pair."""
        entries = list(self.entries.values())
        n = len(entries)
        if self.rep.exact:
            first = {}
            keys = [first.setdefault(tuple(E.flat), k) for k, E in enumerate(entries)]
        else:
            keys = range(n)
        u, v = np.array(keys, dtype=np.int64)[dense_edges(self.graph)].T
        # one code per ordered key pair: (u, v) of every edge, then (v, u)
        codes, inverse = np.unique(np.concatenate([u * n + v, v * n + u]), return_inverse=True)
        lefts, rights = np.divmod(codes, n)
        norms = [frob(entries[a] @ entries[b]) for a, b in zip(lefts.tolist(), rights.tolist())]
        return np.array(norms, dtype=float)[inverse].reshape(2, -1).T

    @cached_property
    def row_sum_residuals(self) -> dict[int, float]:
        """frob(sum over x in S_i of family(i, x) - I), in vertex order, for
        every row that has a solution; each row sum is dropped once read."""
        zero, out = np.zeros_like(self.rep.images["J"]), {}
        for i, sols in self.graph.rows.items():
            total = sum((self.entry(i, x) for x in sols), zero)
            out[i] = frob(total - eye_like(total))
        return out

    def phase_sums(self, j: int) -> dict[int, np.ndarray]:
        """Sum over x in S_i of omega^{x_j} family(i, x), for every row i
        containing variable j, rows ascending.  phi(g_j), the generator map
        on g_j, is the phase sum of the lowest row that contains j; the
        other rows must agree with it."""
        rep, supports = self.rep, self.graph.system.supports
        return {i: sum((self.entry(i, x) * omega_pow(rep.p, x[j - 1], rep.exact) for x in sols),
                       np.zeros_like(rep.images["J"]))
                for i, sols in self.graph.rows.items() if j in supports[i - 1]}

    @cached_property
    def generator_map_residuals(self) -> tuple[dict, list[float]]:
        """Both generator maps' residuals, ({j: (rows containing j, the
        largest frob(sum_i - phi(g_j)) over the rows after the lowest,
        [frob(sum_i - g_j) for each row])}, [frob(round trip - entry) for
        each vertex]).  One pass over the variables, ascending, computes each
        variable's phase sums once, reads them, builds from phi(g_j) the
        spectral projections its vertices use, and drops the sums; the
        round trip of a vertex is the product of those projections, which
        are dropped after the last vertex."""
        rep, G = self.rep, self.graph
        supports = G.system.supports
        by_variable, projections = {}, {}
        for j in sorted({j for i in G.rows for j in supports[i - 1]}):
            sums = self.phase_sums(j)
            rows = list(sums)
            phi = sums[rows[0]]
            by_variable[j] = (
                rows, max((frob(sums[i] - phi) for i in rows[1:]), default=0.0),
                [frob(total - rep.images[f"g{j}"]) for total in sums.values()])
            for s in {x[j - 1] for i in rows for x in G.rows[i]}:
                projections[j, s] = _spectral_projection(phi, s, rep.p, rep.exact)
            del sums, phi
        identity = eye_like(rep.images["J"])
        roundtrip = [
            frob(_spectral_product(identity, supports[i - 1], y,
                                   lambda j, s: projections[j, s]) - self.entry(i, y))
            for i, y in G.vertices]
        return by_variable, roundtrip


def _assemble_family(
    rep: Representation, sys: LinearSystem, tol: float, cap: int
) -> ProjectionFamily:
    graph = build_game_graph(sys, cap=cap)
    identity = eye_like(rep.images["J"])
    projection = cache(lambda j, s: f_projection(rep, j, s))
    entries = {}
    for i, sols in graph.rows.items():
        cols = sys.supports[i - 1]
        _check_row_commutes(rep, i, cols, tol)
        for x in sols:
            entries[(i, x)] = _spectral_product(identity, cols, x, projection)
    return ProjectionFamily(rep, graph, entries)


def projection_family_checks(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> Checks:
    """Idempotency, self-adjointness, orthogonality on incompatible pairs,
    and the per-row resolutions of identity.  Orthogonality has a check per
    edge, so its block holds the labels of each pair's ends, not names, and
    its residuals as an array of doubles, which reads back Python floats."""
    G = fam.graph
    checks = [CheckBlock(("psi-idempotent", "psi-selfadjoint"), (G.labels,), fam.entry_residuals, tol)]

    # incompatible pairs in sorted-key order, the lower key on the left
    order = sorted(range(G.order()), key=lambda k: (G.vertices[k][0], G.vertices[k][1]))
    pairs = np.argsort(order)[dense_edges(G)]  # sorted-key positions of each edge's ends
    products = fam.edge_products
    residuals = np.where(pairs[:, 0] < pairs[:, 1], products[:, 0], products[:, 1])
    pairs.sort(axis=1)
    ranked = np.lexsort(pairs.T[::-1])
    lefts, rights = np.array([G.labels[k] for k in order], dtype=object)[pairs[ranked].T]
    checks.append(CheckBlock(("psi-orthogonal",), (lefts, rights),
                             (array("d", residuals[ranked].tobytes()),), tol))

    checks += [CheckRecord(f"psi-rowsum:{i}", residual, tol)
               for i, residual in fam.row_sum_residuals.items()]
    return Checks(checks)


def p_block(fam: ProjectionFamily, i: int, j: int, t: int) -> np.ndarray:
    """Sum of family entries of row i whose solution has value t at j."""
    return sum((fam.entry(i, x) for x in fam.graph.rows[i] if x[j - 1] == t % fam.rep.p),
               np.zeros_like(fam.rep.images["J"]))


def phi_welldefinedness_checks(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Cross-row agreement of phi(g_j) and of every value block: the sums
    over solutions with a fixed value at j must not depend on which
    containing row is used.  The worst disagreement with the lowest row is
    reported rather than an average, which would mask a failure."""
    records = []
    for j, (rows, residual, _) in fam.generator_map_residuals[0].items():
        records.append(CheckRecord(f"phi-welldefined:g{j}", residual, tol, detail={"rows": rows}))
        for t in range(fam.rep.p):
            blocks = [p_block(fam, i, j, t) for i in rows]
            residual = max(
                (frob(bq - blocks[0]) for bq in blocks[1:]), default=0.0
            )
            records.append(CheckRecord(
                f"phi-valueblock:g{j}:t={t}", residual, tol))
    return records


def check_mutual_inverse(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> Checks:
    """Both round trips of the generator maps between the family and the
    representation it was built from.

    (a) reconstructing each g_ell from weighted family sums over every row
    containing ell must return the original image; (b) evaluating the
    spectral-projection product built from the reconstructed generators
    must return each family entry.
    """
    by_variable, roundtrip = fam.generator_map_residuals
    checks = [
        CheckRecord(f"roundtrip-generator:g{ell}:row{i}", residual, tol)
        for ell, (rows, _, residuals) in by_variable.items()
        for i, residual in zip(rows, residuals)
    ]
    checks.append(CheckBlock(("roundtrip-projection",), (fam.graph.labels,), (roundtrip,), tol))
    return Checks(checks)


@dataclass(eq=False)
class IsoGeneratorFamily:
    """Matrices for the isomorphism-game generators of a family, of the
    library or of this engine, indexed by pairs of a vertex (i, x) of
    G(A,b) and a vertex (j, y) of G(A,0): the family entry at the
    translated solution x + y when i == j (adding a homogeneous row
    solution keeps the inhomogeneous-row solution set), and zero across
    different rows.  The library reads every residual from the family and
    builds no generator."""

    family: ProjectionFamily

    @cached_property
    def zero(self) -> np.ndarray:
        return np.zeros_like(self.family.rep.images["J"])

    def entry(self, vg, vh) -> np.ndarray:
        (i, x), (j, y) = vg, vh
        if i != j:
            return self.zero
        p = self.family.rep.p
        return self.family.entry(i, tuple((a + b) % p for a, b in zip(x, y)))


def iso_generator_images(fam: ProjectionFamily, cap: int = DEFAULT_ENUM_CAP) -> GameGraph:
    """G(A,0), whose vertices pair with those of fam's G(A,b) to index the
    isomorphism-game generators."""
    return build_game_graph(fam.graph.system, homogeneous=True, cap=cap)


def iso_partition_checks(
    fam: ProjectionFamily, H: GameGraph, tol: float = DEFAULT_TOL
) -> Checks:
    """Both partition-of-unity identities: summing E over all vertices of
    either graph, the other one held fixed, gives the identity.

    Only same-row pairs are nonzero, and translation by a homogeneous
    solution permutes S_i(A,b), so both sums at a vertex of row i add up
    the family entries of row i.  Exact sums do not depend on their order,
    so every residual of row i is the family's row-sum residual, or that of
    the zero sum when row i has no solution.  Float sums run in the vertex
    order of the summed graph, one row at a time, so the sums alive are
    those over G(A,b) of one row's vertices of G(A,0) and one sum over
    G(A,0).
    """
    G, iso = fam.graph, IsoGeneratorFamily(fam)
    identity = eye_like(iso.zero)
    if fam.rep.exact:
        residuals = fam.row_sum_residuals
        by_row = {i: residuals[i] if i in residuals else frob(iso.zero - identity)
                  for i in H.rows}
        over_g = [by_row[i] for i, _ in H.vertices]
        over_h = [by_row[i] for i, _ in G.vertices]
    else:
        over_g, over_h = [], []
        for i, ys in H.rows.items():
            sums_g = [iso.zero] * len(ys)
            for x in G.rows.get(i, ()):
                total = iso.zero
                for k, y in enumerate(ys):
                    E = iso.entry((i, x), (i, y))
                    sums_g[k] = sums_g[k] + E
                    total = total + E
                over_h.append(frob(total - identity))
            over_g += [frob(total - identity) for total in sums_g]
    return Checks([CheckBlock(("iso-sum-over-inhomogeneous",), (H.labels,), (over_g,), tol),
                   CheckBlock(("iso-sum-over-homogeneous",), (G.labels,), (over_h,), tol)])


def check_iso_relations(
    fam: ProjectionFamily, H: GameGraph, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Rule orthogonality plus idempotency/self-adjointness of every E.

    A quadruple of generators must multiply to zero whenever the two
    inhomogeneous-graph vertices relate (equal / adjacent / distinct
    non-adjacent) differently from the two homogeneous-graph vertices.
    Quadruples with a structurally zero factor vanish exactly and are only
    counted.  For the rest, the product is family(i, x+y) family(i', x'+y'),
    and the translated pairs (x+y, x'+y') arising from rule-zero quadruples
    are exactly the adjacent vertex pairs of the inhomogeneous graph: a
    mismatch in how the pairs relate forces a coordinate conflict in the
    sums, and conversely any conflicting pair is reached by taking both
    homogeneous parts zero.  So the edge products of the family, in both orders,
    cover every rule-zero quadruple.  Likewise the nonzero generators of
    row i are exactly its family entries, each repeated |S_i(A,0)| times,
    so idempotency and self-adjointness are those of the family entries.
    Every residual is read from the family; nothing is multiplied here.
    """
    G = fam.graph

    idem_max, adj_max = np.max(fam.entry_residuals, axis=1, initial=0.0).tolist()
    # object entries: the quadruple counts grow as |V|^4
    counts_g, counts_h = numpy_pair_counts(G).astype(object), numpy_pair_counts(H).astype(object)
    nonzero = int((counts_g[EQUAL] * counts_h[EQUAL]).sum())

    # rule-zero quadruples (G pair and H pair related differently) over the
    # full generator grid, and over same-row generators, whose factors are
    # both structurally nonzero
    total_g, total_h = counts_g.sum(axis=(1, 2)), counts_h.sum(axis=(1, 2))
    zero_quadruples = int(total_g.sum() * total_h.sum() - (total_g * total_h).sum())
    blocks_g, blocks_h = counts_g.sum(axis=0), counts_h.sum(axis=0)
    nonzero_mismatches = int((blocks_g * blocks_h).sum() - (counts_g * counts_h).sum())

    product_max = float(fam.edge_products.max(initial=0.0))
    n_gen = G.order() * H.order()
    return [
        CheckRecord("iso-idempotent", idem_max, tol,
                    detail={"generators": n_gen, "nonzero": nonzero}),
        CheckRecord("iso-selfadjoint", adj_max, tol,
                    detail={"generators": n_gen, "nonzero": nonzero}),
        CheckRecord(
            "iso-rule-orthogonality", product_max, tol,
            detail={
                "zero_quadruples": zero_quadruples,
                "with_nonzero_factors": nonzero_mismatches,
                "trivially_zero": zero_quadruples - nonzero_mismatches,
                "distinct_products": len(fam.edge_products),
            },
        ),
    ]


def psi_iso_consistency_checks(
    fam: ProjectionFamily, tol: float = DEFAULT_TOL
) -> Checks:
    """The reverse generator map into the isomorphism-game algebra: for
    each (i, x), summing E over the homogeneous zero-solution column per
    row recovers the family entry.  Structural by construction; this
    guards the implementation."""
    iso, sys = IsoGeneratorFamily(fam), fam.graph.system
    zero_vec = (0,) * sys.n  # solves every homogeneous row
    residuals = []
    for i, x in fam.graph.vertices:
        total = iso.zero
        for k in range(1, sys.m + 1):
            total = total + iso.entry((i, x), (k, zero_vec))
        residuals.append(frob(total - fam.entry(i, x)))
    return Checks([CheckBlock(("iso-zero-column",), (fam.graph.labels,), (residuals,), tol)])


def run_check_suite(
    rep: Representation,
    sys: LinearSystem,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Checks:
    """The full certification pipeline, in order: group relations, family
    invariants, generator-map well-definedness, both round trips, the
    partition identities of the isomorphism-game family, and its rule
    orthogonality."""
    checks = Checks(relation_residuals(rep, build_presentation(sys), tol))
    fam = _assemble_family(rep, sys, tol, cap)
    checks += projection_family_checks(fam, tol)
    checks += phi_welldefinedness_checks(fam, tol)
    checks += check_mutual_inverse(fam, tol)
    H = iso_generator_images(fam, cap)
    checks += iso_partition_checks(fam, H, tol)
    checks += check_iso_relations(fam, H, tol)
    checks += psi_iso_consistency_checks(fam, tol)
    return checks


def _relation_powers(
    pres: GroupPresentation, images: dict[str, np.ndarray]
) -> dict[tuple[str, int], np.ndarray]:
    """Each (generator, exponent) power the relation words use, computed
    once and C-contiguous; an exponent-1 power is the image itself when the
    image is C-contiguous."""
    powers = {}
    for rel in pres.relations:
        for gen, e in rel.word.factors:
            if (gen, e) not in powers:
                M = images[gen]
                powers[(gen, e)] = np.ascontiguousarray(M) if e == 1 else mat_power(M, e)
    return powers


def relation_residuals(
    rep, pres: GroupPresentation, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """Frobenius distance of every relation word from the identity.

    `rep` is any object with an `images` mapping of generator names to
    same-dimension square matrices (see the representation module).  A word
    is the left-to-right product of its generator powers, starting at its
    first factor; the empty word is the identity.  Negative exponents use
    conjugate transposes, which is only valid for unitary images (validated
    when a representation is constructed).
    """
    images = rep.images
    dims = {M.shape for M in images.values()}
    if len(dims) != 1 or any(a != b for a, b in dims):
        raise DimensionMismatch("generator images must share one square dimension")
    for gen in pres.generators:
        if gen not in images:
            raise DimensionMismatch(f"representation missing generator {gen}")
    records = []
    identity = eye_like(next(iter(images.values())))
    powers = _relation_powers(pres, images)
    for rel in pres.relations:
        factors = [powers[factor] for factor in rel.word.factors]
        value = reduce(matmul, factors) if factors else identity
        residual = frob(value - identity)
        records.append(
            CheckRecord(
                name=f"relation:{rel.label}",
                residual=residual,
                tolerance=tol,
                detail={"family": rel.family, "display": rel.display()},
            )
        )
    return records
