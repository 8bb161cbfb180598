"""Certification of the scalar representation of a classical solution.

A solution x* of Ax = b gives the 1-dimensional representation
g_j -> omega^{x*_j}, J -> omega of the solution group.  The image of g_j
has the one eigenvalue omega^{x*_j}, so:
- the spectral projection f_j(s) is delta(x*_j, s);
- a family entry, the product of its row's projections, is a product of
  those deltas, the indicator of x = x* on the row support;
- a phase sum over a row is one phase, the sum of its nonzero terms;
- a relation word is a product of omega-powers.

The suite computes every identity that `reps.run_check_suite` certifies on
these Cyclotomic and int scalars, by value: exact values are canonical and
exact sums do not depend on their order.  Each residual is still computed,
as the Frobenius norm of the 1x1 matrix [d], math.sqrt(abs(d) ** 2), so the
checks, their names, residuals, tolerances and details are those the
matrix suite gives on 1x1 images.  Nothing here loads numpy.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import chain
from operator import mul
from typing import ClassVar

from .config import DEFAULT_ENUM_CAP, DEFAULT_TOL
from .cyclotomic import Cyclotomic
from .errors import DimensionMismatch, JNotIdentified, NotASolution, UnitarityViolation
from .graphs import EQUAL, GameGraph, build_game_graph
from .group import GroupPresentation, build_presentation
from .reporting import CheckBlock, CheckRecord, Checks
from .system import LinearSystem
from .zp import ZpVector, add_mod


def _norm(d) -> float:
    """The Frobenius norm of the 1x1 matrix [d]: exactly 0.0 when d is 0."""
    return math.sqrt(abs(d) ** 2)


@dataclass(frozen=True, eq=False)
class ScalarRepresentation:
    """g_j -> omega^{x*_j} and J -> omega for a solution xstar, in exact
    cyclotomic scalars; `images` holds each generator's value."""

    p: int
    xstar: ZpVector

    dim: ClassVar[int] = 1
    exact: ClassVar[bool] = True

    @property
    def n(self) -> int:
        return len(self.xstar)

    @cached_property
    def exponents(self) -> dict[str, int]:
        """k with image omega^k, of every generator."""
        return {**{f"g{j}": x for j, x in enumerate(self.xstar.entries, 1)}, "J": 1}

    @cached_property
    def images(self) -> dict[str, Cyclotomic]:
        return {gen: Cyclotomic.omega_power(self.p, k) for gen, k in self.exponents.items()}


def scalar_rep_from_solution(sys: LinearSystem, xstar: ZpVector) -> ScalarRepresentation:
    """The 1-dimensional representation g_j -> omega^{x*_j}, J -> omega.

    Exists exactly when xstar solves the system; carried in exact
    cyclotomic arithmetic so every certified identity has residual 0.
    Each image is checked unitary, and J's image omega, as a matrix
    representation's are."""
    if xstar.p != sys.p or len(xstar) != sys.n:
        raise DimensionMismatch(f"solution has {len(xstar)} entries mod {xstar.p}, "
                                f"system has {sys.n} variables mod {sys.p}")
    if sys.A.apply(xstar) != sys.b:
        raise NotASolution("xstar does not solve the system")
    rep = ScalarRepresentation(sys.p, xstar)
    for name, value in rep.images.items():
        residual = _norm(value * value.conjugate() - 1)
        if not residual <= DEFAULT_TOL:
            raise UnitarityViolation(f"image of {name} is not unitary (residual {residual:.3e})")
    j_residual = _norm(rep.images["J"] - Cyclotomic.omega_power(sys.p, 1))
    if not j_residual <= DEFAULT_TOL:
        raise JNotIdentified(f"image(J) differs from omega*I by {j_residual:.3e}")
    return rep


def relation_residuals(
    rep: ScalarRepresentation, pres: GroupPresentation, tol: float = DEFAULT_TOL
) -> list[CheckRecord]:
    """The distance of every relation word from 1: a word's value is the
    product of its factors' omega-powers, 1 for the empty word."""
    exponents, p = rep.exponents, rep.p
    for gen in pres.generators:
        if gen not in exponents:
            raise DimensionMismatch(f"representation missing generator {gen}")
    records = []
    for rel in pres.relations:
        powers = [Cyclotomic.omega_power(p, exponents[gen] * e) for gen, e in rel.word.factors]
        value = reduce(mul, powers) if powers else 1
        records.append(CheckRecord(f"relation:{rel.label}", _norm(value - 1), tol,
                                   detail={"family": rel.family, "display": rel.display()}))
    return records


@cache
def _omega_exponents(p: int) -> dict[Cyclotomic, int]:
    return {Cyclotomic.omega_power(p, k): k for k in range(p)}


def _eigenprojection(p: int, phase, s: int):
    """(1/p) sum_{t<p} (omega^{-s} phase)^t, the spectral projection of the
    1x1 image [phase] onto its omega^s-eigenspace: delta(k, s) when phase
    is omega^k, and the sum itself otherwise."""
    k = _omega_exponents(p).get(phase)
    if k is not None:
        return int(k == s)
    term = Cyclotomic.omega_power(p, -s) * phase
    total, factor = 1 + term, term
    for _ in range(2, p):
        term = term * factor
        total = total + term
    return total / p


def _orthogonality(G: GameGraph, entries: list, tol: float) -> tuple[CheckBlock, float]:
    """The orthogonality block of the entries, a check per edge, and the
    largest product of two entries on an edge, in either order.

    A check names the lower (row, solution) on the left, in the order of
    `GameGraph.sorted_edges`.  One product is computed per ordered pair of
    distinct entry values."""
    values = list(dict.fromkeys(entries))
    k = len(values)
    ids = [values.index(e) for e in entries]
    products = [_norm(x * y) for x in values for y in values]  # at (id of x) * k + id of y
    lefts, rights = G.sorted_edges()
    codes = [ids[a] * k + ids[b] for a, b in zip(lefts, rights)]
    labels = G.labels
    block = CheckBlock(("psi-orthogonal",),
                       ([labels[a] for a in lefts], [labels[b] for b in rights]),
                       (array("d", [products[c] for c in codes]),), tol)
    return block, max((max(products[c], products[c % k * k + c // k]) for c in set(codes)),
                      default=0.0)


def _generator_map_checks(rep: ScalarRepresentation, G: GameGraph, entries: list,
                          tol: float) -> tuple[list, list]:
    """(phi's records, both round trips' records).

    For each variable j, ascending, the phase sum of each row i containing
    it, the sum over x in S_i of omega^{x_j} E(i, x), from the nonzero
    entries: phi(g_j) is the lowest row's sum, and the others and every
    value block must agree with it.  Each vertex's round trip is the
    product of the projections of the phis onto its values."""
    p, supports = rep.p, G.system.supports
    nonzero: dict[int, list] = {i: [] for i in G.rows}
    for (i, x), e in zip(G.vertices, entries):
        if e:
            nonzero[i].append((x, e))
    phi_records, generator_records, phis = [], [], {}
    for j in sorted({j for i in G.rows for j in supports[i - 1]}):
        rows = [i for i in G.rows if j in supports[i - 1]]
        sums = [sum((e * Cyclotomic.omega_power(p, x[j - 1]) for x, e in nonzero[i]), 0)
                for i in rows]
        phis[j] = phi = sums[0]
        phi_records.append(CheckRecord(
            f"phi-welldefined:g{j}", max((_norm(total - phi) for total in sums[1:]), default=0.0),
            tol, detail={"rows": rows}))
        for t in range(p):
            blocks = [sum(e for x, e in nonzero[i] if x[j - 1] == t) for i in rows]
            phi_records.append(CheckRecord(
                f"phi-valueblock:g{j}:t={t}",
                max((_norm(block - blocks[0]) for block in blocks[1:]), default=0.0), tol))
        image = rep.images[f"g{j}"]
        generator_records += [CheckRecord(f"roundtrip-generator:g{j}:row{i}",
                                          _norm(total - image), tol)
                              for i, total in zip(rows, sums)]
    projection = cache(lambda j, s: _eigenprojection(p, phis[j], s))
    roundtrip = [_norm(math.prod(projection(j, y[j - 1]) for j in supports[i - 1]) - e)
                 for (i, y), e in zip(G.vertices, entries)]
    generator_records.append(CheckBlock(("roundtrip-projection",), (G.labels,), (roundtrip,), tol))
    return phi_records, generator_records


def iso_relation_records(G: GameGraph, H: GameGraph, idem_max: float, adj_max: float,
                         product_max: float, edges: int, tol: float) -> list[CheckRecord]:
    """The idempotency, self-adjointness and rule-orthogonality records of
    the isomorphism-game family over G(A,b) and G(A,0), from the largest
    family residuals and the largest product over G's edges, in either
    order, with the quadruple counts of the two graphs' pair counts as
    exact Python ints."""
    flat_g, flat_h = ([list(chain.from_iterable(rows)) for rows in X.pair_counts] for X in (G, H))
    nonzero = sum(map(mul, flat_g[EQUAL], flat_h[EQUAL]))
    # rule-zero quadruples (G pair and H pair related differently) over the
    # full generator grid, and over same-row generators, whose factors are
    # both structurally nonzero
    total_g, total_h = [sum(c) for c in flat_g], [sum(c) for c in flat_h]
    zero_quadruples = sum(total_g) * sum(total_h) - sum(map(mul, total_g, total_h))
    blocks_g, blocks_h = [sum(c) for c in zip(*flat_g)], [sum(c) for c in zip(*flat_h)]
    nonzero_mismatches = (sum(map(mul, blocks_g, blocks_h))
                          - sum(sum(map(mul, cg, ch)) for cg, ch in zip(flat_g, flat_h)))
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
                "distinct_products": edges,
            },
        ),
    ]


def run_check_suite(
    rep: ScalarRepresentation,
    sys: LinearSystem,
    tol: float = DEFAULT_TOL,
    cap: int = DEFAULT_ENUM_CAP,
) -> Checks:
    """The checks of `reps.run_check_suite` on a scalar representation, in
    its order: group relations, family invariants, generator-map
    well-definedness, both round trips, the partition identities of the
    isomorphism-game family, its rule orthogonality, and its zero column."""
    checks = Checks(relation_residuals(rep, build_presentation(sys), tol))
    G = build_game_graph(sys, cap=cap)
    xstar, supports = rep.xstar.entries, sys.supports
    # E(i, x): the product of delta(x*_j, x_j) over the row support
    entries = [math.prod(int(x[j - 1] == xstar[j - 1]) for j in supports[i - 1])
               for i, x in G.vertices]
    idem = [_norm(e * e - e) for e in entries]
    adj = [_norm(e.conjugate() - e) for e in entries]
    orthogonality, product_max = _orthogonality(G, entries, tol)
    row_sums = {i: _norm(sum(entries[k] for k in G._positions[i]) - 1) for i in G.rows}
    checks += [CheckBlock(("psi-idempotent", "psi-selfadjoint"), (G.labels,), (idem, adj), tol),
               orthogonality,
               *(CheckRecord(f"psi-rowsum:{i}", residual, tol) for i, residual in row_sums.items())]
    phi_records, generator_records = _generator_map_checks(rep, G, entries, tol)
    checks += phi_records
    checks += generator_records

    # translation by a homogeneous solution permutes S_i(A,b), so both
    # partition sums at a vertex of row i are row i's sum, or the zero sum
    # when row i has no solution
    H = build_game_graph(sys, homogeneous=True, cap=cap)
    by_row = {i: row_sums[i] if i in row_sums else _norm(0 - 1) for i in H.rows}
    checks += [CheckBlock(("iso-sum-over-inhomogeneous",), (H.labels,),
                          ([by_row[i] for i, _ in H.vertices],), tol),
               CheckBlock(("iso-sum-over-homogeneous",), (G.labels,),
                          ([by_row[i] for i, _ in G.vertices],), tol)]
    checks += iso_relation_records(G, H, max(idem, default=0.0), max(adj, default=0.0),
                                   product_max, len(orthogonality), tol)

    # the zero column: E((i, x), (k, 0)) is E(i, x + 0) in row i, and zero
    # in the other rows
    zero, index = (0,) * sys.n, G._index
    checks += [CheckBlock(("iso-zero-column",), (G.labels,),
                          ([_norm(entries[index[i, add_mod(sys.p, x, zero)]] - e)
                            for (i, x), e in zip(G.vertices, entries)],), tol)]
    return checks
