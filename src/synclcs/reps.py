"""Finite-dimensional *-representations in complex float matrices.

Builds projection families from solution-group representations through the
spectral projections f_j(s), evaluates the generator map back from family
sums, and computes the residual of every identity linking the game
algebra, the quotient group algebra, and the isomorphism-game algebra.
`scalar.run_check_suite`, the one certification suite, lays them out as
checks.  Sums and products keep the order and operands of the direct
formulas, which decide their bits.
"""

from __future__ import annotations

import cmath
import gc
import json
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from json.decoder import JSONObject
from operator import matmul
from typing import ClassVar

import numpy as np

from .config import DEFAULT_TOL, OMEGA_CONVENTION
# perfbench/tracing.py patches games' names and needs it loaded once reps
# is (ROADMAP item 9), like the stage names bound from scalar below
from . import games  # noqa: F401
from .errors import (
    DimensionMismatch,
    JNotIdentified,
    NonCommutingFactors,
    ParseError,
    UnitarityViolation,
)
from .graphs import GameGraph, build_game_graph
from .group import GroupPresentation, relation_residuals
from .matops import dagger, eye_like, frob
from .reporting import CheckRecord
from .scalar import (  # noqa: F401  (the suite's stages, bound here by name)
    check_iso_relations, check_mutual_inverse, iso_generator_images, iso_partition_checks,
    phi_welldefinedness_checks, projection_family_checks, psi_iso_consistency_checks,
    run_check_suite)
from .system import LinearSystem, json_typed
from .zp import add_mod, check_prime


def omega_pow(p: int, k: int) -> complex:
    """omega^k for omega = exp(2*pi*i/p), as a complex float."""
    return cmath.exp(2j * cmath.pi * (k % p) / p)


@dataclass(eq=False)
class Representation:
    """Unitary complex matrix images for g_1..g_n and J, all of one
    dimension, with image(J) = omega * I for the principal p-th root of
    unity omega: the representation factors through the quotient
    identifying J with omega, where the game algebra lives.
    """

    p: int
    dim: int
    images: dict[str, np.ndarray]
    exact: ClassVar[bool] = False

    @property
    def n(self) -> int:
        return sum(1 for k in self.images if k != "J")

    def relation_records(self, pres: GroupPresentation, tol: float) -> list[CheckRecord]:
        return relation_residuals(self, pres, tol)

    def family(self, sys: LinearSystem, tol: float, cap: int) -> ProjectionFamily:
        return _assemble_family(self, sys, tol, cap)


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
    for name, M in images.items():
        residual = frob(M @ dagger(M) - eye_like(M))
        if not residual <= tol:
            raise UnitarityViolation(
                f"image of {name} is not unitary (residual {residual:.3e})"
            )
    jmat = images["J"]
    j_residual = frob(jmat - eye_like(jmat) * omega_pow(p, 1))
    if not j_residual <= tol:
        raise JNotIdentified(f"image(J) differs from omega*I by {j_residual:.3e}")
    return Representation(p, d1, dict(images))


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_magic_square_rep() -> Representation:
    """The canonical 4-dimensional operator solution of the magic square.

    Two-qubit Pauli products arranged so each grid row and the first two
    grid columns multiply to +I while the last column multiplies to -I;
    J maps to -I.
    """
    table = [
        ("IZ", "ZI", "ZZ"),
        ("XI", "IX", "XX"),
        ("XZ", "ZX", "YY"),
    ]
    images = {}
    for r in range(3):
        for c in range(3):
            name = table[r][c]
            images[f"g{3 * r + c + 1}"] = np.kron(_PAULI[name[0]], _PAULI[name[1]])
    images["J"] = -np.eye(4, dtype=complex)
    return make_representation(2, images)


def f_projection(rep: Representation, j: int, s) -> np.ndarray:
    """Spectral projection (1/p) sum_t (omega^{-s} g_j)^t onto the
    omega^s-eigenspace of the image of g_j."""
    return _spectral_projection(rep.images[f"g{j}"], s, rep.p)


def _spectral_projection(g: np.ndarray, s: int, p: int) -> np.ndarray:
    """(1/p) sum_{t<p} (omega^{-s} g)^t for a unitary g of order p, in
    p - 2 products: the t = 1 term is M itself, made C-contiguous as an
    identity product would make it."""
    M = g * omega_pow(p, -s)
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
    def zero(self) -> np.ndarray:
        return np.zeros_like(self.rep.images["J"])

    @cached_property
    def entry_residuals(self) -> tuple[list[float], list[float]]:
        """The idempotency and the self-adjointness residual columns of the
        entries, in entry order."""
        entries = self.entries.values()
        return [frob(E @ E - E) for E in entries], [frob(dagger(E) - E) for E in entries]

    def edge_residuals(self, lefts, rights) -> array:
        """frob(E_u E_v) per edge (u, v) of graph.sorted_edges(), given as
        its columns; both products of each edge fill `edge_products`."""
        self.edge_products = self.products_on(lefts, rights)
        return array("d", self.edge_products[:, 0].tobytes())

    @cached_property
    def edge_products(self) -> np.ndarray:
        """`products_on` the edges of graph.sorted_edges()."""
        return self.products_on(*self.graph.sorted_edges())

    def products_on(self, lefts, rights) -> np.ndarray:
        """frob(E_u E_v) and frob(E_v E_u) for each edge (u, v) of the
        columns, in that order; shape (edges, 2)."""
        entries = list(self.entries.values())
        return np.array([(frob(entries[a] @ entries[b]), frob(entries[b] @ entries[a]))
                         for a, b in zip(lefts, rights)], dtype=float).reshape(-1, 2)

    @property
    def maxima(self) -> tuple[float, float, float]:
        """The largest entry residuals and edge product; a NaN gives NaN."""
        return (*np.max(self.entry_residuals, axis=1, initial=0.0).tolist(),
                float(self.edge_products.max(initial=0.0)))

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
        return {i: sum((self.entry(i, x) * omega_pow(rep.p, x[j - 1]) for x in sols),
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
                projections[j, s] = _spectral_projection(phi, s, rep.p)
            del sums, phi
        identity = eye_like(rep.images["J"])
        roundtrip = [
            frob(_spectral_product(identity, supports[i - 1], y,
                                   lambda j, s: projections[j, s]) - self.entry(i, y))
            for i, y in G.vertices]
        return by_variable, roundtrip

    def value_block_residuals(self, j: int, rows: list[int]) -> list[float]:
        """Per value t < p, the largest frob(block_i - block_lowest) over
        the rows, block_i the sum of row i's entries with value t at j."""
        out = []
        for t in range(self.rep.p):
            blocks = [sum((self.entry(i, x) for x in self.graph.rows[i] if x[j - 1] == t),
                          np.zeros_like(self.rep.images["J"])) for i in rows]
            out.append(max((frob(block - blocks[0]) for block in blocks[1:]), default=0.0))
        return out

    def partition_residuals(self, H: GameGraph) -> tuple[list[float], list[float]]:
        """frob(sum - I) of the partition sums over G(A,b) at each vertex of
        H = G(A,0), and over H at each vertex of G(A,b), one row at a time:
        the sums alive are those of one row's vertices of H and one more."""
        zero, p = self.zero, self.rep.p
        identity = eye_like(zero)
        over_g, over_h = [], []
        for i, ys in H.rows.items():
            sums_g = [zero] * len(ys)
            for x in self.graph.rows.get(i, ()):
                total = zero
                for k, y in enumerate(ys):
                    E = self.entry(i, add_mod(p, x, y))
                    sums_g[k] = sums_g[k] + E
                    total = total + E
                over_h.append(frob(total - identity))
            over_g += [frob(total - identity) for total in sums_g]
        return over_g, over_h

    def zero_column_residuals(self) -> list[float]:
        """frob(E(i, x + 0) - E(i, x)) per vertex: adding the other rows'
        zeros would change only signs of zeros, which frob cannot see."""
        zero, p = (0,) * self.graph.system.n, self.rep.p
        return [frob(self.entry(i, add_mod(p, x, zero)) - self.entry(i, x))
                for i, x in self.graph.vertices]


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


# what np.asarray(rows, dtype=float) raises on a matrix that is not numeric
_NOT_NUMERIC = (TypeError, ValueError, OverflowError)

# a character of every string, true and false in JSON text, which no number
# (NaN and Infinity included), array or whitespace holds
_NOT_NUMBER_CHARS = '"rl'


def _non_number(rows):
    """A string or boolean in rows, nested lists or an object array, which
    numpy reads as a number, or None; or the dtype of any other array but
    int or float."""
    if isinstance(rows, np.ndarray):
        if rows.dtype.kind != "O":
            return None if rows.dtype.kind in "fiu" else rows.dtype
        rows = rows.tolist()
    stack = [rows]
    while stack:
        value = stack.pop()
        if isinstance(value, (str, bool)):
            return value
        if isinstance(value, list):
            stack += value


def representation_from_json(doc: dict, tol: float = DEFAULT_TOL, screen=None) -> Representation:
    """screen(p, n), if given, may refuse the document by raising, once p and
    the names g1..gn, J are read and before any matrix is validated."""
    try:
        p = json_typed(doc["p"], int, "p")
        dim = json_typed(doc["dim"], int, "dim")
        convention = doc["omega_convention"]
        generators = doc["generators"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed representation document: {exc}") from exc
    if not isinstance(generators, dict):
        raise ParseError("generators must be a JSON object")
    if convention != OMEGA_CONVENTION:
        raise ParseError(
            f"unsupported omega convention {convention!r}; "
            f"expected {OMEGA_CONVENTION!r}"
        )
    if "J" not in generators:
        raise ParseError("missing generator J")
    n = len(generators) - 1
    expected = {f"g{j}" for j in range(1, n + 1)} | {"J"}
    if set(generators) != expected:
        raise ParseError(f"generator names must be g1..g{n} and J")
    if screen is not None:
        screen(p, n)
    images = {}
    for name, rows in generators.items():
        bad = _non_number(rows)
        if bad is not None:
            raise ParseError(f"matrix for {name} is not numeric: it holds {bad!r}")
        try:
            parts = np.asarray(rows, dtype=float)
        except _NOT_NUMERIC as exc:
            raise ParseError(f"matrix for {name} is not numeric: {exc}") from exc
        if parts.shape != (dim, dim, 2):
            raise ParseError(f"matrix for {name} is not {dim}x{dim} of [re, im] pairs")
        if not np.isfinite(parts).all():
            raise ParseError(f"matrix for {name} has a non-finite or null entry")
        M = np.empty((dim, dim), dtype=complex)
        M.real, M.imag = parts[..., 0], parts[..., 1]
        images[name] = M
    return make_representation(p, images, tol)


class _KeyMemo(dict):
    """The key memo of json.decoder.JSONObject, which looks each key up
    just before it scans that key's value; this one keeps the last key."""

    key = None

    def setdefault(self, key, default=None):
        self.key = key
        return key


def _decode_representation(fh) -> object:
    """json.load(fh), except that each member of the top-level "generators"
    object goes through np.asarray(value, dtype=float) as soon as it is
    scanned, so the lists of one generator at a time are alive.  A member
    whose text holds a string, true or false, or that does not convert,
    stays as decoded, for representation_from_json to refuse.  Values are
    scanned by json's scanner and the two objects walked by json's
    JSONObject, so a malformed file raises json's error at json's position."""
    text = fh.read()
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    decoder = json.JSONDecoder()
    scan, keys = decoder.scan_once, _KeyMemo()

    def generator(s: str, end: int):
        value, stop = scan(s, end)
        if all(s.find(c, end, stop) < 0 for c in _NOT_NUMBER_CHARS):
            try:
                value = np.asarray(value, dtype=float)
            except _NOT_NUMERIC:
                pass
        return value, stop

    def member(s: str, end: int):
        if keys.key == "generators" and s.startswith("{", end):
            return JSONObject((s, end + 1), decoder.strict, generator, None, None)
        return scan(s, end)

    def document(s: str, end: int):
        if s.startswith("{", end):
            return JSONObject((s, end + 1), decoder.strict, member, None, None, keys)
        return scan(s, end)

    decoder.scan_once = document
    return decoder.decode(text)


def load_representation(path: str, tol: float = DEFAULT_TOL, screen=None) -> Representation:
    """Read a representation file, screened as in representation_from_json.
    It is decoded with the cyclic garbage collector paused: a d = 256 file
    builds some 660k small lists, the collector would pass over them again
    and again while they are built, and decoded JSON holds no reference
    cycles.  Each generator's matrix becomes an array as soon as it is
    decoded, so the decoded lists of one generator at a time are alive next
    to the file's text."""
    collecting = gc.isenabled()
    try:
        with open(path) as fh:
            gc.disable()
            try:
                doc = _decode_representation(fh)
            finally:
                if collecting:
                    gc.enable()
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    return representation_from_json(doc, tol, screen)
