"""The finitely presented solution group of a linear system.

Generators g_1..g_n and a central J of order p; relation families:
generator orders, J order, centrality of J, commutation of variables
sharing a row, and one product relation per row tying the row to J^{b_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import matmul

from .config import DEFAULT_TOL
from .errors import DimensionMismatch
from .reporting import CheckRecord
from .system import LinearSystem

ORDER_G = "order-g"
ORDER_J = "order-J"
CENTRAL_J = "central-J"
ROW_COMMUTATION = "row-commutation"
ROW_PRODUCT = "row-product"

FAMILIES = (ORDER_G, ORDER_J, CENTRAL_J, ROW_COMMUTATION, ROW_PRODUCT)


@dataclass(frozen=True)
class Word:
    """A product of generator powers, evaluated left to right."""

    factors: tuple[tuple[str, int], ...]

    def display(self) -> str:
        if not self.factors:
            return "1"
        parts = []
        for gen, e in self.factors:
            parts.append(gen if e == 1 else f"{gen}^{e}")
        return " ".join(parts)


def commutator(a: str, b: str) -> Word:
    return Word(((a, -1), (b, -1), (a, 1), (b, 1)))


@dataclass(frozen=True)
class Relation:
    family: str
    row: int | None
    word: Word
    label: str

    def display(self) -> str:
        if self.family in (CENTRAL_J, ROW_COMMUTATION):
            # commutator words render in bracket form
            a = self.word.factors[0][0]
            b = self.word.factors[1][0]
            return f"[{a},{b}]"
        return self.word.display()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "row": self.row,
            "word": [[gen, e] for gen, e in self.word.factors],
            "display": self.display(),
        }


@dataclass(frozen=True)
class GroupPresentation:
    n: int
    p: int
    relations: tuple[Relation, ...]

    @property
    def generators(self) -> list[str]:
        return [f"g{j}" for j in range(1, self.n + 1)] + ["J"]

    def counts_by_family(self) -> dict[str, int]:
        counts = {fam: 0 for fam in FAMILIES}
        for rel in self.relations:
            counts[rel.family] += 1
        return counts

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "generators": self.generators,
            "relations": [rel.to_json() for rel in self.relations],
        }

    def to_relators_text(self) -> str:
        """One relator per line in a generators/relators text block."""
        lines = [f"# generators: {', '.join(self.generators)}"]
        lines += [rel.display() for rel in self.relations]
        return "\n".join(lines) + "\n"


def build_presentation(sys: LinearSystem) -> GroupPresentation:
    """Emit all five relation families for the system.

    Commutation pairs are deduplicated across rows (the defining condition
    quantifies over "some row", so the relation set is what matters).
    Row products order factors by ascending variable index; since all
    factors in one row commute, any order is equivalent, and ascending is
    fixed for reproducibility.
    """
    p, n, m = sys.p, sys.n, sys.m
    rels: list[Relation] = []
    for j in range(1, n + 1):
        rels.append(Relation(ORDER_G, None, Word(((f"g{j}", p),)), f"order-g:g{j}"))
    rels.append(Relation(ORDER_J, None, Word((("J", p),)), "order-J:J"))
    for j in range(1, n + 1):
        rels.append(Relation(CENTRAL_J, None, commutator(f"g{j}", "J"),
                             f"central-J:[g{j},J]"))
    seen_pairs: set[tuple[int, int]] = set()
    for i in range(1, m + 1):
        cols = sys.supports[i - 1]
        for a_idx, j in enumerate(cols):
            for ell in cols[a_idx + 1:]:
                if (j, ell) in seen_pairs:
                    continue
                seen_pairs.add((j, ell))
                rels.append(Relation(ROW_COMMUTATION, i, commutator(f"g{j}", f"g{ell}"),
                                     f"row-commutation:[g{j},g{ell}]"))
    for i in range(1, m + 1):
        row = sys.A.rows[i - 1]
        factors = [(f"g{j}", row[j - 1]) for j in sys.supports[i - 1]]
        bi = sys.b.entry(i)
        if bi:
            factors.append(("J", -bi))
        rels.append(Relation(ROW_PRODUCT, i, Word(tuple(factors)), f"row-product:row{i}"))
    return GroupPresentation(n, p, tuple(rels))


def _relation_powers(pres: GroupPresentation, images: dict) -> dict:
    """Each (generator, exponent) power the relation words use, computed
    once and C-contiguous; an exponent-1 power is the image itself when the
    image is C-contiguous."""
    import numpy as np

    from .matops import mat_power

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
    when a representation is constructed).  The scalar representations of
    classical solutions have their own relation checks, in `scalar`.
    """
    from .matops import eye_like, frob

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
