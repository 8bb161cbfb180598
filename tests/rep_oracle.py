"""Test-side helpers for the reps module: the image of one game-algebra
generator by its direct formula (an oracle for the family entries), a
family whose defining checks all pass, the unitary conjugate of a
representation, and writing a representation file."""

from __future__ import annotations

import json

import numpy as np

from adjacency_oracle import is_row_solution
from synclcs import LinearSystem, Representation, ZpVector, make_representation
from synclcs.config import DEFAULT_ENUM_CAP, DEFAULT_TOL, OMEGA_CONVENTION
from synclcs.errors import NotASolution
from synclcs.matops import dagger, eye_like
from synclcs.reps import (
    ProjectionFamily,
    _assemble_family,
    _check_row_commutes,
    _spectral_product,
    f_projection,
    projection_family_checks,
)
from synclcs.system import row_support


def conjugate_representation(
    rep: Representation, U: np.ndarray, tol: float = DEFAULT_TOL
) -> Representation:
    """Simultaneous unitary conjugation M -> U M U* of all images."""
    images = {name: U @ M @ dagger(U) for name, M in rep.images.items()}
    return make_representation(rep.p, images, tol=tol)


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
    return _spectral_product(eye_like(rep.images["J"]), cols, x,
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
