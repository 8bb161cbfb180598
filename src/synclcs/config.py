"""Tunable limits for enumeration and search."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ParseError

DEFAULT_ENUM_CAP = 2**20
DEFAULT_SEARCH_BUDGET = 10**7
DEFAULT_TOL = 1e-9

# Largest modulus repcheck certifies.  A variable can take p values, each
# with its own spectral projection: for a matrix representation a sum of p
# powers of its image, so the work per variable grows as p**2 matrix
# products.  The scalar representation of a classical solution takes no
# product: its projections are delta(x*_j, s).  On a 2-CPU VM (in-process,
# best of 5) its suite takes 1.6, 3.1 and 8.2 ms on x1 + x2 = 0 at p = 31,
# 53 and 101, and 4.5, 10 and 23 ms on three such rows over six variables.
# The cap stays: raising it would change the reports that refuse a p.
MAX_REPCHECK_P = 31

# the root of unity J stands for in every report and representation file
OMEGA_CONVENTION = "exp(2*pi*i/p)"

ENUM_CAP_ENV = "SYNCLCS_ENUM_CAP"
SEARCH_BUDGET_ENV = "SYNCLCS_SEARCH_BUDGET"


@dataclass(frozen=True)
class Limits:
    """Resource caps threaded through enumeration and backtracking code."""

    enum_cap: int = DEFAULT_ENUM_CAP
    search_budget: int = DEFAULT_SEARCH_BUDGET

    @staticmethod
    def from_env() -> "Limits":
        """Read overrides from SYNCLCS_ENUM_CAP / SYNCLCS_SEARCH_BUDGET."""
        return Limits(enum_cap=_env_int(ENUM_CAP_ENV, DEFAULT_ENUM_CAP),
                      search_budget=_env_int(SEARCH_BUDGET_ENV, DEFAULT_SEARCH_BUDGET))


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        number = int(value)
    except ValueError:
        raise ParseError(f"{name}={value!r} is not an integer") from None
    if number < 1:
        raise ParseError(f"{name}={value!r} is below 1")
    return number
