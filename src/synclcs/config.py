"""Tunable limits for enumeration and search."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ParseError

DEFAULT_ENUM_CAP = 2**20
DEFAULT_SEARCH_BUDGET = 10**7
DEFAULT_TOL = 1e-9

# Largest modulus repcheck certifies.  A variable can take p values, each
# with its own spectral projection: a sum of p powers of its image.  So the
# work per variable grows as p**2 matrix products, each of p rational
# coefficients when exact.  At this cap a variable that takes every value
# costs about 0.6 s.
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
        return int(value)
    except ValueError:
        raise ParseError(f"{name}={value!r} is not an integer") from None
