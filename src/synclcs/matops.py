"""Small matrix helpers that work for complex128 arrays and for object
arrays of exact cyclotomic scalars alike."""

from __future__ import annotations

import math

import numpy as np


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
    """M**n by repeated multiplication; negative n uses the conjugate
    transpose, valid because all matrices fed through here are unitary."""
    if n < 0:
        return mat_power(dagger(M), -n)
    result = eye_like(M)
    for _ in range(n):
        result = result @ M
    return result
