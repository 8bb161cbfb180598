"""Small helpers for the complex128 matrices of operator representations."""

from __future__ import annotations

import numpy as np


def frob(M: np.ndarray) -> float:
    """Frobenius norm as a float; exactly 0.0 for an exactly-zero matrix."""
    return float(np.linalg.norm(M))


def dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().T


def eye_like(M: np.ndarray) -> np.ndarray:
    """Identity of M's size and dtype."""
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
