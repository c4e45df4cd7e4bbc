"""Reference constructions and checks shared by several test modules."""

import numpy as np


def dense_tridiagonal(diag, off) -> np.ndarray:
    """Materialize the Hermitian tridiagonal with diagonal ``diag`` and
    superdiagonal ``off`` (the subdiagonal is its conjugate)."""
    diag = np.asarray(diag)
    off = np.asarray(off)
    n = len(diag)
    m = np.zeros((n, n), dtype=np.result_type(diag, off, float))
    m[np.arange(n), np.arange(n)] = diag
    if n > 1:
        m[np.arange(n - 1), np.arange(1, n)] = off
        m[np.arange(1, n), np.arange(n - 1)] = np.conj(off)
    return m


def reject_constant(name):
    """``parse_constant`` for ``json.loads`` that refuses NaN and infinities."""
    raise ValueError(f"non-standard JSON constant {name}")
