"""Smallest eigenvalue of Hermitian tridiagonal matrices.

Eigenvalues of a Hermitian tridiagonal matrix depend on the off-diagonal
entries only through their moduli (conjugation by a unimodular diagonal),
so complex off-diagonals are accepted and replaced by their moduli.  The
eigenvalue comes from LAPACK ``?stebz`` through scipy: bisection on Sturm
counts (W. Kahan, "Accurate eigenvalues of a symmetric tri-diagonal
matrix", Stanford CS TR 41, 1966), O(N) work per step and O(N) memory,
which keeps truncation sizes up to 10^6 practical.
"""

from __future__ import annotations

import numpy as np


def lambda_min_batch(diags, offs) -> np.ndarray:
    """Smallest eigenvalues of a batch of Hermitian tridiagonals.

    ``diags`` has shape (B, N) and ``offs`` shape (B, N-1).
    """
    # imported here because scipy.linalg takes about 0.3 s and 26 MB to
    # load, which every CLI start-up would otherwise pay
    from scipy.linalg import eigvalsh_tridiagonal

    diags = np.atleast_2d(np.asarray(diags, dtype=float))
    offs = np.atleast_2d(np.asarray(offs))
    b, n = diags.shape
    if n == 0:
        raise ValueError("empty matrix")
    if offs.shape != (b, n - 1):
        raise ValueError(f"off-diagonal shape {offs.shape} does not match {(b, n - 1)}")
    return np.array(
        [
            eigvalsh_tridiagonal(
                d, e, select="i", select_range=(0, 0), lapack_driver="stebz"
            )[0]
            for d, e in zip(diags, np.abs(offs))
        ],
        dtype=float,
    )

