"""Reference constructions and checks shared by several test modules."""

import numpy as np

from berezin_lab import exprs
from berezin_lab.operators import shift_weights_of


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


def dense_from_band(band) -> np.ndarray:
    """The Hermitian matrix whose lower band (LAPACK storage,
    ``band[d, i] = A[i + d, i]``) is ``band``, diagonal read as real."""
    band = np.asarray(band, dtype=complex)
    n = band.shape[1]
    m = np.zeros((n, n), dtype=complex)
    for d in range(1, min(band.shape[0], n)):
        i = np.arange(n - d)
        m[i + d, i] = band[d, : n - d]
    return m + m.conj().T + np.diag(band[0].real)


def band_from_dense(m, q: int) -> np.ndarray:
    """Lower band of half-width q of a square matrix, in LAPACK storage."""
    n = m.shape[0]
    band = np.zeros((q + 1, n), dtype=complex)
    for d in range(min(q + 1, n)):
        band[d, : n - d] = np.diagonal(m, -d)
    return band


def tall_mult_matrix(space_or_weights, coeffs, n_cols: int) -> np.ndarray:
    """Multiplication matrix keeping every output row.

    With rows up to n_cols + deg the matrix represents phi * p exactly for
    polynomials p of degree < n_cols, so B^H B is the true Gram of the
    products -- no truncation loss at the top edge.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n_rows = n_cols + len(coeffs) - 1
    a = shift_weights_of(space_or_weights, max(n_rows - 1, 0))
    return exprs.band_matrix(coeffs, a, n_rows, n_cols)


def reject_constant(name):
    """``parse_constant`` for ``json.loads`` that refuses NaN and infinities."""
    raise ValueError(f"non-standard JSON constant {name}")
