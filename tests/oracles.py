"""Reference constructions and checks shared by several test modules."""

import math

import numpy as np

from berezin_lab import exprs
from berezin_lab.spaces import KernelSpace, kernel_vector


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


def tall_mult_matrix(space, coeffs, n_cols: int) -> np.ndarray:
    """Multiplication matrix keeping every output row.

    With rows up to n_cols + deg the matrix represents phi * p exactly for
    polynomials p of degree < n_cols, so B^H B is the true Gram of the
    products -- no truncation loss at the top edge.
    """
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n_rows = n_cols + len(coeffs) - 1
    return exprs.band_matrix(coeffs, space.shift_weights(max(n_rows - 1, 0)), n_rows, n_cols)


def projection_Pz(space: KernelSpace, z: complex, n: int, tol: float = 1e-13) -> np.ndarray:
    """Rank-one orthogonal projection onto the truncated kernel line at z."""
    kv = kernel_vector(space, z, tol)
    v = np.zeros(n, dtype=complex)
    m = min(kv.n, n)
    v[:m] = kv.coeffs[:m]
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("kernel vector truncates to zero at this size")
    v /= nrm
    return np.outer(v, v.conj())


def column_sigma_min(blocks) -> float:
    """Smallest singular value of the column stacking the square arrays
    ``blocks`` (adjoint a block before passing it to stack its adjoint).

    Computed as sqrt(lambda_min(sum B_i^* B_i)) by a dense Hermitian
    eigensolve.
    """
    if not blocks:
        raise ValueError("column needs at least one block")
    shapes = {b.shape for b in blocks}
    if len(shapes) != 1:
        raise ValueError(f"blocks disagree in shape: {sorted(shapes)}")
    n = blocks[0].shape[0]
    acc = np.zeros((n, n), dtype=complex)
    for b in blocks:
        acc += b.conj().T @ b
    lam = float(np.linalg.eigvalsh(acc)[0])
    return math.sqrt(max(lam, 0.0))


def window_residuals(w, lam: complex, k: int, d: int):
    """Residual norms ||(T-l)x|| and ||(T-l)^*x|| of the oscillatory
    window vector x = d^(-1/2) sum_{j=1..d} e^(-ij theta) e_{k+j}."""
    lam = complex(lam)
    if d < 1 or k < 0:
        raise ValueError("need window k >= 0, d >= 1")
    if k + d + 1 >= w.n:
        raise ValueError(f"window [{k}, {k + d + 1}] runs past {w.n} weights")
    theta = math.atan2(lam.imag, lam.real)
    n = k + d + 2
    x = np.zeros(n, dtype=complex)
    j = np.arange(1, d + 1)
    x[k + j] = np.exp(-1j * j * theta) / math.sqrt(d)
    a = w.a[:n]
    tx = np.zeros(n, dtype=complex)
    tx[1:] = a[:-1] * x[:-1]
    tax = np.zeros(n, dtype=complex)
    tax[:-1] = a[:-1] * x[1:]
    fwd = float(np.linalg.norm(tx - lam * x))
    back = float(np.linalg.norm(tax - np.conj(lam) * x))
    return fwd, back


def reject_constant(name):
    """``parse_constant`` for ``json.loads`` that refuses NaN and infinities."""
    raise ValueError(f"non-standard JSON constant {name}")
