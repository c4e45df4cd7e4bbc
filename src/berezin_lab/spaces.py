"""Rotation-invariant kernel Hilbert spaces on the unit disk.

A space is determined by the squared monomial norms ``h_k = ||z^k||^2``.
In the orthonormal frame ``e_k = z^k / sqrt(h_k)`` coordinate
multiplication acts as the weighted shift with weights
``a_k = sqrt(h_{k+1} / h_k)``, and the kernel function is the series
``K(w, z) = sum_k (w conj(z))^k / h_k``.

Built-in families (all contractive, ``a_k <= 1``):

    hardy        h_k = 1                          K = 1/(1 - w conj(z))
    bergman      h_k = 1/(k+1)                    K = 1/(1 - w conj(z))^2
    rs(s)        h_k = 1/C(s+k-1, k),  s >= 1     K = 1/(1 - w conj(z))^s
    mu           h_0 = 2, h_k = 1 (k >= 1)        circle average dtheta/2pi
                                                  plus a unit point mass at 0

``custom`` tables load from CSV (header ``k,h``); their invariants are
validated at load time, and the table length bounds the usable truncation.

On ``mu``: with the circle part normalized to dtheta/2pi the monomials stay
orthogonal with h_0 = 2, h_k = 1, hence shift weights a_0 = 1/sqrt(2),
a_k = 1.  With unnormalized arc length dtheta one gets h_0 = 2*pi + 1,
h_k = 2*pi instead (a_0 = sqrt(2*pi/(2*pi+1))).  This package uses the
normalized convention throughout.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import product as iter_product

import numpy as np

#: hard cap for adaptive truncations; exceeding it raises instead of looping
N_CAP = 2 ** 20

BUILTIN_KINDS = ("hardy", "bergman", "rs", "mu")


class TruncationError(RuntimeError):
    """Adaptive truncation could not reach the requested tolerance."""


def _h_values(kind: str, n: int, s: float | None = None) -> np.ndarray:
    """Squared monomial norms h_0..h_n for a built-in kind."""
    if kind == "hardy":
        return np.ones(n + 1)
    if kind == "bergman":
        return 1.0 / np.arange(1.0, n + 2.0)
    if kind == "rs":
        # h_{k+1} = h_k * (k+1)/(s+k); avoids binomials of large arguments
        k = np.arange(n, dtype=float)
        return np.concatenate(([1.0], np.cumprod((k + 1.0) / (s + k))))
    if kind == "mu":
        h = np.ones(n + 1)
        h[0] = 2.0
        return h
    raise ValueError(f"unknown space kind {kind!r}")


@dataclass(frozen=True)
class KernelSpace:
    """A disk kernel space given by its squared monomial norms."""

    kind: str
    h: np.ndarray
    label: str
    s: float | None = None

    @property
    def extendable(self) -> bool:
        return self.kind in BUILTIN_KINDS

    def h_table(self, n: int) -> np.ndarray:
        """h_0..h_n, recomputing built-in tables on demand."""
        if n < len(self.h):
            return self.h[: n + 1]
        if not self.extendable:
            raise TruncationError(
                f"custom norm table of length {len(self.h)} exhausted; "
                f"requested h_0..h_{n}"
            )
        return _h_values(self.kind, n, self.s)

    def shift_weights(self, n: int) -> np.ndarray:
        """a_k = sqrt(h_{k+1}/h_k) for k = 0..n-1."""
        h = self.h_table(n)
        return np.sqrt(h[1:] / h[:-1])


def monomial_norms(kind: str, n: int, s: float | None = None) -> KernelSpace:
    """Materialize h_0..h_n for one of the built-in families.

    ``rs`` requires a finite kernel exponent ``s >= 1``; rs(1) is the
    Hardy space and rs(2) the Bergman space.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1 monomials, got {n}")
    if kind == "rs":
        if s is None or not 1 <= s < math.inf:
            raise ValueError(f"rs kernel exponent must be finite with s >= 1, got {s}")
        label = f"rs({s:g})"
    elif kind in BUILTIN_KINDS:
        s = None
        label = kind
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return KernelSpace(kind=kind, h=_h_values(kind, n, s), label=label, s=s)


def custom_space(h: np.ndarray, label: str = "custom", tol: float = 1e-12) -> KernelSpace:
    """Wrap a user-supplied norm table, validating the space invariants."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or len(h) < 2:
        raise ValueError("norm table needs at least h_0 and h_1")
    if np.any(h <= 0):
        k = int(np.argmax(h <= 0))
        raise ValueError(f"h_{k} = {h[k]} is not positive")
    a = np.sqrt(h[1:] / h[:-1])
    if np.any(a > 1 + tol):
        k = int(np.argmax(a > 1 + tol))
        raise ValueError(
            f"contractivity violated: a_{k} = sqrt(h_{k+1}/h_{k}) = {a[k]:.6g} > 1"
        )
    return KernelSpace(kind="custom", h=h, label=label)


def load_h_table(path, label: str | None = None) -> KernelSpace:
    """Load a norm table from CSV with header ``k,h``."""
    ks, hs = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if [c.strip() for c in header[:2]] != ["k", "h"]:
            raise ValueError(f"expected header 'k,h', got {header!r}")
        for row in reader:
            if not row:
                continue
            ks.append(int(row[0]))
            hs.append(float(row[1]))
    if ks != list(range(len(ks))):
        raise ValueError("norm table rows must list k = 0,1,2,... in order")
    return custom_space(np.array(hs), label=label or str(path))


def space_by_name(name: str) -> KernelSpace:
    """The space a command line names: a built-in kind, ``rs(s)``, or
    ``custom:path`` for a norm table CSV."""
    name = name.strip()
    if name.startswith("rs(") and name.endswith(")"):
        return monomial_norms("rs", 8, s=float(name[3:-1]))
    if name.startswith("custom:"):
        return load_h_table(name.split(":", 1)[1])
    return monomial_norms(name, 8)


def save_h_table(space: KernelSpace, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["k", "h"])
        for k, hk in enumerate(space.h):
            writer.writerow([k, repr(float(hk))])


@dataclass(frozen=True)
class KernelVector:
    """Truncated, normalized kernel vector at a point of the disk.

    ``coeffs`` is the exact unit vector spanning the range of the
    truncated kernel projection: entry k is conj(z)^k / sqrt(h_k),
    renormalized over the kept indices.  ``norm_sq`` is the partial sum
    of the K(z,z) series over those indices, and ``tail`` bounds the
    omitted relative mass, so the true K(z,z) lies in
    [norm_sq, norm_sq * (1 + tail)].
    """

    z: complex
    coeffs: np.ndarray
    norm_sq: float
    tail: float

    @property
    def n(self) -> int:
        return len(self.coeffs)


def kernel_vector(
    space: KernelSpace, z: complex, tol: float = 1e-12, n_start: int = 32
) -> KernelVector:
    """Adaptively truncated kernel vector with relative tail below ``tol``.

    The truncation grows geometrically until the omitted mass of the
    K(z,z) series, bounded by a geometric majorant with ratio
    ``|z|^2 / a_N^2`` (the built-in weight sequences are non-decreasing),
    drops below ``tol`` of the partial sum.  Capped at ``N_CAP``.
    """
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError(f"point z = {z} lies outside the open unit disk")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    r2 = abs(z) ** 2

    n = n_start
    while True:
        try:
            h = space.h_table(n + 1)
        except TruncationError:
            if not space.extendable and len(space.h) >= 2:
                h = space.h_table(len(space.h) - 1)
                n = len(h) - 1
            else:
                raise
        terms = r2 ** np.arange(n) / h[:n]
        partial = float(np.sum(terms))
        # tail majorant: t_{k+1}/t_k = r2/a_k^2 <= r2/a_min^2 beyond index n;
        # built-in weight sequences are non-decreasing, so a_min^2 is the
        # ratio at the truncation point; custom tables use their smallest
        # ratio from that point on (and are assumed not to dip below it
        # past their end)
        if r2 == 0.0:
            tail_abs = 0.0
        else:
            if space.extendable:
                a_min_sq = h[n] / h[n - 1]
            else:
                ratios = h[n:] / h[n - 1 : -1]
                a_min_sq = float(np.min(ratios)) if len(ratios) else float(h[-1] / h[-2])
            q = r2 / a_min_sq
            t_next = r2 ** n / h[n] if n < len(h) else r2 ** n / h[-1]
            tail_abs = math.inf if q >= 1 else t_next / (1.0 - q)
        rel = tail_abs / partial
        if rel < tol:
            raw = np.conj(z) ** np.arange(n) / np.sqrt(h[:n])
            coeffs = raw / math.sqrt(partial)
            return KernelVector(z=z, coeffs=coeffs, norm_sq=partial, tail=rel)
        if not space.extendable and n >= len(space.h) - 1:
            raise TruncationError(
                f"norm table of length {len(space.h)} cannot reach tail {tol:g} "
                f"at |z| = {abs(z):.4g} (reached {rel:.3g})"
            )
        if n >= N_CAP:
            raise TruncationError(
                f"kernel tail {rel:.3g} still above {tol:g} at truncation cap {N_CAP}"
            )
        n = min(2 * n, N_CAP)


def point_norm_sq(space: KernelSpace, z: complex, tol: float = 1e-12) -> float:
    """K(z,z), the squared norm of the kernel vector at z."""
    return kernel_vector(space, z, tol).norm_sq


def kernel_gram(space: KernelSpace, points, tol: float = 1e-12) -> np.ndarray:
    """Gram matrix G_{ij} = K(z_i, z_j); Hermitian positive semidefinite.

    All points share the truncation dictated by the largest modulus, so
    the result is an exact Gram matrix of truncated kernel vectors up to
    the common tail.
    """
    pts = [complex(p) for p in points]
    for p in pts:
        if abs(p) >= 1:
            raise ValueError(f"point z = {p} lies outside the open unit disk")
    if not pts:
        return np.zeros((0, 0), dtype=complex)
    z_big = max(pts, key=abs)
    n = kernel_vector(space, z_big, tol).n
    h = space.h_table(n)[:n]
    # unnormalized coordinates: column j holds conj(z_j)^k / sqrt(h_k)
    powers = np.conj(np.array(pts))[None, :] ** np.arange(n)[:, None]
    cols = powers / np.sqrt(h)[:, None]
    return cols.conj().T @ cols


# ---------------------------------------------------------------------------
# unit ball spaces (graded monomial norms)


@dataclass(frozen=True)
class BallSpace:
    """Monomial norms of a kernel space on the unit ball of C^n."""

    n: int
    kind: str
    degree_cap: int
    norms: dict = field(compare=False)

    def basis(self):
        """Multi-indices sorted by (degree, lexicographic)."""
        return sorted(self.norms, key=lambda a: (sum(a), a))


def _multi_indices(n: int, degree: int):
    for alpha in iter_product(range(degree + 1), repeat=n):
        if sum(alpha) <= degree:
            yield alpha


def da_norms(n: int, degree_cap: int) -> BallSpace:
    """Monomial norms ||z^alpha||^2 = alpha!/|alpha|! of the n-variable
    space with kernel 1/(1 - <z,w>)."""
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    norms = {}
    for alpha in _multi_indices(n, degree_cap):
        num = math.prod(math.factorial(a) for a in alpha)
        norms[alpha] = num / math.factorial(sum(alpha))
    return BallSpace(n=n, kind="drury_arveson", degree_cap=degree_cap, norms=norms)


def hardy_ball_norms(n: int, degree_cap: int) -> BallSpace:
    """Monomial norms of the kernel 1/(1 - <z,w>)^n on the ball,
    ||z^alpha||^2 = alpha! (n-1)! / (|alpha| + n - 1)!."""
    if n < 1:
        raise ValueError(f"need n >= 1 variables, got {n}")
    if degree_cap < 0:
        raise ValueError(f"degree cap must be >= 0, got {degree_cap}")
    norms = {}
    for alpha in _multi_indices(n, degree_cap):
        num = math.prod(math.factorial(a) for a in alpha) * math.factorial(n - 1)
        norms[alpha] = num / math.factorial(sum(alpha) + n - 1)
    return BallSpace(n=n, kind="hardy_ball", degree_cap=degree_cap, norms=norms)


def ball_space(n: int, degree_cap: int, kind: str = "drury_arveson") -> BallSpace:
    if kind == "drury_arveson":
        return da_norms(n, degree_cap)
    if kind == "hardy_ball":
        return hardy_ball_norms(n, degree_cap)
    raise ValueError(f"unknown ball space kind {kind!r}")
