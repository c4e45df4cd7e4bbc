"""Operator expressions over a weighted shift: parser, printer, evaluation.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor+                       juxtaposition is composition
    factor := 'M(' coeffs ')' | 'M(' coeffs ')^*'
            | 'Mz' | 'Mz^*'                 M(0,1) and M(0,1)^*
            | '[' expr ',' expr ']'         commutator
            | '(' expr ')'
            | complex '*' factor            scalar multiple
    coeffs := complex (',' complex)*        Taylor coefficients c0, c1, ...

Complex literals use the form ``a+bi`` (also ``a``, ``bi``, ``i``); a
leading '-' is accepted where a factor starts.  ``M(c0,c1,...)``
multiplies by the polynomial/series with those coefficients, in the
weighted shift S: e_k -> a_k e_{k+1} of whichever space or weight
sequence the expression is evaluated against.  ``Mz``, coordinate
multiplication, is the multiplier M(0,1) = S, not a node of its own:
``Mz()`` builds ``MPoly((0.0, 1.0))``, and the printer writes a
multiplier with coefficients (0, 1) as ``Mz``.  The tree has seven node
kinds: two multipliers, ``Scale``, ``Product``, ``Sum``, ``Commutator``
and ``Dense``.

A ``Dense`` leaf carries an explicit M x M matrix into a tree (it has no
text form); it acts by compression on the leading M coordinates.

``apply`` is the one evaluator of expressions.  It acts along axis 0 of a
coefficient vector, or of an (N x P) block of them, without forming any
matrix, which is what makes sampling near the boundary circle feasible;
the two multiplier leaves share one weighted-shift loop.  Truncation
has compression semantics: coordinates pushed to index >= N are dropped.
``materialize`` is ``apply`` to the N x N identity, and the one builder
of dense multiplier matrices.

Buffer rule: ``apply`` never writes to its input and always returns a
fresh array, which the caller may overwrite.  The evaluator relies on
it: the shift series builds its powers in two alternating buffers and
scales each in place, and ``Scale``, ``Sum`` and ``Commutator`` finish
their arithmetic in the arrays their operands returned.  The result
keeps the dtype of the data: a real input that meets only real
coefficients and scalars gives a real result, with the real part of the
bits the complex evaluation gives.  A multiplier with a complex
coefficient casts its real input once (its first power or term is a
complex buffer), and a complex scalar or operand makes the rest complex.

``rotate`` is the one phase map: for a unit w and U = diag(conj(w)^k) it
gives the tree of U^* X U.  U^* S U = w S exactly, so a multiplier
whose one nonzero coefficient is c_1 (``Mz``, ``M(0,c)``) becomes w
times itself and its adjoint conj(w) times itself, and a product or
commutator collects its factors' scalars into one ``Scale`` at its top;
the coefficients c_m of any other multiplier become c_m w^m.  A kernel
vector is U times a real line, so the transform evaluates the rotated
tree on that real line, with ``Mz^* Mz`` and ``[Mz^*, Mz]``, spelt with
``Mz`` or with ``M(0,1)``, wholly in real arithmetic.

``quadratic`` is <X v, v> for a real v.  It is linear over ``Sum`` and
``Scale``; at a multiplier leaf it sums c_j <S^j v, v> over real powers
and real pairwise dots, which it forms only to dot them with v, and at
every other node it is ``inner(v, apply(X, a, v))``.  Its docstring
states a gamma bound that holds for both ways of forming the value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class MPoly:
    coeffs: tuple


@dataclass(frozen=True)
class MPolyAdj:
    coeffs: tuple


def Mz() -> MPoly:
    """Coordinate multiplication, the multiplier M(0,1)."""
    return MPoly((0.0, 1.0))


def MzAdj() -> MPolyAdj:
    """Its adjoint, M(0,1)^*."""
    return MPolyAdj((0.0, 1.0))


@dataclass(frozen=True)
class Scale:
    c: complex
    node: object


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Sum:
    terms: tuple  # of (sign, node) with sign in {+1, -1}; first sign is +1


@dataclass(frozen=True)
class Commutator:
    a: object
    b: object


@dataclass(frozen=True, eq=False)
class Dense:
    """An explicit square matrix acting on the leading block of coordinates."""

    mat: np.ndarray


# ---------------------------------------------------------------------------
# tokenizer

_NUM = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _tokenize(text: str):
    tokens = []  # (kind, value, pos)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("Mz", i):
            tokens.append(("MZ", None, i))
            i += 2
            continue
        if text.startswith("M(", i):
            tokens.append(("MPOLY", None, i))
            i += 2
            continue
        if text.startswith("^*", i):
            tokens.append(("ADJ", None, i))
            i += 2
            continue
        if ch in "()[],+-*":
            kinds = {
                "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
                ",": "COMMA", "+": "PLUS", "-": "MINUS", "*": "STAR",
            }
            tokens.append((kinds[ch], None, i))
            i += 1
            continue
        m = _NUM.match(text, i)
        if m:
            val = float(m.group())
            i = m.end()
            if i < n and text[i] in "i":
                tokens.append(("NUM", (val, True), m.start()))
                i += 1
            else:
                tokens.append(("NUM", (val, False), m.start()))
            continue
        if ch == "i":
            tokens.append(("NUM", (1.0, True), i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind}, found {tok[0]}", tok[2])
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self):
        terms = [(1, self.term())]
        while self.peek()[0] in ("PLUS", "MINUS"):
            sign = 1 if self.next()[0] == "PLUS" else -1
            terms.append((sign, self.term()))
        if len(terms) == 1:
            return terms[0][1]
        return Sum(tuple(terms))

    # term := factor+
    def term(self):
        factors = [self.factor()]
        while self.peek()[0] in ("MZ", "MPOLY", "LPAREN", "LBRACK", "NUM", "MINUS"):
            # a '-' here would belong to the enclosing sum, not a new factor
            if self.peek()[0] == "MINUS":
                break
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def factor(self):
        kind, _, pos = self.peek()
        if kind == "MZ":
            self.next()
            if self.peek()[0] == "ADJ":
                self.next()
                return MzAdj()
            return Mz()
        if kind == "MPOLY":
            self.next()
            coeffs = [self.scalar()]
            while self.peek()[0] == "COMMA":
                self.next()
                coeffs.append(self.scalar())
            self.expect("RPAREN")
            if self.peek()[0] == "ADJ":
                self.next()
                return MPolyAdj(tuple(coeffs))
            return MPoly(tuple(coeffs))
        if kind == "LPAREN":
            self.next()
            node = self.expr()
            self.expect("RPAREN")
            return node
        if kind == "LBRACK":
            self.next()
            a = self.expr()
            self.expect("COMMA")
            b = self.expr()
            self.expect("RBRACK")
            return Commutator(a, b)
        if kind in ("NUM", "MINUS"):
            c = self.scalar()
            self.expect("STAR")
            return Scale(c, self.factor())
        raise ExprSyntaxError(f"expected a factor, found {kind}", pos)

    def scalar(self) -> complex:
        """complex literal: [-] a [(+|-) b i] | [-] b i"""
        sign = 1.0
        if self.peek()[0] == "MINUS":
            self.next()
            sign = -1.0
        tok = self.expect("NUM")
        val, is_imag = tok[1]
        if is_imag:
            return complex(0.0, sign * val)
        re_part = sign * val
        if self.peek()[0] in ("PLUS", "MINUS"):
            # only a genuine 'a+bi' continuation; otherwise the sign belongs
            # to the surrounding sum
            if self.tokens[self.k + 1][0] == "NUM" and self.tokens[self.k + 1][1][1]:
                s2 = 1.0 if self.next()[0] == "PLUS" else -1.0
                val2, _ = self.expect("NUM")[1]
                return complex(re_part, s2 * val2)
        return complex(re_part, 0.0)


def parse(text: str):
    """Parse an operator expression; raises ExprSyntaxError with position."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    p = _Parser(text)
    node = p.expr()
    tok = p.peek()
    if tok[0] != "END":
        raise ExprSyntaxError(f"trailing input starting with {tok[0]}", tok[2])
    return node


# ---------------------------------------------------------------------------
# canonical printer


def _fmt_float(x: float) -> str:
    return repr(float(x))


def format_complex(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return _fmt_float(c.real)
    if c.real == 0.0:
        return _fmt_float(c.imag) + "i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt_float(c.real)}{sign}{_fmt_float(abs(c.imag))}i"


def to_text(node) -> str:
    """Canonical form; parse(to_text(node)) reproduces the tree."""
    if isinstance(node, (MPoly, MPolyAdj)):
        adj = "^*" if isinstance(node, MPolyAdj) else ""
        if node.coeffs == (0, 1):
            return "Mz" + adj
        return "M(" + ",".join(format_complex(c) for c in node.coeffs) + ")" + adj
    if isinstance(node, Scale):
        return format_complex(node.c) + "*" + _as_factor(node.node)
    if isinstance(node, Product):
        return " ".join(_as_factor(f) for f in node.factors)
    if isinstance(node, Sum):
        if node.terms[0][0] < 0:
            raise ValueError("a sum cannot open with a negative term; scale by -1 instead")
        parts = []
        for i, (sign, term) in enumerate(node.terms):
            text = _as_term(term)
            parts.append(text if i == 0 else ("+ " if sign > 0 else "- ") + text)
        return " ".join(parts)
    if isinstance(node, Commutator):
        return f"[{to_text(node.a)}, {to_text(node.b)}]"
    raise TypeError(f"not an expression node: {node!r}")


def _as_factor(node) -> str:
    if isinstance(node, (Sum, Product)):
        return "(" + to_text(node) + ")"
    text = to_text(node)
    # a leading '-' would read as a sum separator after another factor
    if text.startswith("-"):
        return "(" + text + ")"
    return text


def _as_term(node) -> str:
    if isinstance(node, Sum):
        return "(" + to_text(node) + ")"
    return to_text(node)


# ---------------------------------------------------------------------------
# evaluation


def rotate(node, w: complex):
    """The tree of U^* X U for U = diag(conj(w)^k), |w| = 1: entry (i, j)
    of X gains the factor w^(i - j).  A multiplier whose one nonzero
    coefficient is c_1 (``Mz``, ``M(0,c)``) becomes ``Scale(w, itself)``
    and its adjoint ``Scale(conj(w), itself)``, a coefficient c_m of any
    other multiplier becomes c_m w^m, and a ``Dense`` entry D_ij becomes
    D_ij w^i conj(w)^j.  A ``Scale``, ``Product`` or ``Commutator``
    multiplies its operands' scalars into one ``Scale`` at its top
    ([cX, dY] = cd [X, Y]), and each ``Sum`` term keeps its own.  w = 1
    returns the tree itself."""
    w = complex(w)
    if w == 1:
        return node
    if isinstance(node, (MPoly, MPolyAdj)):
        if [m for m, c in enumerate(node.coeffs) if c != 0] == [1]:
            return Scale(w if isinstance(node, MPoly) else w.conjugate(), node)
        phases = w ** np.arange(len(node.coeffs))
        return type(node)(tuple(complex(c * p) for c, p in zip(node.coeffs, phases)))
    if isinstance(node, Scale):
        return _hoisted(node.c, (rotate(node.node, w),), lambda core: core)
    if isinstance(node, Product):
        return _hoisted(None, [rotate(f, w) for f in node.factors], lambda *fs: Product(fs))
    if isinstance(node, Sum):
        return Sum(tuple((sign, rotate(t, w)) for sign, t in node.terms))
    if isinstance(node, Dense):
        phases = w ** np.arange(node.mat.shape[0])
        return Dense(node.mat * np.multiply.outer(phases, phases.conj()))
    if isinstance(node, Commutator):
        return _hoisted(None, (rotate(node.a, w), rotate(node.b, w)), Commutator)
    raise TypeError(f"not an expression node: {node!r}")


def _hoisted(c, parts, build):
    """``build(*cores)`` for the parts with their top scalars taken off,
    scaled by c (None for 1) times those scalars in order; unscaled when
    there are none."""
    cores = []
    for part in parts:
        if isinstance(part, Scale):
            c = part.c if c is None else c * part.c
            part = part.node
        cores.append(part)
    node = build(*cores)
    return node if c is None else Scale(c, node)


def materialize(node, a: np.ndarray, n: int) -> np.ndarray:
    """Dense N x N truncation of the expression over weights a: the
    expression applied to the N x N identity."""
    a = np.asarray(a, dtype=float)
    if len(a) < n - 1:
        raise ValueError(f"need at least {n - 1} weights for truncation {n}")
    return apply(node, a, np.eye(n, dtype=complex))


def _shift_series(coeffs, adjointed: bool, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j c_j S^j v for the weighted shift S, or, adjointed, the sum of
    conj(c_j) (S^*)^j v; S acts along axis 0.  Real when v and every c_j
    are real, else complex.

    S^(j+1) v is formed before c_j S^j v, so the power is scaled in place;
    the powers alternate between two buffers (a fresh one replaces a
    buffer that became the sum), and v itself is only read."""
    n = v.shape[0]
    w = a[: n - 1].reshape((-1,) + (1,) * (v.ndim - 1))
    if adjointed:
        src, dst, edge = slice(1, None), slice(None, -1), slice(-1, None)
        coeffs = [c.conjugate() for c in coeffs]
    else:
        src, dst, edge = slice(None, -1), slice(1, None), slice(None, 1)
    dtype = complex
    if v.dtype == float and not any(c.imag for c in coeffs):
        dtype = float
        coeffs = [c.real for c in coeffs]
    last = max((j for j, c in enumerate(coeffs) if c != 0), default=-1)
    if last < 0:
        return np.zeros(v.shape, dtype=dtype)
    out = None
    power, spare = v, None
    for j in range(last + 1):
        nxt = None
        if j < last:
            nxt = np.empty(v.shape, dtype=dtype) if spare is None else spare
            nxt[edge] = 0
            np.multiply(w, power[src], out=nxt[dst])
        spare = None
        if coeffs[j] != 0:
            # the first term becomes the accumulator; a real power times 1
            # is itself, bit for bit
            if power is v:
                term = np.multiply(coeffs[j], v, dtype=dtype)
            elif coeffs[j] == 1 and dtype is float:
                term = power
            else:
                term = np.multiply(coeffs[j], power, out=power)
            if out is None:
                out = term
            else:
                out += term
        if power is not v and power is not out:
            spare = power
        power = nxt
    return out


def _into(ufunc, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ufunc(x, y) in whichever of the two fresh arrays holds its type."""
    return ufunc(x, y, out=x if x.dtype == np.result_type(x, y) else y)


def apply(node, a: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Expression applied along axis 0 of a coefficient vector or of an
    (N x P) block of them, truncation semantics.

    Equals the dense N x N truncation times ``vec`` without building the
    matrix; cost is O(N * P * bandwidth) per shift factor.  The result is
    a fresh array, real only when ``vec`` is real and so is every
    coefficient and scalar it meets, and ``vec`` is read as it is (the
    buffer rule above).
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(vec)
    if v.dtype != float:
        v = v.astype(complex, copy=False)
    if isinstance(node, (MPoly, MPolyAdj)):
        return _shift_series(node.coeffs, isinstance(node, MPolyAdj), a, v)
    if isinstance(node, Scale):
        out = apply(node.node, a, v)
        c = node.c
        if out.dtype == float:
            if c.imag:
                return np.multiply(c, out)
            c = c.real
        return np.multiply(c, out, out=out)
    if isinstance(node, Product):
        out = v
        for f in reversed(node.factors):
            out = apply(f, a, out)
        return out if out is not v else v.copy()
    if isinstance(node, Sum):
        out = np.zeros(v.shape, dtype=v.dtype)
        for sign, term in node.terms:
            t = apply(term, a, v)
            out = _into(np.add, out, np.multiply(sign, t, out=t))
        return out
    if isinstance(node, Dense):
        out = np.zeros(v.shape, dtype=np.result_type(node.mat, v))
        k = min(v.shape[0], node.mat.shape[0])
        out[:k] = node.mat[:k, :k] @ v[:k]
        return out
    if isinstance(node, Commutator):
        return _into(np.subtract, apply(node.a, a, apply(node.b, a, v)), apply(node.b, a, apply(node.a, a, v)))
    raise TypeError(f"not an expression node: {node!r}")


def inner(v: np.ndarray, w: np.ndarray) -> complex:
    """sum_i conj(v_i) w_i, the value of ``np.vdot(v, w)``, in one fixed
    order: w is multiplied in place by v, or for a complex v conjugated
    and multiplied by v with the sum conjugated back (the caller gives up
    w, as it may an ``apply`` result), and ``np.sum`` adds the products
    by numpy's pairwise summation on one thread, so the bits do not depend
    on how many threads the BLAS library runs.

    Error bound (Higham, ch. 3 and 4; u = 2^-53, gamma_k = k u/(1 - k u)):
    each complex product is within sqrt(2) gamma_2 <= gamma_3 of its exact
    value, and the pairwise sum of n entries passes each through at most
    L = ceil(log2 n) + 20 additions (blocks of at most 64 entries summed by
    four accumulators and a three-add remainder), so
    |inner - exact| <= gamma_(L+3) sum_i |v_i| |w_i|."""
    if v.dtype == float:
        w *= v
        return complex(np.sum(w))
    np.conjugate(w, out=w)
    w *= v
    return complex(np.sum(w)).conjugate()


def quadratic(node, a: np.ndarray, v: np.ndarray) -> complex:
    """<X v, v> = sum_i v_i (X v)_i for a real vector v: the value of
    ``inner(v, apply(node, a, v))``, passed through the tree's linear root.

    A ``Sum`` adds its terms' values in order and a ``Scale`` multiplies
    its core's value by its scalar.  A multiplier leaf is sum_j c_j d_j
    (conj(c_j) for an adjoint) over the real dots d_j = <S^j v, v> =
    <(S^*)^j v, v>, each the pairwise ``np.sum`` of v S^j v, the powers
    formed in real arithmetic.  Any other node is ``inner`` of its
    ``apply``.

    Error bound (u and L as in ``inner``): let |X| be the tree with every
    scalar, coefficient and ``Dense`` entry replaced by its modulus, every
    sign by +1 and every [A, B] by AB + BA, and let its rounding depth K
    be 2m + 3 for a multiplier of degree m, k + 3 for a k x k ``Dense``
    leaf, 3 more than its core for a ``Scale``, the sum over a product's
    factors, 1 more than the sum over a commutator's sides, and T more
    than the largest over a ``Sum`` of T terms.  Then ``quadratic`` and
    ``inner(v, apply(node, a, v))`` are each within
    gamma_(K+L+3) <|X| |v|, |v|> of <X v, v>."""
    if isinstance(node, Sum):
        return sum(sign * quadratic(t, a, v) for sign, t in node.terms)
    if isinstance(node, Scale):
        return node.c * quadratic(node.node, a, v)
    if isinstance(node, (MPoly, MPolyAdj)) and v.dtype == float:
        coeffs = node.coeffs
        if isinstance(node, MPolyAdj):
            coeffs = [c.conjugate() for c in coeffs]
        return complex(_power_dots(coeffs, np.asarray(a, dtype=float), v))
    return inner(v, apply(node, a, v))


def _power_dots(coeffs, a: np.ndarray, v: np.ndarray):
    """sum_j c_j <S^j v, v> for a real v: each power is formed before the
    last one is multiplied by v in place, in two alternating buffers."""
    w = a[: v.shape[0] - 1]
    last = max((j for j, c in enumerate(coeffs) if c != 0), default=-1)
    total = 0.0
    power, spare = v, None
    for j in range(last + 1):
        nxt = None
        if j < last:
            nxt = np.empty(v.shape) if spare is None else spare
            nxt[0] = 0.0
            np.multiply(w, power[:-1], out=nxt[1:])
        if coeffs[j] != 0:
            prod = v * v if power is v else np.multiply(v, power, out=power)
            total += coeffs[j] * float(np.sum(prod))
        spare = None if power is v else power
        power = nxt
    return total


def raise_degree(node) -> int:
    """Upper bound on how far the expression can push coefficients up."""
    if isinstance(node, MPolyAdj):
        return 0
    if isinstance(node, MPoly):
        return max(len(node.coeffs) - 1, 0)
    if isinstance(node, Scale):
        return raise_degree(node.node)
    if isinstance(node, Product):
        return sum(raise_degree(f) for f in node.factors)
    if isinstance(node, Sum):
        return max(raise_degree(t) for _, t in node.terms)
    if isinstance(node, Dense):
        return node.mat.shape[0]
    if isinstance(node, Commutator):
        return raise_degree(node.a) + raise_degree(node.b)
    raise TypeError(f"not an expression node: {node!r}")


def norm_bound(node) -> float:
    """Coarse upper bound on the operator norm over contractive weights
    (every a_k at most 1)."""
    if isinstance(node, (MPoly, MPolyAdj)):
        return float(sum(abs(c) for c in node.coeffs))
    if isinstance(node, Scale):
        return abs(node.c) * norm_bound(node.node)
    if isinstance(node, Product):
        out = 1.0
        for f in node.factors:
            out *= norm_bound(f)
        return out
    if isinstance(node, Sum):
        return float(sum(norm_bound(t) for _, t in node.terms))
    if isinstance(node, Dense):
        return float(np.linalg.norm(node.mat))
    if isinstance(node, Commutator):
        return 2.0 * norm_bound(node.a) * norm_bound(node.b)
    raise TypeError(f"not an expression node: {node!r}")
