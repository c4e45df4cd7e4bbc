"""Operator expressions over a weighted shift: parser, printer, evaluation.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor+                       juxtaposition is composition
    factor := 'Mz' | 'Mz^*'
            | 'M(' coeffs ')' | 'M(' coeffs ')^*'
            | '[' expr ',' expr ']'         commutator
            | '(' expr ')'
            | complex '*' factor            scalar multiple
    coeffs := complex (',' complex)*        Taylor coefficients c0, c1, ...

Complex literals use the form ``a+bi`` (also ``a``, ``bi``, ``i``); a
leading '-' is accepted where a factor starts.  ``Mz`` is coordinate
multiplication, i.e. the weighted shift e_k -> a_k e_{k+1} of whichever
space or weight sequence the expression is evaluated against, and
``M(c0,c1,...)`` multiplies by the polynomial/series with those
coefficients.

A ``Dense`` leaf carries an explicit M x M matrix into a tree (it has no
text form); it acts by compression on the leading M coordinates.

Expressions evaluate two ways: ``materialize`` builds the dense N x N
truncation (compression semantics: coordinates at index >= N are
dropped), and ``apply`` acts on a coefficient vector without forming any
matrix, which is what makes sampling near the boundary circle feasible.
``band_matrix`` is the one builder of banded multiplier matrices.
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
class Mz:
    pass


@dataclass(frozen=True)
class MzAdj:
    pass


@dataclass(frozen=True)
class MPoly:
    coeffs: tuple


@dataclass(frozen=True)
class MPolyAdj:
    coeffs: tuple


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
    if isinstance(node, Mz):
        return "Mz"
    if isinstance(node, MzAdj):
        return "Mz^*"
    if isinstance(node, MPoly):
        return "M(" + ",".join(format_complex(c) for c in node.coeffs) + ")"
    if isinstance(node, MPolyAdj):
        return "M(" + ",".join(format_complex(c) for c in node.coeffs) + ")^*"
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


def band_matrix(coeffs, a: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Multiplication by sum_j c_j z^j over weights a, on rows 0..n_rows-1
    and columns 0..n_cols-1: entry (i+j, i) is c_j a_i a_{i+1} ... a_{i+j-1}.

    Band j's weight products are band j-1's times one more weight, so each
    product is formed left to right at O(1) cost per entry.
    """
    a = np.asarray(a, dtype=float)
    m = np.zeros((n_rows, n_cols), dtype=complex)
    prods = np.ones(n_cols)
    for j, c in enumerate(coeffs):
        length = min(n_cols, n_rows - j)
        if length <= 0:
            break
        if j > 0:
            prods = prods[:length] * a[j - 1 : j - 1 + length]
        if c != 0:
            idx = np.arange(length)
            m[idx + j, idx] += c * prods
    return m


def materialize(node, a: np.ndarray, n: int) -> np.ndarray:
    """Dense N x N truncation of the expression over weights a."""
    a = np.asarray(a, dtype=float)
    if len(a) < n - 1:
        raise ValueError(f"need at least {n - 1} weights for truncation {n}")
    if isinstance(node, Mz):
        return band_matrix((0.0, 1.0), a, n, n)
    if isinstance(node, MzAdj):
        return materialize(Mz(), a, n).conj().T
    if isinstance(node, MPoly):
        return band_matrix(node.coeffs, a, n, n)
    if isinstance(node, MPolyAdj):
        return materialize(MPoly(node.coeffs), a, n).conj().T
    if isinstance(node, Scale):
        return node.c * materialize(node.node, a, n)
    if isinstance(node, Product):
        out = materialize(node.factors[0], a, n)
        for f in node.factors[1:]:
            out = out @ materialize(f, a, n)
        return out
    if isinstance(node, Sum):
        out = np.zeros((n, n), dtype=complex)
        for sign, term in node.terms:
            out += sign * materialize(term, a, n)
        return out
    if isinstance(node, Dense):
        m = np.zeros((n, n), dtype=complex)
        k = min(n, node.mat.shape[0])
        m[:k, :k] = node.mat[:k, :k]
        return m
    if isinstance(node, Commutator):
        ma = materialize(node.a, a, n)
        mb = materialize(node.b, a, n)
        return ma @ mb - mb @ ma
    raise TypeError(f"not an expression node: {node!r}")


def apply(node, a: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Expression applied to a coefficient vector, truncation semantics.

    Matches ``materialize(node, a, len(vec)) @ vec`` without building the
    matrix; cost is O(len(vec) * bandwidth) per shift factor.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(vec, dtype=complex)
    n = len(v)
    if isinstance(node, Mz):
        out = np.zeros(n, dtype=complex)
        out[1:] = a[: n - 1] * v[:-1]
        return out
    if isinstance(node, MzAdj):
        out = np.zeros(n, dtype=complex)
        out[:-1] = a[: n - 1] * v[1:]
        return out
    if isinstance(node, MPoly):
        out = np.zeros(n, dtype=complex)
        shifted = v
        for j, c in enumerate(node.coeffs):
            if j > 0:
                nxt = np.zeros(n, dtype=complex)
                nxt[1:] = a[: n - 1] * shifted[:-1]
                shifted = nxt
            if c != 0:
                out += c * shifted
        return out
    if isinstance(node, MPolyAdj):
        out = np.zeros(n, dtype=complex)
        shifted = v
        for j, c in enumerate(node.coeffs):
            if j > 0:
                nxt = np.zeros(n, dtype=complex)
                nxt[:-1] = a[: n - 1] * shifted[1:]
                shifted = nxt
            if c != 0:
                out += np.conj(c) * shifted
        return out
    if isinstance(node, Scale):
        return node.c * apply(node.node, a, v)
    if isinstance(node, Product):
        out = v
        for f in reversed(node.factors):
            out = apply(f, a, out)
        return out
    if isinstance(node, Sum):
        out = np.zeros(n, dtype=complex)
        for sign, term in node.terms:
            out += sign * apply(term, a, v)
        return out
    if isinstance(node, Dense):
        out = np.zeros(n, dtype=complex)
        k = min(n, node.mat.shape[0])
        out[:k] = node.mat[:k, :k] @ v[:k]
        return out
    if isinstance(node, Commutator):
        return apply(node.a, a, apply(node.b, a, v)) - apply(
            node.b, a, apply(node.a, a, v)
        )
    raise TypeError(f"not an expression node: {node!r}")


def raise_degree(node) -> int:
    """Upper bound on how far the expression can push coefficients up."""
    if isinstance(node, Mz):
        return 1
    if isinstance(node, (MzAdj, MPolyAdj)):
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


def norm_bound(node, a_max: float = 1.0) -> float:
    """Coarse upper bound on the operator norm over weights with max a_max."""
    g = max(1.0, float(a_max))
    if isinstance(node, (Mz, MzAdj)):
        return float(a_max)
    if isinstance(node, (MPoly, MPolyAdj)):
        return float(sum(abs(c) * g ** j for j, c in enumerate(node.coeffs)))
    if isinstance(node, Scale):
        return abs(node.c) * norm_bound(node.node, a_max)
    if isinstance(node, Product):
        out = 1.0
        for f in node.factors:
            out *= norm_bound(f, a_max)
        return out
    if isinstance(node, Sum):
        return float(sum(norm_bound(t, a_max) for _, t in node.terms))
    if isinstance(node, Dense):
        return float(np.linalg.norm(node.mat))
    if isinstance(node, Commutator):
        return 2.0 * norm_bound(node.a, a_max) * norm_bound(node.b, a_max)
    raise TypeError(f"not an expression node: {node!r}")
