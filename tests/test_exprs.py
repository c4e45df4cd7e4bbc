"""Operator-expression grammar: parsing, printing, evaluation."""

import numpy as np
import pytest

from berezin_lab.exprs import (
    Commutator,
    Dense,
    ExprSyntaxError,
    MPoly,
    MPolyAdj,
    Mz,
    MzAdj,
    Product,
    Scale,
    Sum,
    apply,
    format_complex,
    materialize,
    norm_bound,
    parse,
    raise_degree,
    to_text,
)

rng = np.random.default_rng(7340)


# ---------------------------------------------------------------------------
# parsing


def test_parse_atoms():
    assert parse("Mz") == Mz()
    assert parse("Mz^*") == MzAdj()
    assert parse("M(0,1)") == MPoly((0j, 1 + 0j))
    assert parse("M(0,1)^*") == MPolyAdj((0j, 1 + 0j))


def test_parse_commutator_of_adjoints():
    node = parse("[M(0,1)^*, M(0,1)]")
    assert node == Commutator(MPolyAdj((0j, 1 + 0j)), MPoly((0j, 1 + 0j)))


def test_parse_sum_of_product_and_scale():
    # oracle: hand parse per grammar
    node = parse("Mz Mz^* + 2*Mz")
    assert node == Sum(((1, Product((Mz(), MzAdj()))), (1, Scale(2 + 0j, Mz()))))


def test_parse_complex_literals():
    assert parse("2*Mz") == Scale(2 + 0j, Mz())
    assert parse("2.5i*Mz") == Scale(2.5j, Mz())
    assert parse("i*Mz") == Scale(1j, Mz())
    assert parse("1+2i*Mz") == Scale(1 + 2j, Mz())
    assert parse("1-2i*Mz") == Scale(1 - 2j, Mz())
    assert parse("-3*Mz") == Scale(-3 + 0j, Mz())
    assert parse("M(1+1i, -0.5)") == MPoly((1 + 1j, -0.5 + 0j))


def test_whitespace_insignificant():
    assert parse(" [ Mz , Mz^* ] ") == parse("[Mz,Mz^*]")
    assert parse("MzMz^*") == parse("Mz Mz^*")


def test_parse_nested():
    node = parse("(Mz + Mz^*) (Mz - Mz^*)")
    assert isinstance(node, Product)
    assert all(isinstance(f, Sum) for f in node.factors)


def test_syntax_errors_carry_positions():
    for text, pos in [("Mz +", 4), ("[Mz, Mz", 7), ("M(1", 3), ("Mz )", 3), ("@", 0)]:
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.pos == pos
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("2+3*Mz")  # scalar literal needs an imaginary part after the sign


# ---------------------------------------------------------------------------
# round trip


def _random_scalar(r):
    kind = r.integers(0, 3)
    re_part = float(np.round(r.uniform(-4, 4), 3))
    im_part = float(np.round(r.uniform(-4, 4), 3))
    if kind == 0:
        return complex(re_part, 0.0)
    if kind == 1:
        return complex(0.0, im_part if im_part != 0 else 1.0)
    return complex(re_part, im_part if im_part != 0 else 1.0)


def random_ast(r, depth):
    choices = ["Mz", "MzAdj", "MPoly", "MPolyAdj"]
    if depth > 0:
        choices += ["Scale", "Product", "Sum", "Commutator"]
    kind = choices[r.integers(0, len(choices))]
    if kind == "Mz":
        return Mz()
    if kind == "MzAdj":
        return MzAdj()
    if kind in ("MPoly", "MPolyAdj"):
        coeffs = tuple(_random_scalar(r) for _ in range(r.integers(1, 4)))
        return MPoly(coeffs) if kind == "MPoly" else MPolyAdj(coeffs)
    if kind == "Scale":
        return Scale(_random_scalar(r), random_ast(r, depth - 1))
    if kind == "Product":
        return Product(tuple(random_ast(r, depth - 1) for _ in range(r.integers(2, 4))))
    if kind == "Sum":
        k = int(r.integers(2, 4))
        signs = [1] + [int(s) for s in r.choice([-1, 1], size=k - 1)]
        return Sum(tuple((s, random_ast(r, depth - 1)) for s in signs))
    return Commutator(random_ast(r, depth - 1), random_ast(r, depth - 1))


def test_roundtrip_random_asts():
    r = np.random.default_rng(1234)
    for _ in range(1000):
        node = random_ast(r, depth=int(r.integers(0, 6)))
        assert parse(to_text(node)) == node


def test_format_complex_forms():
    assert format_complex(2.0) == "2.0"
    assert format_complex(3j) == "3.0i"
    assert format_complex(1 - 2j) == "1.0-2.0i"
    assert format_complex(-1.5 + 0.25j) == "-1.5+0.25i"


# ---------------------------------------------------------------------------
# evaluation


def test_materialize_shift():
    a = np.array([0.5, 0.8])
    m = materialize(parse("Mz"), a, 3)
    want = np.zeros((3, 3))
    want[1, 0], want[2, 1] = 0.5, 0.8
    assert np.array_equal(m, want)
    assert np.array_equal(materialize(parse("Mz^*"), a, 3), want.T)


def test_materialize_polynomial_band():
    a = np.array([0.5, 0.8, 0.9])
    m = materialize(parse("M(1,2,3)"), a, 4)
    assert m[0, 0] == 1 and m[1, 0] == 2 * 0.5
    assert m[2, 0] == pytest.approx(3 * 0.5 * 0.8, rel=1e-15)
    assert m[3, 1] == pytest.approx(3 * 0.8 * 0.9, rel=1e-15)
    assert m[0, 1] == 0


def test_apply_matches_materialize():
    r = np.random.default_rng(99)
    a = r.uniform(0.3, 1.0, 64)
    for _ in range(60):
        node = random_ast(r, depth=int(r.integers(0, 4)))
        v = r.standard_normal(64) + 1j * r.standard_normal(64)
        direct = materialize(node, a, 64) @ v
        free = apply(node, a, v)
        scale = max(1.0, np.linalg.norm(direct))
        assert np.linalg.norm(direct - free) <= 1e-12 * scale
    # a dense leaf compresses to its leading block, smaller or larger than N
    for size in (40, 80):
        mat = r.standard_normal((size, size)) + 1j * r.standard_normal((size, size))
        node = Product((Mz(), Dense(mat), MzAdj()))
        v = r.standard_normal(64) + 1j * r.standard_normal(64)
        direct = materialize(node, a, 64) @ v
        assert np.linalg.norm(direct - apply(node, a, v)) <= 1e-12 * np.linalg.norm(direct)


def test_raise_degree():
    assert raise_degree(parse("Mz")) == 1
    assert raise_degree(parse("Mz^*")) == 0
    assert raise_degree(parse("M(1,0,0,5)")) == 3
    assert raise_degree(parse("Mz Mz Mz")) == 3
    assert raise_degree(parse("[Mz, Mz^*]")) == 1
    assert raise_degree(parse("Mz + M(1,2,3)")) == 2
    assert raise_degree(Dense(np.eye(5))) == 5


def test_norm_bound_dominates():
    r = np.random.default_rng(5)
    a = np.full(48, 1.0)
    for _ in range(40):
        node = random_ast(r, depth=2)
        m = materialize(node, a, 48)
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        assert sigma <= norm_bound(node, 1.0) + 1e-9
