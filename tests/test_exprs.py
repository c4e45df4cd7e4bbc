"""Operator-expression grammar: parsing, printing, evaluation."""

import math
from fractions import Fraction

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
    inner,
    materialize,
    norm_bound,
    parse,
    quadratic,
    raise_degree,
    rotate,
    to_text,
)
from oracles import band_by_entries, reference_apply

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


def dense_reference(node, a, n):
    """The N x N truncation built recursively from entry-by-entry leaves
    (``oracles.band_by_entries``) and matrix products, independent of
    ``apply``."""
    if isinstance(node, MPoly):
        return band_by_entries(node.coeffs, a, n, n)
    if isinstance(node, MPolyAdj):
        return dense_reference(MPoly(node.coeffs), a, n).conj().T
    if isinstance(node, Scale):
        return node.c * dense_reference(node.node, a, n)
    if isinstance(node, Product):
        out = dense_reference(node.factors[0], a, n)
        for f in node.factors[1:]:
            out = out @ dense_reference(f, a, n)
        return out
    if isinstance(node, Sum):
        out = np.zeros((n, n), dtype=complex)
        for sign, term in node.terms:
            out += sign * dense_reference(term, a, n)
        return out
    if isinstance(node, Dense):
        m = np.zeros((n, n), dtype=complex)
        k = min(n, node.mat.shape[0])
        m[:k, :k] = node.mat[:k, :k]
        return m
    if isinstance(node, Commutator):
        ma = dense_reference(node.a, a, n)
        mb = dense_reference(node.b, a, n)
        return ma @ mb - mb @ ma
    raise TypeError(f"not an expression node: {node!r}")


def test_apply_matches_materialize():
    r = np.random.default_rng(99)
    # (N x 3) blocks come from their own generator, so the vectors above
    # them are the ones this test has always drawn
    rb = np.random.default_rng(2718)
    a = r.uniform(0.3, 1.0, 64)
    for _ in range(60):
        node = random_ast(r, depth=int(r.integers(0, 4)))
        v = r.standard_normal(64) + 1j * r.standard_normal(64)
        ref = dense_reference(node, a, 64)
        direct = ref @ v
        free = apply(node, a, v)
        scale = max(1.0, np.linalg.norm(direct))
        assert np.linalg.norm(direct - free) <= 1e-12 * scale
        assert np.linalg.norm(materialize(node, a, 64) - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))
        # a block gives exactly its columns' vector results: the shift
        # leaves act elementwise along axis 0, so no sum is reordered
        block = rb.standard_normal((64, 3)) + 1j * rb.standard_normal((64, 3))
        cols = np.column_stack([apply(node, a, block[:, p]) for p in range(3)])
        assert np.array_equal(apply(node, a, block), cols)
    # a dense leaf compresses to its leading block, smaller or larger than N
    for size in (40, 80):
        mat = r.standard_normal((size, size)) + 1j * r.standard_normal((size, size))
        node = Product((Mz(), Dense(mat), MzAdj()))
        v = r.standard_normal(64) + 1j * r.standard_normal(64)
        ref = dense_reference(node, a, 64)
        direct = ref @ v
        assert np.linalg.norm(direct - apply(node, a, v)) <= 1e-12 * np.linalg.norm(direct)
        block = rb.standard_normal((64, 3)) + 1j * rb.standard_normal((64, 3))
        direct = ref @ block
        assert np.linalg.norm(direct - apply(node, a, block)) <= 1e-12 * np.linalg.norm(direct)


NODE_KINDS = (MPoly, MPolyAdj, Scale, Product, Sum, Commutator, Dense)


def _trees_of_every_kind(r, per_kind=6):
    """Random trees of ``random_ast``, ``per_kind`` with each node kind at
    the root, plus ``Dense`` leaves inside products."""
    trees = {kind: [] for kind in NODE_KINDS}
    while any(len(trees[k]) < per_kind for k in NODE_KINDS if k is not Dense):
        node = random_ast(r, depth=int(r.integers(0, 4)))
        if len(trees[type(node)]) < per_kind:
            trees[type(node)].append(node)
    for size in (40, 64, 80):
        mat = r.standard_normal((size, size)) + 1j * r.standard_normal((size, size))
        trees[Dense] += [Dense(mat), Product((Mz(), Dense(mat), MzAdj()))]
    return [node for kind in NODE_KINDS for node in trees[kind]]


def _signed_zeros(r, shape):
    """Complex entries with some real or imaginary parts +0 or -0, where
    multiplications by (1+0j) and sums decide the sign of a zero."""
    x = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    zeros = np.array([0.0, -0.0])[r.integers(0, 2, shape)]
    x.real = np.where(r.random(shape) < 0.2, zeros, x.real)
    x.imag = np.where(r.random(shape) < 0.2, zeros[::-1], x.imag)
    return x


def test_apply_leaves_input_and_returns_fresh_array():
    # the buffer rule the in-place arithmetic relies on, for every node
    # kind at the root, on a vector and on an (N x P) block
    r = np.random.default_rng(4242)
    a = r.uniform(0.3, 1.0, 64)
    for node in _trees_of_every_kind(r):
        for shape in ((64,), (64, 3)):
            vec = _signed_zeros(r, shape)
            before = vec.copy()
            out = apply(node, a, vec)
            assert not np.shares_memory(out, vec), node
            assert vec.tobytes() == before.tobytes(), node


def _same_bits_as_complex(out, want):
    """A complex result has every bit of ``want``; a real one has the bits
    of its real part, and its imaginary part is 0."""
    if out.dtype == complex:
        return out.tobytes() == want.tobytes()
    return out.dtype == float and out.tobytes() == want.real.tobytes() and not np.any(want.imag)


def test_apply_bits_match_the_allocating_evaluator():
    # in-place powers, scales, sums and differences keep every bit of the
    # evaluator that allocates a new array per operation, signed zeros too;
    # a real vector that stays real keeps the bits of the real part
    r = np.random.default_rng(977)
    a = r.uniform(0.3, 1.0, 64)
    real_trees = [parse(text) for text in ("Mz^* Mz", "0.5*[Mz^*, Mz] Mz", "2*M(1,-3)^* - Mz + M(0,0,0.25)")]
    for node in _trees_of_every_kind(r) + real_trees:
        for shape in ((64,), (64, 3)):
            vec = _signed_zeros(r, shape)
            assert apply(node, a, vec).tobytes() == reference_apply(node, a, vec).tobytes(), node
            real = vec.real.copy()
            got = apply(node, a, real)
            if got.dtype == float:
                assert _same_bits_as_complex(got, reference_apply(node, a, real)), node


def test_apply_reads_a_real_vector_as_its_complex_cast():
    # a real input is read in place, never copied: the result equals the
    # one for the complex cast, for every node kind, on a vector and a
    # block; where it stays real, the complex cast's imaginary part is 0
    # and its real part has the same bits
    r = np.random.default_rng(1861)
    a = r.uniform(0.3, 1.0, 64)
    for node in _trees_of_every_kind(r):
        for shape in ((64,), (64, 3)):
            vec = r.standard_normal(shape)
            before = vec.copy()
            out = apply(node, a, vec)
            assert not np.shares_memory(out, vec), node
            assert vec.tobytes() == before.tobytes(), node
            cast = apply(node, a, vec.astype(complex))
            if out.dtype == float:
                assert _same_bits_as_complex(out, cast), node
            else:
                assert out.dtype == complex and np.array_equal(out, cast), node


def _real_data(node) -> bool:
    """Every coefficient, scalar and matrix entry of the tree is real."""
    if isinstance(node, (MPoly, MPolyAdj)):
        return not any(complex(c).imag for c in node.coeffs)
    if isinstance(node, Scale):
        return complex(node.c).imag == 0 and _real_data(node.node)
    if isinstance(node, Product):
        return all(map(_real_data, node.factors))
    if isinstance(node, Sum):
        return all(_real_data(t) for _, t in node.terms)
    if isinstance(node, Dense):
        return not np.iscomplexobj(node.mat)
    return _real_data(node.a) and _real_data(node.b)


def test_apply_keeps_real_data_real():
    # a real vector that meets only real coefficients and scalars gives a
    # float64 result; any complex one makes it complex
    r = np.random.default_rng(6021)
    a = r.uniform(0.3, 1.0, 64)
    trees = _trees_of_every_kind(r) + [parse(text) for text in (
        "Mz^* Mz", "[Mz^*, Mz]", "[Mz^*, Mz] Mz", "M(0.5,0,2)", "2*M(1,-3)^* - Mz", "2i*M(0,0,1)", "M(1,1i) Mz^*")]
    trees.append(Dense(r.standard_normal((9, 9))))
    kinds = set()
    for node in trees:
        for shape in ((64,), (64, 3)):
            out = apply(node, a, r.standard_normal(shape))
            assert out.dtype == (float if _real_data(node) else complex), node
            assert apply(node, a, r.standard_normal(shape) + 0j).dtype == complex, node
            kinds.add((out.dtype, type(node)))
    assert {kind for dtype, kind in kinds if dtype == float} >= set(NODE_KINDS), kinds


def test_rotate_is_conjugation_by_the_diagonal_phase():
    # materialize(rotate(X, w)) = U^* materialize(X) U for U = diag(conj(w)^k),
    # entry (i, j) scaled by w^i conj(w)^j, to within ulps of the entries;
    # w = 1 returns the tree itself.  The phase of a shift is a scalar,
    # collected at the top of a product or commutator
    r = np.random.default_rng(3141)
    a = r.uniform(0.3, 1.0, 64)
    for node in _trees_of_every_kind(r):
        assert rotate(node, 1.0) is node
        w = complex(np.exp(2j * np.pi * r.uniform()))
        phases = w ** np.arange(64)
        ref = materialize(node, a, 64)
        want = phases[:, None] * ref * phases.conj()[None, :]
        got = materialize(rotate(node, w), a, 64)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(ref))), node
    assert rotate(Mz(), -1.0) == Scale(-1 + 0j, Mz())
    assert rotate(MzAdj(), 1j) == Scale(-1j, MzAdj())
    assert rotate(MPoly((2.0, 1.0, 3.0)), 1j) == MPoly((2 + 0j, 1j, -3 + 0j))


def test_rotate_hoists_the_phases_of_products_and_commutators():
    # [cX, dY] = cd [X, Y]: each product or commutator carries one scalar,
    # the product of its factors' scalars in order, and each sum term its own
    w = complex(np.exp(0.7j))
    assert rotate(parse("Mz^* Mz"), w) == Scale(w.conjugate() * w, Product((MzAdj(), Mz())))
    assert rotate(parse("[Mz^*, Mz]"), w) == Scale(w.conjugate() * w, Commutator(MzAdj(), Mz()))
    assert rotate(parse("[Mz^*, Mz] Mz"), w) == Scale(w.conjugate() * w * w, Product((Commutator(MzAdj(), Mz()), Mz())))
    assert rotate(parse("2i*(Mz Mz)"), w) == Scale(2j * (w * w), Product((Mz(), Mz())))
    assert rotate(parse("Mz + Mz^*"), w) == Sum(((1, Scale(w, Mz())), (1, Scale(w.conjugate(), MzAdj()))))
    rotated = rotate(parse("M(0.5,0.25i) Mz"), w)
    assert rotated == Scale(w, Product((MPoly((0.5 + 0j, 0.25j * w)), Mz())))


def test_inner_is_vdot_within_its_gamma_bound():
    # sum_i conj(v_i) w_i from numpy's pairwise sum of the in-place
    # products, within gamma_(L+3) sum |v_i| |w_i| (L = ceil(log2 n) + 20)
    # of the exact value; v is left as it was
    r = np.random.default_rng(515)
    u = 2.0**-53
    for n in (1, 7, 64, 65, 129, 1000, 70001):
        v = (r.standard_normal(n) + 1j * r.standard_normal(n)) * np.exp(3 * r.standard_normal(n))
        w = (r.standard_normal(n) + 1j * r.standard_normal(n)) * np.exp(3 * r.standard_normal(n))
        v_before, w_copy = v.copy(), w.copy()
        got = inner(v, w)
        assert v.tobytes() == v_before.tobytes()
        assert abs(got - np.vdot(v, w_copy)) <= 1e-12 * float(np.sum(np.abs(v) * np.abs(w_copy)))
        if n <= 1000:
            exact_re = sum(Fraction(a.real) * Fraction(b.real) + Fraction(a.imag) * Fraction(b.imag)
                           for a, b in zip(v, w_copy))
            exact_im = sum(Fraction(a.real) * Fraction(b.imag) - Fraction(a.imag) * Fraction(b.real)
                           for a, b in zip(v, w_copy))
            k = math.ceil(math.log2(n)) + 23
            gamma = k * u / (1 - k * u)
            err = abs(complex(Fraction(got.real) - exact_re, Fraction(got.imag) - exact_im))
            assert err <= gamma * float(np.sum(np.abs(v) * np.abs(w_copy))), n


def _modulus_tree(node):
    """|X|: every scalar, coefficient and Dense entry by its modulus, every
    sign by +1, every [A, B] by AB + BA."""
    if isinstance(node, (MPoly, MPolyAdj)):
        return type(node)(tuple(complex(abs(c)) for c in node.coeffs))
    if isinstance(node, Scale):
        return Scale(complex(abs(node.c)), _modulus_tree(node.node))
    if isinstance(node, Product):
        return Product(tuple(map(_modulus_tree, node.factors)))
    if isinstance(node, Sum):
        return Sum(tuple((1, _modulus_tree(t)) for _, t in node.terms))
    if isinstance(node, Dense):
        return Dense(np.abs(node.mat))
    x, y = _modulus_tree(node.a), _modulus_tree(node.b)
    return Sum(((1, Product((x, y))), (1, Product((y, x)))))


def _rounding_depth(node) -> int:
    """K of the ``quadratic`` docstring."""
    if isinstance(node, (MPoly, MPolyAdj)):
        return 2 * (len(node.coeffs) - 1) + 3
    if isinstance(node, Scale):
        return 3 + _rounding_depth(node.node)
    if isinstance(node, Product):
        return sum(map(_rounding_depth, node.factors))
    if isinstance(node, Sum):
        return max(_rounding_depth(t) for _, t in node.terms) + len(node.terms)
    if isinstance(node, Dense):
        return node.mat.shape[0] + 3
    return _rounding_depth(node.a) + _rounding_depth(node.b) + 1


def test_quadratic_is_the_inner_product_of_apply_within_its_gamma_bound():
    # <X v, v> through the linear root (sums, scales, real multiplier dots)
    # against inner(v, apply(X, a, v)): each is within
    # gamma_(K+L+3) <|X| |v|, |v|> of the exact value, for every node kind
    # at the root and for the rotated trees, whose top scalars are phases
    r = np.random.default_rng(8128)
    u = 2.0**-53
    for n in (64, 300):
        a = r.uniform(0.3, 1.0, n)
        trees = _trees_of_every_kind(r) + [parse("Mz^* Mz"), parse("[Mz^*, Mz] Mz"), parse("2i*M(0,0,1)")]
        for node in trees + [rotate(t, complex(np.exp(2j * np.pi * r.uniform()))) for t in trees]:
            v = r.standard_normal(n) * np.exp(2 * r.standard_normal(n))
            got = quadratic(node, a, v)
            want = inner(v, apply(node, a, v))
            assert type(got) is complex, node
            k = _rounding_depth(node) + math.ceil(math.log2(n)) + 23
            gamma = k * u / (1 - k * u)
            size = float(np.abs(v) @ materialize(_modulus_tree(node), a, n).real @ np.abs(v))
            assert abs(got - want) <= 2 * gamma * size, node
    # at a multiplier leaf the value sums c_j <S^j v, v> over real dots
    v = r.standard_normal(64)
    a = r.uniform(0.3, 1.0, 64)
    shifted = np.concatenate(([0.0], a[:63] * v[:63]))
    assert quadratic(Mz(), a, v) == complex(float(np.sum(v * shifted)))
    assert quadratic(MzAdj(), a, v) == quadratic(Mz(), a, v)
    d0, d1 = float(np.sum(v * v)), float(np.sum(v * shifted))
    assert quadratic(MPolyAdj((1j, 2 + 1j)), a, v) == 0.0 + (-1j) * d0 + (2 - 1j) * d1


def test_inner_of_a_real_vector_skips_the_conjugation():
    # for a real v the products v_i w_i are summed as they are, real or
    # complex w: the value of np.vdot within the same gamma bound
    r = np.random.default_rng(516)
    u = 2.0**-53
    for n in (1, 64, 1000, 70001):
        v = r.standard_normal(n) * np.exp(3 * r.standard_normal(n))
        for w in (r.standard_normal(n), r.standard_normal(n) + 1j * r.standard_normal(n)):
            w_copy = w.copy()
            got = inner(v, w)
            k = math.ceil(math.log2(n)) + 23
            assert abs(got - np.vdot(v, w_copy)) <= 2 * k * u * float(np.sum(np.abs(v) * np.abs(w_copy))), n
            assert got == complex(np.sum(v * w_copy)), n


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
        assert sigma <= norm_bound(node) + 1e-9
