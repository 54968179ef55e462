"""Differential tests of det_mul against the schoolbook oracle naive_mul.

Operands are drawn at p in {3, 5, 7, 13}: dense rational matrices with
non-integer denominators, skew-sparse ones (a few layers with rational
coefficients), rank-deficient ones (rank one, or rows repeated from fewer
than p-1 distinct rows), zero matrices, and the telescoping pair
(1 - x) * (1 + x + ... + x^k), whose product has two terms, or none at
k = p-2.  Besides the product, det_mul must report the size of the
exponent sumset of the two pullbacks as t_used on the direct route, and
p-1 on the rows stage.  At p = 13, 31 and 61 both routes, forced past the
cost model, must agree with naive_mul and the Fraction product on
products at the 64-bit slot edge.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_route, fraction_product
from skewmm import (RatMatrix, SkewPoly, det_mul, mat_to_skew, naive_mul,
                    shared_ctx, skew_to_mat, sumset)
from skewmm.multiply import RationalProduct
from skewmm.rational import Rat
from skewmm.skewstructure import random_layered

PRIMES = (3, 5, 7, 13)

rationals = st.builds(Rat, st.integers(-9, 9),
                      st.one_of(st.integers(1, 12), st.sampled_from([2 ** 61 - 1, 3 ** 40])))


@st.composite
def operands(draw, p):
    n = p - 1
    kind = draw(st.sampled_from(["dense", "sparse", "rank-one", "repeated-rows", "zero"]))
    if kind == "zero":
        return RatMatrix.zeros(p)
    if kind == "dense":
        return RatMatrix(p, [draw(st.lists(rationals, min_size=n, max_size=n))
                             for _ in range(n)])
    if kind == "rank-one":
        u = draw(st.lists(rationals, min_size=n, max_size=n))
        v = draw(st.lists(rationals, min_size=n, max_size=n))
        return RatMatrix(p, [[a * b for b in v] for a in u])
    if kind == "repeated-rows":
        rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n),
                             min_size=1, max_size=n - 1))
        return RatMatrix(p, [rows[draw(st.integers(0, len(rows) - 1))] for _ in range(n)])
    ctx = shared_ctx(p)
    layers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(3, n)))
    return skew_to_mat(SkewPoly(ctx, {e: ctx.elem(draw(st.lists(rationals, min_size=n,
                                                                    max_size=n)))
                                      for e in layers}))


@st.composite
def operand_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        ctx = shared_ctx(p)
        k = draw(st.integers(1, p - 2))
        return (skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: -ctx.one})),
                skew_to_mat(SkewPoly(ctx, {e: ctx.one for e in range(k + 1)})))
    return draw(operands(p)), draw(operands(p))


@settings(deadline=None, max_examples=80)
@given(operand_pairs())
def test_det_matches_naive(pair):
    A, B = pair
    product, report = det_mul(A, B)
    assert product == naive_mul(A, B)
    t = len(sumset(mat_to_skew(A), mat_to_skew(B)))
    # a zero factor (t = 0) is zero up front, on the direct stage; a pair
    # on the rows stage is formed under p-1
    assert report.t_used == (A.p - 1 if report.product == "rows" else t)


def test_telescoping_pair_with_zero_product():
    # (1 - x)(1 + x + ... + x^(p-2)) = 1 - x^(p-1) = 0 in the quotient ring,
    # though the sumset covers every exponent
    for p in PRIMES:
        ctx = shared_ctx(p)
        A = skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: -ctx.one}))
        B = skew_to_mat(SkewPoly(ctx, {e: ctx.one for e in range(p - 1)}))
        product, report = det_mul(A, B)
        assert product == RatMatrix.zeros(p) == naive_mul(A, B)
        assert report.t_used == p - 1


def edge_pair(p, bits):
    """bench's shape, one term times layers 0 and 1, with the second factor
    scaled by the least c that makes the int product need `bits`-bit slots
    (multiply._product_bits: the bits of n max|x| max|y|, and a sign bit)."""
    ctx = shared_ctx(p)
    A, B = random_layered(ctx, [0], p), random_layered(ctx, [0, 1], p + 1)
    k = (p - 1) * max(map(abs, itertools.chain(*A.nums))) * max(map(abs, itertools.chain(*B.nums)))
    c = -(-2 ** (bits - 2) // k)
    return A, B.scale(c)


@pytest.fixture(scope="module")
def edge_products():
    """The Fraction triple loop's product of each edge pair, computed once."""
    return {}


@pytest.mark.parametrize("route", ("direct", "rows"))
@pytest.mark.parametrize("bits", (63, 64, 65))
@pytest.mark.parametrize("p", (13, 31, 61))
def test_det_matches_naive_across_the_64_bit_slot_edge(p, bits, route, edge_products,
                                                       monkeypatch):
    # both routes forced past the cost model, on products that just fit a
    # 64-bit slot (63 and 64 bits, packed rows) and just miss it (65 bits,
    # cubic_multiply's loop): det, naive and the Fraction product agree
    A, B = edge_pair(p, bits)
    assert RationalProduct(A.nums, A.dens, B.nums, B.dens).bits == bits
    if (p, bits) not in edge_products:
        edge_products[p, bits] = RatMatrix(p, fraction_product(A.rows, B.rows))
    force_route(monkeypatch, route)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert (report.product, report.t_used) == (route, 2 if route == "direct" else p - 1)
    assert product == naive_mul(A, B) == edge_products[p, bits]
