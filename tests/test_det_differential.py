"""Differential tests of det_mul against the schoolbook oracle naive_mul.

Operands are drawn at p in {3, 5, 7, 13}: dense rational matrices with
non-integer denominators, skew-sparse ones (a few layers with rational
coefficients), rank-deficient ones (rank one, or rows repeated from fewer
than p-1 distinct rows), zero matrices, and the telescoping pair
(1 - x) * (1 + x + ... + x^k), whose product has two terms, or none at
k = p-2.  Besides the product, det_mul must report the size of the
exponent sumset of the two pullbacks as t_used on the direct stage, and
p-1 on the rows stage.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from skewmm import (RatMatrix, SkewPoly, det_mul, mat_to_skew, naive_mul,
                    shared_ctx, skew_to_mat, sumset)
from skewmm.rational import Rat

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
