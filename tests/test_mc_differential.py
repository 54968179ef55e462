"""Differential tests of mc_mul against the schoolbook oracle naive_mul.

Operands are drawn at p in {3, 5, 7, 13}: dense rational matrices with
non-integer denominators, skew-sparse ones (a few layers with rational
coefficients), rank-one and zero matrices, and the telescoping pair
(1 - x) * (1 + x + ... + x^k), whose product has two terms (none at
k = p-2).  Besides the product, the report must match the path taken,
with no fallback: the scan's Berlekamp-Massey length final_T never exceeds
the product's true sparsity t; an accepted sparse candidate is the product
polynomial, so t_used = t, with at most (p-2)//2 terms, from at most p-2
rows and one check; else the product is assembled from all p-1 rows,
t_used = p-1.  nu is 2^-40, so a wrong candidate surviving verification
would be a bug, not bad luck.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewmm import (RatMatrix, SkewPoly, mat_to_skew, mc_mul, naive_mul,
                    shared_ctx, skew_to_mat)
from skewmm.rational import Rat

PRIMES = (3, 5, 7, 13)
NU = Fraction(1, 2 ** 40)

rationals = st.builds(Rat, st.integers(-9, 9),
                      st.one_of(st.integers(1, 12), st.sampled_from([2 ** 61 - 1, 3 ** 40])))


@st.composite
def operands(draw, p):
    n = p - 1
    kind = draw(st.sampled_from(["dense", "sparse", "rank-one", "zero"]))
    if kind == "zero":
        return RatMatrix.zeros(p)
    if kind == "dense":
        return RatMatrix(p, [draw(st.lists(rationals, min_size=n, max_size=n))
                             for _ in range(n)])
    if kind == "rank-one":
        u = draw(st.lists(rationals, min_size=n, max_size=n))
        v = draw(st.lists(rationals, min_size=n, max_size=n))
        return RatMatrix(p, [[a * b for b in v] for a in u])
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


@settings(deadline=None, max_examples=60)
@given(operand_pairs(), st.integers(0, 2 ** 64 - 1))
def test_mc_matches_naive(pair, seed):
    A, B = pair
    want = naive_mul(A, B)
    product, report = mc_mul(A, B, NU, seed)
    assert product == want
    assert not report.fallback
    t = mat_to_skew(want).sparsity
    n = A.p - 1
    assert report.final_T <= t
    # a candidate is accepted from fewer than p-1 rows; the assembled
    # product costs all p-1
    accepted = report.rational_mul_count < 2 * n ** 3
    if accepted:
        assert (report.t_used, report.iterations) == (t, 1)
        assert t <= (A.p - 2) // 2
    else:
        assert report.t_used == n
        assert report.rational_mul_count == 2 * n ** 3
