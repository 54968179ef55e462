"""Differential tests of the integer pullback and pushforward against their
definitions: mat_to_skew against (1/p) * W * b with full field products over
build_W's entries, and skew_to_mat against evaluating the polynomial's map at
each normal-basis element.  Inputs cover zero and single-entry matrices,
zero rows, negative and very large numerators, and large coprime
denominators."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from skewmm import (RatMatrix, SkewPoly, build_W, cyc_add, cyc_mul, cyc_scale,
                    from_normal_coords, mat_to_skew, normal_coords, shared_ctx,
                    skew_to_mat, sp_evaluate)
from skewmm.rational import Rat

PRIMES = (3, 5, 7, 13)
RAT_TYPE = type(Rat(0))

numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2 ** 260), 2 ** 260),
    st.sampled_from([2 ** 200 + 1, -(2 ** 201) - 3]),
)
denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([7, 2 ** 61 - 1, 2 ** 89 - 1, 3 ** 40]),
)
rationals = st.builds(Rat, numerators, denominators)

kernel_settings = settings(deadline=None, max_examples=40)


def assert_canonical(values):
    for x in values:
        assert type(x) is RAT_TYPE
        assert x.denominator > 0
        assert math.gcd(x.numerator, x.denominator) == 1


def pullback_by_definition(C, ctx):
    """(1/p) * W * b, entrywise with field products."""
    p = ctx.p
    n = p - 1
    W = build_W(ctx)
    b = [from_normal_coords(ctx, row) for row in C.rows]
    terms = {}
    for i in range(n):
        acc = ctx.zero
        for k in range(n):
            acc = cyc_add(acc, cyc_mul(W[i][k], b[k]))
        terms[i] = cyc_scale(acc, Rat(1, p))
    return SkewPoly(ctx, terms)


def pushforward_by_definition(f):
    """Row i is the normal-coordinate vector of f's map applied to v_(i+1)."""
    ctx = f.ctx
    return RatMatrix(ctx.p, [normal_coords(sp_evaluate(f, ctx.beta_power(ctx.v_exponent(i))))
                             for i in range(1, ctx.p)])


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    n = p - 1
    shape = draw(st.sampled_from(["dense", "zero-rows", "single", "zero"]))
    rows = [[Rat(0)] * n for _ in range(n)]
    if shape == "single":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            rationals.filter(bool))
    elif shape != "zero":
        zero_rows = (draw(st.sets(st.integers(0, n - 1), max_size=n))
                     if shape == "zero-rows" else set())
        for i in range(n):
            if i not in zero_rows:
                rows[i] = draw(st.lists(rationals, min_size=n, max_size=n))
    return RatMatrix(p, rows)


@st.composite
def polynomials(draw):
    p = draw(st.sampled_from(PRIMES))
    ctx = shared_ctx(p)
    n = p - 1
    exps = draw(st.sets(st.integers(0, n - 1), max_size=n))
    terms = {}
    for e in exps:
        if draw(st.booleans()):  # a single nonzero coordinate
            coords = [Rat(0)] * n
            coords[draw(st.integers(0, n - 1))] = draw(rationals.filter(bool))
        else:
            coords = draw(st.lists(rationals, min_size=n, max_size=n))
        terms[e] = ctx.elem(coords)
    return SkewPoly(ctx, terms)


@kernel_settings
@given(matrices())
def test_pullback_matches_definition(C):
    ctx = shared_ctx(C.p)
    f = mat_to_skew(C, ctx)
    assert f == pullback_by_definition(C, ctx)
    for coeff in f.terms.values():
        assert coeff
        assert_canonical(coeff.coords)


@kernel_settings
@given(polynomials())
def test_pushforward_matches_definition(f):
    M = skew_to_mat(f)
    assert M == pushforward_by_definition(f)
    for row in M.rows:
        assert_canonical(row)


@kernel_settings
@given(matrices())
def test_pullback_then_pushforward_is_identity(C):
    assert skew_to_mat(mat_to_skew(C)) == C


def test_coprime_denominators_share_one_pullback():
    # entries over 2^61 - 1 and 7 side by side, with all other rows zero
    p = 7
    big = 2 ** 61 - 1
    rows = [[Rat(0)] * 6 for _ in range(6)]
    rows[2] = [Rat(1, big), Rat(-3, 7), Rat(0), Rat(2 ** 210, 7 * big), Rat(5), Rat(-1, 7)]
    C = RatMatrix(p, rows)
    ctx = shared_ctx(p)
    f = mat_to_skew(C, ctx)
    assert f == pullback_by_definition(C, ctx)
    assert skew_to_mat(f) == C
