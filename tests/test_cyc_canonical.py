"""Canonical form of field elements: integer numerators over one positive
denominator, in lowest terms.

After every cyclotomic operation the result must satisfy gcd(den, *num) = 1
and den > 0, with zero stored as all zeros over 1, and its coordinates must
equal a definition on Fraction coordinates kept here.  Denominators share
factors (so sums and products leave content to remove), reach 2^61 - 1, and
sums are drawn that cancel to zero.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skewmm import (cyc_add, cyc_mul, cyc_neg, cyc_scale, cyc_sigma, from_normal_coords,
                    shared_ctx)
from test_cyclotomic import mul_via_poly_reduction

PRIMES = (3, 5, 7, 13)

denominators = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 12, 36, 2 ** 61 - 1,
                                          2 * (2 ** 61 - 1), 3 ** 40]),
                         st.integers(1, 2 ** 61 - 1))
fractions = st.builds(Fraction, st.integers(-60, 60), denominators)


def assert_canonical(x, ctx):
    assert x.ctx is ctx
    assert type(x.num) is tuple and len(x.num) == ctx.p - 1
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.num == (0,) * (ctx.p - 1) and x.den == 1


def check(x, ctx, coords):
    """x is canonical and has exactly these Fraction power coordinates."""
    assert_canonical(x, ctx)
    assert x.coords == tuple(coords)


def exponent_vector(coords):
    """Slot e holds the coefficient of beta^e, slot 0 is 0."""
    return [Fraction(0), *coords]


def power_coords(vec):
    """Power coordinates of sum vec[e] beta^e, through beta^0 = -(beta + ...)."""
    return [x - vec[0] for x in vec[1:]]


def beta_shift_def(coords, k, p):
    vec = exponent_vector(coords)
    out = [Fraction(0)] * p
    for e, x in enumerate(vec):
        out[(e + k) % p] += x
    return power_coords(out)


def sigma_def(coords, k, ctx):
    p = ctx.p
    m = pow(ctx.r, k, p)
    out = [Fraction(0)] * p
    for e, x in enumerate(exponent_vector(coords)):
        out[e * m % p] += x
    return power_coords(out)


@st.composite
def elements(draw, p):
    n = p - 1
    kind = draw(st.sampled_from(["dense", "monomial", "zero", "scaled-unit"]))
    if kind == "zero":
        return [Fraction(0)] * n
    if kind == "monomial":
        coords = [Fraction(0)] * n
        coords[draw(st.integers(0, n - 1))] = draw(fractions.filter(bool))
        return coords
    if kind == "scaled-unit":  # c * 1 = (-c, ..., -c)
        c = draw(fractions)
        return [-c] * n
    return draw(st.lists(fractions, min_size=n, max_size=n))


@st.composite
def element_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(elements(p))
    kind = draw(st.sampled_from(["any", "negation", "common-den"]))
    if kind == "negation":  # a + b cancels to zero
        b = [-x for x in a]
    elif kind == "common-den":  # same denominator, so the sum keeps content
        d = draw(denominators)
        b = [Fraction(draw(st.integers(-60, 60)), d) for _ in a]
        a = [Fraction(draw(st.integers(-60, 60)), d) for _ in a]
    else:
        b = draw(elements(p))
    return shared_ctx(p), a, b


canonical_settings = settings(deadline=None, max_examples=150)


@canonical_settings
@given(element_pairs())
def test_construction_and_ring_operations_stay_canonical(case):
    ctx, ca, cb = case
    a, b = ctx.elem(ca), ctx.elem(cb)
    check(a, ctx, ca)
    check(b, ctx, cb)
    check(cyc_add(a, b), ctx, [x + y for x, y in zip(ca, cb)])
    check(a - b, ctx, [x - y for x, y in zip(ca, cb)])
    check(cyc_neg(a), ctx, [-x for x in ca])
    check(cyc_mul(a, b), ctx, mul_via_poly_reduction(a, b).coords)
    for c in (Fraction(0), Fraction(6, 35), cb[0]):
        check(cyc_scale(a, c), ctx, [x * c for x in ca])
    vals = list(reversed(ca))
    normal = from_normal_coords(ctx, vals)
    check(normal, ctx, [vals[ctx.pow_r.index(u)] for u in range(1, ctx.p)])


@canonical_settings
@given(element_pairs(), st.integers(-30, 30))
def test_shifts_and_permutations_stay_canonical(case, k):
    ctx, ca, _ = case
    p = ctx.p
    a = ctx.elem(ca)
    check(cyc_mul(a, ctx.beta_power(k)), ctx, beta_shift_def(ca, k, p))
    check(cyc_sigma(a, k), ctx, sigma_def(ca, k, ctx))


def test_context_units_are_canonical():
    for p in PRIMES:
        ctx = shared_ctx(p)
        check(ctx.zero, ctx, [Fraction(0)] * (p - 1))
        check(ctx.one, ctx, [Fraction(-1)] * (p - 1))
        for k in range(1, p):
            check(ctx.beta_power(k), ctx, [Fraction(int(e == k)) for e in range(1, p)])
