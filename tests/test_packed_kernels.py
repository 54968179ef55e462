"""The packed-word kernels against their definitions.

values_at_beta_powers packs each of f's t coefficient vectors into one
p-slot word offset by M = max|entry|, and builds a value as one sum of t
rotated words: its slots are 8, 16, 32 or 64 bits, the least with
2 t M < 2^w, and wider entries take one rotated_sum per value.  Every
value is checked against that rotated_sum definition, across all t, at
the slot edges (the value at beta^0 puts 2 t M in a slot when every entry
is M) and past 64 bits.  cyc_mul rounds its slot width up to 1, 2, 4 or 8
bytes and reads the slots through one struct; cyc_sigma is one cached
permutation per (p, r^k); mul_beta_power rotates the exponent vector.
"""

import math
from fractions import Fraction

import pytest

from conftest import seeded
from skewmm import CycElem, SkewPoly, shared_ctx
from skewmm.cyclotomic import _slot_bytes, cyc_mul, cyc_sigma, mul_beta_power, rotated_sum
from skewmm.skewpoly import values_at_beta_powers
from test_cyc_canonical import beta_shift_def, sigma_def
from test_cyclotomic import mul_via_poly_reduction

PRIMES = (3, 5, 13, 31, 61, 127)


def values_by_rotated_sum(f, exponents):
    """(D, rows) by the definition: one rotated_sum of the coefficients' int
    vectors per value."""
    ctx = f.ctx
    p = ctx.p
    terms = f.sorted_terms()
    den = math.lcm(*{c.den for _, c in terms})
    return den, [rotated_sum(p, [(c.vector(den), ctx.pow_r[e] * l % p) for e, c in terms])
                 for l in exponents]


def assert_matches_definition(f, exponents):
    den, rows = values_at_beta_powers(f, exponents)
    assert (den, list(rows)) == values_by_rotated_sum(f, exponents)


def exponents_for(p):
    """beta^0 (all rotations 0, so slot sums peak) and a spread past p-1."""
    return [0, 1, 2, p - 1, p, p + 1, 2 * p + 3, 5 * p - 1]


def poly_of_vectors(ctx, rng, t, make):
    """A t-term polynomial on random exponents, coefficient k = make(k)."""
    exps = rng.sample(range(ctx.p - 1), t)
    return SkewPoly(ctx, {e: make(k) for k, e in enumerate(exps)})


@pytest.mark.parametrize("p", PRIMES)
def test_every_sparsity_with_mixed_denominators(p):
    ctx = shared_ctx(p)
    rng = seeded(1900 + p)
    exponents = exponents_for(p)

    def coefficient(_k):
        num = [rng.randint(-50, 50) for _ in range(p - 1)]
        num[rng.randrange(p - 1)] = rng.choice((-1, 1))
        return CycElem(ctx, num, rng.choice((1, 2, 3, 4, 6, 35, 2 ** 61 - 1)))

    for t in range(p):
        assert_matches_definition(poly_of_vectors(ctx, rng, t, coefficient), exponents)
    for t in (1, p // 2, p - 1):
        assert_matches_definition(poly_of_vectors(ctx, rng, t, coefficient), range(1, p))


@pytest.mark.parametrize("p", PRIMES)
def test_all_negative_coefficient_vectors(p):
    ctx = shared_ctx(p)
    rng = seeded(2000 + p)
    for t in sorted({1, 2, (p - 1) // 2, p - 1}):
        f = poly_of_vectors(ctx, rng, t, lambda _k: CycElem(
            ctx, [-rng.randint(1, 2 ** 20) for _ in range(p - 1)], rng.randint(1, 9)))
        assert_matches_definition(f, exponents_for(p))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("w", (8, 16, 32, 64))
@pytest.mark.parametrize("t", (1, 2))
def test_slot_sums_at_the_width_edge(p, w, t):
    # every entry +M: the value at beta^0 has 2 t M in each slot but slot 0.
    # 2 t M = 2^w - 2t is the largest even sum below 2^w and stays at w
    # bits; 2 t M = 2^w must take the next width (or rotated_sum past 64)
    ctx = shared_ctx(p)
    rng = seeded(2100 + p + w)
    for bound in (2 ** w // (2 * t) - 1, 2 ** w // (2 * t)):
        for sign in (1, -1):
            f = poly_of_vectors(ctx, rng, t, lambda _k: CycElem(ctx, [sign * bound] * (p - 1)))
            assert_matches_definition(f, exponents_for(p))
            # one entry at the edge, the rest small: M is set by that one entry
            f = poly_of_vectors(ctx, rng, t, lambda k: CycElem(
                ctx, [sign * bound if k == i == 0 else rng.randint(-3, 3)
                      for i in range(p - 1)]))
            assert_matches_definition(f, exponents_for(p))


@pytest.mark.parametrize("p", PRIMES)
def test_entries_past_64_bit_slots(p):
    ctx = shared_ctx(p)
    rng = seeded(2200 + p)
    for t in sorted({1, 2, p - 1}):
        f = poly_of_vectors(ctx, rng, t, lambda _k: CycElem(
            ctx, [rng.randint(-2 ** 200, 2 ** 200) for _ in range(p - 1)],
            rng.choice((1, 3 ** 40, 2 ** 61 - 1))))
        assert_matches_definition(f, exponents_for(p))
    # small numerators over denominators whose lcm scales them past 2^63
    f = poly_of_vectors(ctx, rng, 2, lambda k: CycElem(
        ctx, [rng.randint(-9, 9) or 1 for _ in range(p - 1)], (3 ** 40, 2 ** 61 - 1)[k]))
    assert_matches_definition(f, exponents_for(p))


@pytest.mark.parametrize("p", (13, 61))
@pytest.mark.parametrize("entry", (9, 2 ** 100), ids=("packed", "wide"))
def test_drawing_k_values_builds_k(p, entry):
    ctx = shared_ctx(p)
    rng = seeded(2300 + p)
    f = poly_of_vectors(ctx, rng, 3, lambda _k: CycElem(
        ctx, [rng.randint(-entry, entry) for _ in range(p - 1)]))
    for k in (0, 1, 5, p - 1):
        drawn = []

        def counting_exponents():
            for l in range(1, p):
                drawn.append(l)
                yield l

        _, rows = values_at_beta_powers(f, counting_exponents())
        assert drawn == []
        got = [next(rows) for _ in range(k)]
        assert drawn == list(range(1, k + 1))
        assert got == values_by_rotated_sum(f, range(1, k + 1))[1]


def rounded_operands(p, size, sign):
    """(a, b) for which _slot_bytes is `size` and a convolution slot holds
    sign * (2^(8 size - 1) - 1): a is constant, b's entries sum to a
    divisor of that edge value when p leaves room for them."""
    edge = 2 ** (8 * size - 1) - 1
    # 2^23 - 1 = 47 * 178481, 7 | 2^39 - 1, 2351 | 2^47 - 1, 31 | 2^55 - 1
    b = {3: [40, 7], 5: [1, 2, 4], 6: [1000, 1351], 7: [1, 2, 4, 8, 16]}[size]
    if len(b) > p - 1:
        b = [1]
    m = edge // sum(b)
    assert m * sum(b) == edge
    return [sign * m] * (p - 1), b + [0] * (p - 1 - len(b))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("size", (3, 5, 6, 7))
@pytest.mark.parametrize("sign", (1, -1))
def test_cyc_mul_slots_that_round_up(p, size, sign):
    ctx = shared_ctx(p)
    a_num, b_num = rounded_operands(p, size, sign)
    assert _slot_bytes(a_num, b_num) == size
    a, b = ctx.elem(a_num), ctx.elem(b_num)
    want = mul_via_poly_reduction(a, b)
    assert cyc_mul(a, b) == want
    assert cyc_mul(b, a) == want
    # random operands of the same slot width, over denominators
    rng = seeded(2400 + 10 * p + size)
    bits = 8 * size - 9 - (p - 1).bit_length()
    a = CycElem(ctx, [rng.randint(-2 ** bits, 2 ** bits) for _ in range(p - 1)], 7)
    b = CycElem(ctx, [sign * rng.randint(0, 2 ** 8) for _ in range(p - 1)], 2 ** 61 - 1)
    assert _slot_bytes(a.num, b.num) == size
    assert cyc_mul(a, b) == mul_via_poly_reduction(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_cyc_sigma_and_mul_beta_power_against_their_definitions(p):
    ctx = shared_ctx(p)
    rng = seeded(2500 + p)
    num = [rng.randint(-99, 99) for _ in range(p - 1)]
    a = CycElem(ctx, num, 6)
    coords = [Fraction(x, 6) for x in num]
    for k in range(-1, p):
        assert cyc_sigma(a, k) == ctx.elem(sigma_def(coords, k % (p - 1), ctx))
    for k in range(-p, 2 * p + 1):
        assert mul_beta_power(a, k) == ctx.elem(beta_shift_def(coords, k, p))
