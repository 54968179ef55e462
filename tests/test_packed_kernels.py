"""The packed-word kernels against their definitions.

values_at_beta_powers packs each of f's t coefficient vectors into one
p-slot word offset by its own M_k = max|entry|, and builds a value as one
sum of t rotated words whose beta^0 slot is subtracted on the int: with
S = sum M_k, the sums run in the least of 8, 16, 32 or 64 bits with
2 S < 2^w, the coordinates of all the values are joined and read by one
struct call from the least with 4 S < 2^w, and wider entries take one
rotated_sum per value.  Every value, laid out end to end as the reader
lays it (p ints each, beta^0 first), is checked against that rotated_sum
definition, across all t, at the slot edges (the value at beta^0 puts
2 t M in a slot when every entry is M; aligned terms put 2 S in a
coordinate), on both sides of each edge at p = 3 .. 127, and past 64
bits.  cyc_mul rounds its slot width up to 1, 2, 4 or 8 bytes and reads
the slots through one struct, and a product by beta^k rotates the
exponent vector; cyc_sigma is one cached permutation per (p, r^k).  The
signed-slot layer every kernel packs and reads through (_signed_word,
_signed_reader) round-trips at struct and wider slot widths.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_PRIMES, aligned_poly, least_width, seeded
from skewmm import CycElem, SkewPoly, shared_ctx, skewpoly
from skewmm.cyclotomic import (_signed_reader, _signed_word, _slot_bytes, cyc_mul, cyc_sigma,
                               rotated_sum)
from skewmm.skewpoly import values_at_beta_powers
from test_cyc_canonical import beta_shift_def, sigma_def
from test_cyclotomic import mul_via_poly_reduction

PRIMES = (3, 5, 13, 31, 61, 127)


def values_by_rotated_sum(f, exponents):
    """(D, values) by the definition: one rotated_sum of the coefficients'
    int vectors per value, laid end to end, each led by its beta^0 slot 0."""
    ctx = f.ctx
    p = ctx.p
    terms = f.sorted_terms()
    den = math.lcm(*{c.den for _, c in terms})
    return den, tuple(itertools.chain.from_iterable(
        [0, *rotated_sum(p, [(c.vector(den), ctx.pow_r[e] * l % p) for e, c in terms])]
        for l in exponents))


def assert_matches_definition(f, exponents):
    assert values_at_beta_powers(f, exponents) == values_by_rotated_sum(f, exponents)


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
    # the multiplication by a power of beta is cyc_mul's by ctx.beta_power(k)
    ctx = shared_ctx(p)
    rng = seeded(2500 + p)
    num = [rng.randint(-99, 99) for _ in range(p - 1)]
    a = CycElem(ctx, num, 6)
    coords = [Fraction(x, 6) for x in num]
    for k in range(-1, p):
        assert cyc_sigma(a, k) == ctx.elem(sigma_def(coords, k % (p - 1), ctx))
    for k in range(-p, 2 * p + 1):
        assert cyc_mul(a, ctx.beta_power(k)) == ctx.elem(beta_shift_def(coords, k, p))


# The packed pushforward at every slot-width edge.  With S the sum of the
# coefficient vectors' max|entry|, the shifted sums run in the least slot of
# 1, 2, 4 or 8 bytes with 2 S < 2^w (the raw range), and the coordinates,
# their beta^0 slot subtracted on the int, are read from the least with
# 4 S < 2^w (the corrected range), widened if that is wider; past 64 bits
# rotated_sum runs.


def edge_sums(factors):
    """Sums S of the vectors' max|entry| on both sides of each edge
    factor * S < 2^w."""
    edges = {(2 ** w - 1) // f for w in (8, 16, 32, 64) for f in factors}
    return sorted({s for e in edges for s in (e, e + 1)})


def split_sum(total, t, rng):
    """t positive bounds adding up to total >= t, the first the largest."""
    rest = [rng.randint(1, 9) for _ in range(t - 1)]
    while sum(rest) >= total:
        rest = [1] * (t - 1)
    return [total - sum(rest), *rest]


@st.composite
def edge_polynomials(draw):
    """A polynomial whose vectors' max|entry| add up to S on one side of a
    width edge: the aligned terms whose value at beta^1 reaches 2 S at one
    coordinate, or random vectors, each holding its bound once, over 1 or
    over a denominator D (the first keeps an entry 1, so D is the lcm)."""
    p = draw(st.sampled_from(EDGE_PRIMES))
    ctx = shared_ctx(p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    t = draw(st.integers(1, min(p - 2, 6)))
    bounds = split_sum(max(draw(st.sampled_from(edge_sums((2, 4)))), t), t, rng)
    sign = draw(st.sampled_from((1, -1)))
    if draw(st.booleans()):
        return aligned_poly(ctx, bounds, sign)
    den = draw(st.sampled_from([1, 6, 2 ** 61 - 1]))
    terms = {}
    for k, (e, m) in enumerate(zip(rng.sample(range(p - 1), t), bounds)):
        num = [rng.randint(-min(m, 9), min(m, 9)) for _ in range(p - 1)]
        at = rng.randrange(p - 1)
        num[at] = sign * m
        if k == 0:
            num[(at + 1) % (p - 1)] = 1
        terms[e] = CycElem(ctx, num, den)
    return SkewPoly(ctx, terms)


@settings(deadline=None, max_examples=120)
@given(edge_polynomials())
def test_packed_pushforward_matches_rotated_sum(f):
    assert_matches_definition(f, exponents_for(f.ctx.p))


@pytest.mark.parametrize("p", EDGE_PRIMES)
@pytest.mark.parametrize("total", edge_sums((2, 4)), ids=hex)
def test_pushforward_width_edges(monkeypatch, p, total):
    # two aligned terms whose bounds add up to each S = the largest sum
    # with 2 S < 2^w or 4 S < 2^w, and to S + 1: the sums take the raw
    # width of 2 S, the read the corrected width of 4 S, widened from the
    # raw one for every value if wider; the value at beta^1 reaches 2 S,
    # the top bit of its slot
    ctx = shared_ctx(p)
    t = 1 if p == 3 else 2
    bounds = [total - t + 1] + [1] * (t - 1)
    size, out = least_width(2 * total), least_width(4 * total)
    for sign in (1, -1):
        f = aligned_poly(ctx, bounds, sign)
        widened = []
        original = skewpoly._widened

        def recording_widened(raw, from_size, to_size):
            widened.append((from_size, to_size))
            return original(raw, from_size, to_size)

        monkeypatch.setattr(skewpoly, "_widened", recording_widened)
        exponents = exponents_for(p)
        den, values = values_at_beta_powers(f, exponents)
        monkeypatch.undo()
        assert (den, values) == values_by_rotated_sum(f, exponents)
        assert len(values) == p * len(exponents)
        assert widened == ([(size, out)] * len(exponents)
                           if out is not None and out > size else [])
        assert max(map(abs, values[p:2 * p])) == 2 * total


@pytest.mark.parametrize("size", (1, 2, 4, 8, 9, 16))
@pytest.mark.parametrize("count", (1, 3, 31))
def test_signed_slot_words_round_trip(size, count):
    # the slot layer's contract: _signed_word then _signed_reader is the
    # identity on values below 2^(w-1) in size, through one signed struct
    # up to 8 bytes; in 9- and 16-byte slots values of at most 64 bits are
    # packed narrow and widened, longer ones one to_bytes each.  A word
    # whose top slot overflows, or that carries out of it, reads as garbage
    # in that slot only, and never raises
    w = 8 * size
    rng = seeded(100 * size + count)
    read = _signed_reader(count, size)
    for limit in {2 ** (w - 1) - 1, min(2 ** 63 - 1, 2 ** (w - 1) - 1)}:
        for edge in (limit, -limit, -1, 0, 1, None):
            values = [rng.randint(-limit, limit) for _ in range(count)]
            if edge is not None:
                values[rng.randrange(count)] = edge
            word = _signed_word(values, size)
            assert list(read(word)) == values
            values[-1] = limit
            top = (count - 1) * w
            for bad in (_signed_word(values, size) + (1 << top),
                        word + (1 << (count * w)), word - (1 << (count * w))):
                got = read(bad)
                assert len(got) == count and list(got[:-1]) == values[:-1]
