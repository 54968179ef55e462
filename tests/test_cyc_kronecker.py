"""cyc_mul by one big-int product (Kronecker substitution) at its edges.

Every slot cyc_mul packs is a sum of products a_i b_j with each j at most
once, so its width w (whole bytes, from _slot_bytes) leaves room for
|slot| <= 2^(w-1) - 1.  These operands put sums exactly at that edge, both
signs, before and after the fold mod x^p - 1, and the products are checked
against the Fraction polynomial-reduction oracle of test_cyclotomic.
"""

import pytest

from conftest import rand_elem, seeded
from skewmm import shared_ctx
from skewmm.cyclotomic import _slot_bytes, cyc_mul
from skewmm.rational import Rat
from test_cyc_canonical import beta_shift_def
from test_cyclotomic import mul_via_poly_reduction

PRIMES = (3, 5, 13, 31, 61)


def convolution(a, b):
    """The plain product of the numerators as polynomials in beta: entry k
    is the coefficient of beta^(k+2)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def folded(a, b, p):
    """The cyclic convolution mod beta^p - 1, indexed by beta-exponent."""
    out = [0] * p
    for k, c in enumerate(convolution(a, b)):
        out[(k + 2) % p] += c
    return out


def edge_operands(p, bytes_, sign):
    """(a, b) whose every convolution slot that gets all of b's terms holds
    sign * (2^(8 bytes_ - 1) - 1): a is constant, b's entries sum to a
    divisor of that edge value."""
    edge = 2 ** (8 * bytes_ - 1) - 1
    # 2^15 - 1 = 7 * 4681 and 2^23 - 1 = 47 * 178481; otherwise b is 1
    b = {2: [1, 2, 4], 3: [40, 7]}.get(bytes_, [1]) if p > 3 else [1]
    m = edge // sum(b)
    assert m * sum(b) == edge
    return [sign * m] * (p - 1), b + [0] * (p - 1 - len(b))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("bytes_", (1, 2, 3, 8, 250))
@pytest.mark.parametrize("sign", (1, -1))
def test_sums_at_the_slot_edge(p, bytes_, sign):
    ctx = shared_ctx(p)
    a_num, b_num = edge_operands(p, bytes_, sign)
    edge = sign * (2 ** (8 * bytes_ - 1) - 1)
    assert _slot_bytes(a_num, b_num) == bytes_
    assert edge in convolution(a_num, b_num)
    assert edge in folded(a_num, b_num, p)
    a, b = ctx.elem(a_num), ctx.elem(b_num)
    want = mul_via_poly_reduction(a, b)
    assert cyc_mul(a, b) == want
    assert cyc_mul(b, a) == want


@pytest.mark.parametrize("p", PRIMES)
def test_all_negative_vectors(p):
    ctx = shared_ctx(p)
    rng = seeded(700 + p)
    for bits in (1, 30, 64):
        a = ctx.elem([-rng.randint(1, 2 ** bits) for _ in range(p - 1)])
        b = ctx.elem([-rng.randint(1, 2 ** bits) for _ in range(p - 1)])
        assert cyc_mul(a, b) == mul_via_poly_reduction(a, b)
        assert cyc_mul(a, -a) == mul_via_poly_reduction(a, -a)


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_monomial_operands(p):
    ctx = shared_ctx(p)
    a = rand_elem(ctx, seeded(800 + p), den_bound=7)
    for x, y in ((ctx.zero, a), (a, ctx.zero), (ctx.zero, ctx.zero)):
        assert cyc_mul(x, y) == ctx.zero
    for k in range(p):
        monomial = ctx.beta_power(k)
        assert (cyc_mul(monomial, a) == cyc_mul(a, monomial)
                == ctx.elem(beta_shift_def(a.coords, k, p)))
        assert cyc_mul(monomial, a) == mul_via_poly_reduction(monomial, a)


@pytest.mark.parametrize("p", PRIMES)
def test_long_entries_and_long_denominators(p):
    ctx = shared_ctx(p)
    rng = seeded(900 + p)
    for den_a, den_b in ((2 ** 61 - 1, 3 ** 40), (3 ** 40, 1), (1, 2 ** 61 - 1)):
        a = ctx.elem([Rat(rng.randint(-2 ** 2000, 2 ** 2000), den_a) for _ in range(p - 1)])
        b = ctx.elem([Rat(rng.randint(-2 ** 2000, 2 ** 2000), den_b) for _ in range(p - 1)])
        assert cyc_mul(a, b) == mul_via_poly_reduction(a, b)
        # one long operand against a short one: the slot follows the long one
        c = rand_elem(ctx, rng)
        assert cyc_mul(a, c) == mul_via_poly_reduction(a, c)
