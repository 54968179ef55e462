"""Field arithmetic, automorphism and basis-permutation tests."""

import pytest

from conftest import rand_elem, seeded
from skewmm import (CycCtx, cyc_add, cyc_mul, cyc_neg, cyc_scale, cyc_sigma,
                    find_primitive_root, from_normal_coords, normal_coords, power_of_v1,
                    shared_ctx)
from skewmm.rational import Rat


def multiplicative_order(r, p):
    """Brute-force order of r mod p (independent oracle)."""
    acc, order = r % p, 1
    while acc != 1:
        acc = acc * r % p
        order += 1
    return order


# ---------------------------------------------------------------------------
# primitive roots and context tables
# ---------------------------------------------------------------------------

def test_find_primitive_root_small_primes():
    for p, expected in [(3, 2), (5, 2), (7, 3)]:
        r = find_primitive_root(p)
        assert r == expected
        assert multiplicative_order(r, p) == p - 1


def test_find_primitive_root_is_smallest():
    for p in (11, 13, 17, 19, 23):
        r = find_primitive_root(p)
        assert multiplicative_order(r, p) == p - 1
        for smaller in range(2, r):
            assert multiplicative_order(smaller, p) != p - 1


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 0, -7, 2.0])
def test_find_primitive_root_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        find_primitive_root(bad)


def test_ctx_p3_tables():
    ctx = CycCtx(3)
    assert ctx.r == 2
    assert ctx.q_perm == (1, 2)
    assert ctx.s_perm == (2, 1)
    assert ctx.k_idx == 2


def test_ctx_p5_q_perm():
    # powers of 2 mod 5 are 1, 2, 4, 3
    ctx = CycCtx(5)
    assert ctx.r == 2
    assert [ctx.q(i) for i in (1, 2, 4, 3)] == [1, 2, 3, 4]


def test_ctx_s_is_q_shifted_by_half_group_order():
    for p in (7, 11, 13):
        ctx = CycCtx(p)
        half = (p - 1) // 2
        for i in range(1, p):
            assert ctx.s(i) == (ctx.q(i) + half - 1) % (p - 1) + 1


def test_ctx_permutations_are_bijections():
    for p in (3, 5, 7, 11, 13):
        ctx = CycCtx(p)
        assert sorted(ctx.q_perm) == list(range(1, p))
        assert sorted(ctx.s_perm) == list(range(1, p))
        assert pow(ctx.r, ctx.k_idx - 1, p) == p - 1
        for i in range(1, p):
            assert pow(ctx.r, ctx.q(i) - 1, p) == i
            assert pow(ctx.r, ctx.s(i) - 1, p) == p - i


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_add_identities():
    ctx = shared_ctx(7)
    rng = seeded(1)
    for _ in range(10):
        a = rand_elem(ctx, rng)
        assert cyc_add(a, ctx.zero) == a
        assert cyc_add(a, cyc_neg(a)) == ctx.zero


def test_add_p3_example():
    # beta + beta^2 = -1, whose coordinates are (1, 1)
    ctx = shared_ctx(3)
    a = ctx.elem([1, 0])
    b = ctx.elem([0, 1])
    assert cyc_add(a, b) == ctx.elem([1, 1])


def test_scale():
    ctx = shared_ctx(5)
    a = ctx.elem([1, -2, 3, 0])
    assert cyc_scale(a, Rat(1, 2)) == ctx.elem([Rat(1, 2), -1, Rat(3, 2), 0])
    assert cyc_scale(a, 0) == ctx.zero


def test_mul_p3_beta_times_beta_squared():
    # beta^3 = 1 = -(beta + beta^2)
    ctx = shared_ctx(3)
    assert cyc_mul(ctx.beta_power(1), ctx.beta_power(2)) == ctx.elem([-1, -1])


def test_mul_identity_element():
    for p in (3, 5, 11):
        ctx = shared_ctx(p)
        assert ctx.one == ctx.elem([-1] * (p - 1))
        rng = seeded(p)
        a = rand_elem(ctx, rng)
        assert cyc_mul(a, ctx.one) == a
        assert cyc_mul(ctx.one, a) == a


def test_mul_p5_exponent_wrap():
    # beta^2 * beta^4 = beta^6 = beta
    ctx = shared_ctx(5)
    assert cyc_mul(ctx.beta_power(2), ctx.beta_power(4)) == ctx.beta_power(1)


def mul_via_poly_reduction(a, b):
    """Oracle: multiply lifts in Q[z], long-divide by z^(p-1)+...+1, convert."""
    ctx = a.ctx
    p = ctx.p
    fa = [Rat(0)] + list(a.coords)
    fb = [Rat(0)] + list(b.coords)
    prod = [Rat(0)] * (2 * p - 1)
    for i, ca in enumerate(fa):
        if ca:
            for j, cb in enumerate(fb):
                if cb:
                    prod[i + j] += ca * cb
    for d in range(2 * p - 2, p - 2, -1):
        c = prod[d]
        if c:
            prod[d] = Rat(0)
            for k in range(d - (p - 1), d):
                prod[k] -= c
    # remainder has degree <= p-2 over {1, z, ..., z^(p-2)}; rewrite over
    # {beta, ..., beta^(p-1)} using 1 = -(beta + ... + beta^(p-1))
    coords = [(prod[i] if i <= p - 2 else Rat(0)) - prod[0] for i in range(1, p)]
    return ctx.elem(coords)


def test_mul_matches_polynomial_reduction_oracle():
    for p in (3, 5, 7, 11, 13):
        ctx = shared_ctx(p)
        rng = seeded(100 + p)
        for _ in range(12):
            a = rand_elem(ctx, rng)
            b = rand_elem(ctx, rng)
            assert cyc_mul(a, b) == mul_via_poly_reduction(a, b)


def test_field_axioms_on_random_samples():
    for p in (5, 7, 11):
        ctx = shared_ctx(p)
        rng = seeded(200 + p)
        for _ in range(8):
            a, b, c = (rand_elem(ctx, rng) for _ in range(3))
            assert cyc_mul(a, b) == cyc_mul(b, a)
            assert cyc_add(a, b) == cyc_add(b, a)
            assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
            assert cyc_add(cyc_add(a, b), c) == cyc_add(a, cyc_add(b, c))
            assert cyc_mul(a, cyc_add(b, c)) == cyc_add(cyc_mul(a, b), cyc_mul(a, c))


def test_context_mismatch_rejected():
    a = shared_ctx(5).beta_power(1)
    b = shared_ctx(7).beta_power(1)
    with pytest.raises(ValueError):
        cyc_add(a, b)
    with pytest.raises(ValueError):
        cyc_mul(a, b)


# ---------------------------------------------------------------------------
# the automorphism and the normal basis
# ---------------------------------------------------------------------------

def test_sigma_p3_example():
    ctx = shared_ctx(3)
    assert cyc_sigma(ctx.elem([1, 0]), 1) == ctx.elem([0, 1])


def test_sigma_p5_exponent():
    # sigma(beta^3) = beta^6 = beta with r = 2
    ctx = shared_ctx(5)
    assert cyc_sigma(ctx.beta_power(3), 1) == ctx.beta_power(1)


def test_sigma_full_cycle_is_identity():
    for p in (3, 7, 11):
        ctx = shared_ctx(p)
        rng = seeded(400 + p)
        a = rand_elem(ctx, rng)
        assert cyc_sigma(a, p - 1) == a
        assert cyc_sigma(a, 0) == a


def test_sigma_is_field_automorphism():
    for p in (5, 7, 11):
        ctx = shared_ctx(p)
        rng = seeded(500 + p)
        for _ in range(6):
            a, b = rand_elem(ctx, rng), rand_elem(ctx, rng)
            assert cyc_sigma(cyc_mul(a, b), 1) == cyc_mul(cyc_sigma(a, 1), cyc_sigma(b, 1))
            assert cyc_sigma(cyc_add(a, b), 1) == cyc_add(cyc_sigma(a, 1), cyc_sigma(b, 1))


def test_sigma_fixes_rationals():
    ctx = shared_ctx(7)
    rational = cyc_scale(ctx.one, Rat(5, 3))
    assert cyc_sigma(rational, 1) == rational


def test_normal_coords_p3():
    ctx = shared_ctx(3)
    assert normal_coords(ctx.beta_power(1)) == (1, 0)


def test_normal_coords_p5_v3():
    # r^2 = 4, so beta^4 = v_3
    ctx = shared_ctx(5)
    assert normal_coords(ctx.beta_power(4)) == (0, 0, 1, 0)


def test_normal_coords_roundtrip():
    for p in (3, 5, 7, 13):
        ctx = shared_ctx(p)
        rng = seeded(600 + p)
        for _ in range(6):
            a = rand_elem(ctx, rng)
            assert from_normal_coords(ctx, normal_coords(a)) == a


def test_normal_basis_trace_identity():
    # summing all Galois conjugates of any v_i gives -1 (coordinates all 1)
    for p in (3, 5, 7, 11):
        ctx = shared_ctx(p)
        for i in range(1, p):
            vi = ctx.beta_power(ctx.v_exponent(i))
            total = ctx.zero
            for k in range(p - 1):
                total = cyc_add(total, cyc_sigma(vi, k))
            assert total == ctx.elem([1] * (p - 1))


def test_power_of_v1():
    ctx5 = shared_ctx(5)
    assert power_of_v1(ctx5, 0) == ctx5.one
    assert power_of_v1(ctx5, 0).coords == (-1, -1, -1, -1)
    assert power_of_v1(ctx5, 7) == ctx5.beta_power(2)
    ctx3 = shared_ctx(3)
    assert power_of_v1(ctx3, 3) == ctx3.one


def test_no_floats_accepted():
    ctx = shared_ctx(5)
    with pytest.raises(TypeError):
        ctx.elem([0.5, 0, 0, 0])


def test_to_power_and_to_normal_are_inverse_permutations():
    for p in (3, 5, 7, 13, 31):
        ctx = shared_ctx(p)
        n = p - 1
        idx = list(range(n))
        assert sorted(ctx.to_power(idx)) == idx == sorted(ctx.to_normal(idx))
        assert ctx.to_normal(ctx.to_power(idx)) == tuple(idx) == ctx.to_power(ctx.to_normal(idx))
        for j in range(1, p):
            # v_j = beta^(r^(j-1)) is the unit vector of normal coordinate j
            unit = tuple(int(k == j - 1) for k in range(n))
            assert ctx.to_normal(ctx.beta_power(ctx.v_exponent(j)).num) == unit
            assert ctx.to_power(unit) == ctx.beta_power(ctx.v_exponent(j)).num
        rng = seeded(700 + p)
        for _ in range(4):
            a = rand_elem(ctx, rng, den_bound=7)
            assert tuple(Rat(x, a.den) for x in ctx.to_normal(a.num)) == normal_coords(a)
            assert from_normal_coords(ctx, normal_coords(a)) == a


def test_from_normal_coords_refuses_a_wrong_length():
    for p in (3, 5, 7, 13, 31):
        ctx = shared_ctx(p)
        for length in (p - 2, p):
            with pytest.raises(ValueError, match="coordinates"):
                from_normal_coords(ctx, [Rat(1, 2)] * length)
