"""Skew polynomial ring, evaluation and interpolation tests."""

import pytest

from conftest import rand_elem, rand_poly, seeded
from skewmm import (InterpolationError, OpCounter, SkewPoly, SupportSet,
                    batch_evaluate_via_matrices, cyc_sigma,
                    interpolate_known_support, normal_coords, power_of_v1,
                    power_points, shared_ctx, skew_to_mat, sp_add, sp_evaluate,
                    sp_mul, sp_neg, sparse_interpolate, sumset)


def geometric_poly(ctx, k):
    """1 + x + ... + x^k with rational (sigma-fixed) coefficients."""
    return SkewPoly(ctx, {e: ctx.one for e in range(k + 1)})


def one_minus_x(ctx):
    return SkewPoly(ctx, {0: ctx.one, 1: -ctx.one})


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_constructor_reduces_and_drops():
    ctx = shared_ctx(5)
    f = SkewPoly(ctx, {0: ctx.zero, 5: ctx.one})  # 5 mod 4 = 1
    assert list(f.terms) == [1]
    g = SkewPoly(ctx, {1: ctx.one, 5: -ctx.one})  # collides and cancels
    assert g.sparsity == 0 and not g


def test_support_set_basics():
    s = SupportSet([3, 1, 3, 0])
    assert list(s) == [0, 1, 3]
    assert len(s) == 3 and 1 in s and 2 not in s
    assert s == {0, 1, 3}
    assert SupportSet([5, 8], modulus=4) == {1, 0}
    with pytest.raises(ValueError):
        SupportSet([-1])


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_add_identities():
    ctx = shared_ctx(7)
    rng = seeded(1)
    f = rand_poly(ctx, rng, 3)
    assert sp_add(f, SkewPoly.zero(ctx)) == f
    assert sp_add(f, sp_neg(f)) == SkewPoly.zero(ctx)


def test_add_merges_coefficients():
    ctx = shared_ctx(7)
    f = SkewPoly.monomial(ctx, 1)                       # x
    g = SkewPoly.monomial(ctx, 1, ctx.beta_power(1))    # beta * x
    total = sp_add(f, g)
    assert total.sparsity == 1
    assert total.terms[1] == ctx.one + ctx.beta_power(1)


def test_mul_twist_rule():
    # x * c = sigma(c) x for a constant c
    for p in (5, 7):
        ctx = shared_ctx(p)
        rng = seeded(p)
        c = rand_elem(ctx, rng)
        prod = sp_mul(SkewPoly.monomial(ctx, 1), SkewPoly(ctx, {0: c}))
        assert prod == SkewPoly.monomial(ctx, 1, cyc_sigma(c, 1))


def test_mul_telescoping_cancellation():
    # (1 - x)(1 + x + ... + x^k) = 1 - x^(k+1): sparsity 2 out of a k+2 sumset
    ctx = shared_ctx(13)
    for k in (1, 4, 9):
        f = one_minus_x(ctx)
        g = geometric_poly(ctx, k)
        prod = sp_mul(f, g)
        assert prod == SkewPoly(ctx, {0: ctx.one, k + 1: -ctx.one})
        assert prod.sparsity == 2
        assert len(sumset(f, g)) == k + 2


def test_mul_exponent_wrap_p3():
    # p-1 = 2, so x * x = x^2 = 1
    ctx = shared_ctx(3)
    x = SkewPoly.monomial(ctx, 1)
    assert sp_mul(x, x) == SkewPoly.one(ctx)


def test_x_to_group_order_is_identity():
    for p in (5, 7, 11):
        ctx = shared_ctx(p)
        assert sp_mul(SkewPoly.monomial(ctx, p - 2), SkewPoly.monomial(ctx, 1)) == SkewPoly.one(ctx)


def test_ring_axioms_random():
    for p in (5, 7):
        ctx = shared_ctx(p)
        rng = seeded(40 + p)
        for _ in range(6):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = rand_poly(ctx, rng, rng.randint(1, p - 1))
            h = rand_poly(ctx, rng, rng.randint(1, p - 1))
            assert sp_mul(sp_mul(f, g), h) == sp_mul(f, sp_mul(g, h))
            assert sp_mul(f, sp_add(g, h)) == sp_add(sp_mul(f, g), sp_mul(f, h))
            assert sp_mul(sp_add(f, g), h) == sp_add(sp_mul(f, h), sp_mul(g, h))


def test_support_contained_in_sumset():
    for p in (7, 11):
        ctx = shared_ctx(p)
        rng = seeded(50 + p)
        for _ in range(10):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = rand_poly(ctx, rng, rng.randint(1, p - 1))
            s = sumset(f, g)
            prod = sp_mul(f, g)
            assert set(prod.support()) <= set(s)
            assert prod.sparsity <= len(s) <= min(f.sparsity * g.sparsity, p - 1)


# ---------------------------------------------------------------------------
# sumsets
# ---------------------------------------------------------------------------

def test_sumset_examples():
    ctx = shared_ctx(7)
    f = SkewPoly(ctx, {0: ctx.one, 1: ctx.one})
    g = SkewPoly(ctx, {0: ctx.one, 1: ctx.one, 2: ctx.one})
    assert sumset(f, g) == {0, 1, 2, 3}
    assert sumset(f, SkewPoly.zero(ctx)) == set()
    assert sumset(SkewPoly.zero(ctx), g) == set()


def test_sumset_wraparound():
    for p in (5, 13):
        ctx = shared_ctx(p)
        half = (p - 1) // 2
        f = SkewPoly(ctx, {0: ctx.one, half: ctx.one})
        assert sumset(f, f) == {0, half}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_constant_and_x():
    ctx = shared_ctx(7)
    rng = seeded(7)
    b = rand_elem(ctx, rng)
    assert sp_evaluate(SkewPoly.one(ctx), b) == b
    assert sp_evaluate(SkewPoly.monomial(ctx, 1), b) == cyc_sigma(b, 1)


def test_evaluate_matches_termwise_sum():
    from skewmm import cyc_add, cyc_mul

    for p in (5, 11):
        ctx = shared_ctx(p)
        rng = seeded(60 + p)
        f = rand_poly(ctx, rng, 3)
        b = rand_elem(ctx, rng)
        acc = ctx.zero
        for e, c in f.terms.items():
            acc = cyc_add(acc, cyc_mul(c, cyc_sigma(b, e)))
        assert sp_evaluate(f, b) == acc


def test_evaluation_is_multiplicative_as_operator():
    # the map "evaluate f" composes: (f*g)(b) = f(g(b))
    for p in (5, 7, 11):
        ctx = shared_ctx(p)
        rng = seeded(70 + p)
        for _ in range(6):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = rand_poly(ctx, rng, rng.randint(1, p - 1))
            b = rand_elem(ctx, rng)
            assert sp_evaluate(sp_mul(f, g), b) == sp_evaluate(f, sp_evaluate(g, b))


def test_batch_evaluate_identity_case():
    # with both maps the identity, the value at v_1^i is the point itself
    ctx = shared_ctx(7)
    ident = skew_to_mat(SkewPoly.one(ctx))
    indices = [1, 0, 7, 3, 14, 13]
    got = batch_evaluate_via_matrices(ctx, indices, ident, ident)
    assert got == [power_of_v1(ctx, i) for i in indices]


def test_batch_evaluate_matches_direct_product_evaluation():
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        rng = seeded(80 + p)
        for _ in range(4):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = rand_poly(ctx, rng, rng.randint(1, p - 1))
            prod = sp_mul(f, g)
            # g acts first, so its matrix is the inner one
            t = rng.randint(1, 2 * p)
            got = batch_evaluate_via_matrices(ctx, range(t), skew_to_mat(g), skew_to_mat(f))
            want = [sp_evaluate(prod, pt) for pt in power_points(ctx, t)]
            assert got == want
            # a tail of the indices, as mc_mul's doubling rounds ask for
            start = rng.randint(0, t - 1)
            tail = batch_evaluate_via_matrices(ctx, range(start, t),
                                               skew_to_mat(g), skew_to_mat(f))
            assert tail == want[start:]


def test_batch_evaluate_handles_all_minus_one_row():
    # v_1^0 = v_1^p = 1 has normal coordinates (-1, ..., -1), not a unit vector
    ctx = shared_ctx(5)
    rng = seeded(85)
    f = rand_poly(ctx, rng, 2)
    g = rand_poly(ctx, rng, 2)
    assert set(normal_coords(power_of_v1(ctx, 0))) == {-1}
    counter = OpCounter()
    got = batch_evaluate_via_matrices(ctx, [0, 5], skew_to_mat(g), skew_to_mat(f), counter)
    want = sp_evaluate(sp_mul(f, g), ctx.one)
    assert got == [want, want]
    assert counter.muls == 2 * 2 * 4 ** 2  # nominal: two dense 2 x 4 by 4 x 4 products


def test_batch_evaluate_dimension_check():
    ctx = shared_ctx(5)
    ident = skew_to_mat(SkewPoly.one(ctx))
    wrong = skew_to_mat(SkewPoly.one(shared_ctx(7)))
    with pytest.raises(ValueError):
        batch_evaluate_via_matrices(ctx, [0, 1], wrong, ident)
    with pytest.raises(ValueError):
        batch_evaluate_via_matrices(ctx, [0, 1], ident, wrong)


# ---------------------------------------------------------------------------
# interpolation with known support
# ---------------------------------------------------------------------------

def test_interpolate_zero():
    ctx = shared_ctx(7)
    support = SupportSet([0, 2, 5])
    pairs = [(i, ctx.zero) for i in range(3)]
    assert interpolate_known_support(pairs, support, ctx=ctx) == SkewPoly.zero(ctx)


def test_interpolate_roundtrip_random():
    cases = [(p, 8, 1) for p in (5, 7, 13)] + [(3, 8, 7), (31, 3, 7)]
    for p, count, den_bound in cases:
        ctx = shared_ctx(p)
        rng = seeded(90 + p)
        for k in range(count):
            t = p - 1 if k == 0 and den_bound > 1 else rng.randint(1, p - 1)
            f = rand_poly(ctx, rng, t, den_bound=den_bound)
            support = f.support()
            t = len(support)
            pairs = [(i, sp_evaluate(f, pt)) for i, pt in enumerate(power_points(ctx, t))]
            assert interpolate_known_support(pairs, support, ctx=ctx) == f


def test_interpolate_makes_no_field_product_inversion_or_elimination(monkeypatch):
    # the nodes are roots of unity: the solve needs only beta-shifts and
    # divisions by 1 - beta^m, never a dense product, inverse or elimination
    from skewmm import cyclotomic, linalg, skewpoly

    def forbidden(*_args):
        raise AssertionError("dense field arithmetic in the known-support solve")

    ctx = shared_ctx(13)
    f = rand_poly(ctx, seeded(97), 12, den_bound=5)
    pairs = [(i, sp_evaluate(f, pt)) for i, pt in enumerate(power_points(ctx, 12))]
    for module, name in ((cyclotomic, "cyc_mul"), (cyclotomic, "cyc_inv"),
                         (skewpoly, "cyc_mul"), (skewpoly, "cyc_inv"),
                         (cyclotomic, "solve_square"), (linalg, "solve_square")):
        monkeypatch.setattr(module, name, forbidden)
    assert interpolate_known_support(pairs, f.support(), ctx=ctx) == f


def test_interpolate_superset_support_yields_exact_zeros():
    # evaluate the cancelling product on its full sumset support: the
    # recovered coefficients at cancelled exponents must vanish and be dropped
    ctx = shared_ctx(13)
    f = one_minus_x(ctx)
    g = geometric_poly(ctx, 6)
    prod = sp_mul(f, g)
    support = sumset(f, g)
    t = len(support)
    pairs = [(i, sp_evaluate(prod, pt)) for i, pt in enumerate(power_points(ctx, t))]
    recovered = interpolate_known_support(pairs, support, ctx=ctx)
    assert recovered == prod
    assert recovered.sparsity == 2


def test_interpolate_input_validation():
    ctx = shared_ctx(5)
    support = SupportSet([0, 1])
    with pytest.raises(ValueError):
        interpolate_known_support([(0, ctx.one)], support, ctx=ctx)
    with pytest.raises(ValueError):
        interpolate_known_support([(0, ctx.one), (2, ctx.one)], support, ctx=ctx)


# ---------------------------------------------------------------------------
# interpolation with only a sparsity bound
# ---------------------------------------------------------------------------

def evaluations(f, count):
    return [sp_evaluate(f, pt) for pt in power_points(f.ctx, count)]


def test_sparse_interpolate_zero_sequence():
    ctx = shared_ctx(13)
    values = [ctx.zero] * 10
    assert sparse_interpolate(values, 5, ctx=ctx) == SkewPoly.zero(ctx)


def test_sparse_interpolate_single_term():
    ctx = shared_ctx(13)
    rng = seeded(101)
    c = rand_elem(ctx, rng)
    for e in (0, 3, 11):
        f = SkewPoly.monomial(ctx, e, c)
        assert sparse_interpolate(evaluations(f, 2), 1, ctx=ctx) == f


def test_sparse_interpolate_bound_above_sparsity():
    ctx = shared_ctx(13)
    rng = seeded(103)
    f = rand_poly(ctx, rng, 3)
    assert sparse_interpolate(evaluations(f, 10), 5, ctx=ctx) == f


def test_sparse_interpolate_roundtrip_various():
    for p in (5, 7, 13):
        ctx = shared_ctx(p)
        rng = seeded(110 + p)
        for _ in range(6):
            t = rng.randint(1, p - 2)
            bound = rng.randint(t, p - 1)
            f = rand_poly(ctx, rng, t)
            assert sparse_interpolate(evaluations(f, 2 * bound), bound, ctx=ctx) == f


def test_sparse_interpolate_undersized_bound_fails_or_differs():
    # the bound is a hard precondition: below the true sparsity the routine
    # must either signal the inconsistency or return a different polynomial
    ctx = shared_ctx(13)
    rng = seeded(117)
    f = rand_poly(ctx, rng, 5)
    try:
        recovered = sparse_interpolate(evaluations(f, 4), 2, ctx=ctx)
    except InterpolationError:
        return
    assert recovered != f


def test_sparse_interpolate_p3_and_full_bound():
    # p = 3 has two exponents; bound = p - 1 allows a dense polynomial
    for p in (3, 7):
        ctx = shared_ctx(p)
        rng = seeded(120 + p)
        for t in range(1, p):
            f = rand_poly(ctx, rng, t, den_bound=5)
            for bound in range(t, p):
                assert sparse_interpolate(evaluations(f, 2 * bound), bound, ctx=ctx) == f


def test_sparse_interpolate_recurrence_longer_than_bound():
    # 0, ..., 0, 1 satisfies no recurrence shorter than its own length 2b
    ctx = shared_ctx(7)
    for bound in (1, 2, 3):
        with pytest.raises(InterpolationError, match="above the bound"):
            sparse_interpolate([ctx.zero] * (2 * bound - 1) + [ctx.one], bound, ctx=ctx)


def test_sparse_interpolate_input_validation():
    ctx = shared_ctx(7)
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 2, 2, ctx=ctx)   # fewer than 2T values
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 20, 0, ctx=ctx)  # bound out of range
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 20, 7, ctx=ctx)  # bound above p-1
