"""Skew polynomial ring, evaluation and interpolation tests."""

import pytest

from conftest import fit_values, rand_elem, rand_poly, seeded
from skewmm import (CycElem, InterpolationError, RatMatrix, SkewPoly, SupportSet, cyc_sigma,
                    det_mul, from_normal_coords, interpolate_known_support, mc_mul, naive_mul,
                    power_of_v1, power_points, shared_ctx, skew_to_mat, sp_add, sp_evaluate,
                    sp_mul, sp_neg, sparse_interpolate, sumset)
from skewmm import matmul, skewpoly
from skewmm.multiply import rational_product
from skewmm.rational import Rat
from skewmm.skewpoly import _modulus, values_at_beta_powers


def geometric_poly(ctx, k):
    """1 + x + ... + x^k with rational (sigma-fixed) coefficients."""
    return SkewPoly(ctx, {e: ctx.one for e in range(k + 1)})


def one_minus_x(ctx):
    return SkewPoly(ctx, {0: ctx.one, 1: -ctx.one})


def evaluations(f, count):
    """f's values at v_1^1 .. v_1^count, by direct evaluation."""
    return [sp_evaluate(f, pt) for pt in power_points(f.ctx, count)]


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


def test_values_at_beta_powers_match_direct_evaluation():
    # the values end to end, p ints each with the beta^0 slot 0 first,
    # under the lcm of the coefficients' denominators; exponents past p-1
    # and the zero polynomial included
    for p in (3, 5, 7, 13):
        ctx = shared_ctx(p)
        rng = seeded(110 + p)
        exponents = list(range(1, p)) + [0, p, p + 1, 2 * p + 3, 5 * p - 1]
        polys = [SkewPoly.zero(ctx)] + [
            rand_poly(ctx, rng, rng.randint(1, p - 1), den_bound=7) for _ in range(4)]
        for f in polys:
            den, values = values_at_beta_powers(f, exponents)
            assert len(values) == p * len(exponents)
            for k, l in enumerate(exponents):
                assert values[k * p] == 0
                value = CycElem(ctx, values[k * p + 1:(k + 1) * p], den)
                assert value == sp_evaluate(f, ctx.beta_power(l))
        assert values_at_beta_powers(SkewPoly.zero(ctx), [1, 2]) == (1, (0,) * (2 * p))
        assert values_at_beta_powers(f, []) == (values_at_beta_powers(f, [1])[0], ())


def _product_values(ctx, f, g, ls):
    # row q(l) of a product's matrix is its value at v_1^l: the int
    # kernel's rows, asked for one at a time as mc_mul asks for them and put
    # over their scales, are the values of f * g, whose matrix is
    # skew_to_mat(g) @ skew_to_mat(f) in the probed orientation
    A, B = skew_to_mat(g), skew_to_mat(f)
    d, e, rows = rational_product(A.nums, A.dens, B.nums, B.dens)
    values = []
    for l in ls:
        i = ctx.q(l) - 1
        row = [Rat(x, d[i] * ek) for x, ek in zip(rows([i])[0], e)]
        values.append(from_normal_coords(ctx, row))
    return values


def test_batch_evaluate_identity_case():
    # with both maps the identity, the value at v_1^l is the point itself
    ctx = shared_ctx(7)
    one = SkewPoly.one(ctx)
    indices = [1, 5, 3, 6, 3, 2, 4]
    assert _product_values(ctx, one, one, indices) == [power_of_v1(ctx, i) for i in indices]


def test_batch_evaluate_matches_direct_product_evaluation():
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        rng = seeded(80 + p)
        for den in (1, 1, 5, 5):
            f, g = (rand_poly(ctx, rng, rng.randint(1, p - 1), den_bound=den) for _ in range(2))
            want = [sp_evaluate(sp_mul(f, g), pt) for pt in power_points(ctx, p - 1)]
            assert _product_values(ctx, f, g, range(1, p)) == want
            # a tail of the indices, and the same indices in reverse
            start = rng.randint(1, p - 1)
            assert _product_values(ctx, f, g, range(start, p)) == want[start - 1:]
            assert _product_values(ctx, f, g, range(p - 1, 0, -1)) == want[::-1]


# ---------------------------------------------------------------------------
# interpolation with known support
# ---------------------------------------------------------------------------

def test_interpolate_zero():
    ctx = shared_ctx(7)
    support = SupportSet([0, 2, 5])
    assert interpolate_known_support([ctx.zero] * 3, support, ctx) == SkewPoly.zero(ctx)


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
            assert interpolate_known_support(evaluations(f, t), support, ctx) == f


def test_interpolate_makes_no_field_product_inversion_or_elimination(monkeypatch):
    # the nodes are roots of unity: the solves need only beta-shifts and
    # divisions by 1 - beta^m, and the support search runs on ints mod q,
    # never a dense product or an elimination over Q(beta)
    from skewmm import cyclotomic, skewpoly

    def forbidden(*_args):
        raise AssertionError("dense field arithmetic in interpolation")

    ctx = shared_ctx(13)
    f = rand_poly(ctx, seeded(97), 12, den_bound=5)
    g = rand_poly(ctx, seeded(98), 5, den_bound=5)
    f_values = evaluations(f, 24)
    g_values = evaluations(g, 14)
    for module in (cyclotomic, skewpoly):
        monkeypatch.setattr(module, "cyc_mul", forbidden)
    assert interpolate_known_support(f_values[:12], f.support(), ctx) == f
    assert sparse_interpolate(f_values, 12, ctx=ctx) == f
    assert sparse_interpolate(g_values, 7, ctx=ctx) == g
    with pytest.raises(InterpolationError):
        sparse_interpolate(g_values[:8], 4, ctx=ctx)


def test_interpolate_superset_support_yields_exact_zeros():
    # evaluate the cancelling product on its full sumset support: the
    # recovered coefficients at cancelled exponents must vanish and be dropped
    ctx = shared_ctx(13)
    f = one_minus_x(ctx)
    g = geometric_poly(ctx, 6)
    prod = sp_mul(f, g)
    support = sumset(f, g)
    t = len(support)
    recovered = interpolate_known_support(evaluations(prod, t), support, ctx)
    assert recovered == prod
    assert recovered.sparsity == 2


def test_interpolate_input_validation():
    ctx = shared_ctx(5)
    support = SupportSet([0, 1])
    with pytest.raises(ValueError):
        interpolate_known_support([ctx.one], support, ctx)
    with pytest.raises(ValueError):
        interpolate_known_support([ctx.one] * 3, support, ctx)


# ---------------------------------------------------------------------------
# interpolation with only a sparsity bound
# ---------------------------------------------------------------------------

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


def test_moduli_are_primes_one_mod_p_with_a_primitive_root_of_unity():
    from skewmm.cyclotomic import is_odd_prime
    from skewmm.skewpoly import _is_prime

    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(2000) if _is_prime(n)] == [
        n for n in range(2000) if by_trial_division(n)]
    assert [n for n in range(2000) if is_odd_prime(n)] == [
        n for n in range(3, 2000) if by_trial_division(n)]
    assert not any(is_odd_prime(x) for x in (0, 1, 2, 9, -3, True, 3.0, "5"))
    # strong pseudoprimes to the first few prime bases, and Mersenne primes
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, (2 ** 31 - 1) * (2 ** 61 - 1)):
        assert not _is_prime(n)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)
    for p in (3, 5, 7, 13, 31, 61, 127):
        ctx = shared_ctx(p)
        q, zeta_pows, nodes = _modulus(p)
        assert q < 2 ** 30 and q % p == 1 and _is_prime(q)
        # the largest such prime: every q = 1 (mod p) above it is composite
        assert not any(_is_prime(x) for x in range(q + p, 2 ** 30, p))
        assert len(zeta_pows) == p and zeta_pows[0] == 1
        assert len(set(zeta_pows)) == p  # zeta has order exactly p
        assert zeta_pows[1] * zeta_pows[-1] % q == 1
        # the image of v_(j+1) = beta^(r^j), which is also the weight of
        # normal coordinate j
        assert nodes == tuple(pow(zeta_pows[1], ctx.pow_r[j], q) for j in range(p - 1))
        assert nodes == ctx.to_normal(zeta_pows[1:])


def recording_support_search(monkeypatch):
    """Record sparse_interpolate's modular support searches; returns the
    list of supports their locators gave (_locator_roots; None where it
    has the wrong number of roots), with a None for each residue the prime
    failed on (_residue, where it divides a denominator, which ends the
    search)."""
    calls = []
    real_roots, real_residue = skewpoly._locator_roots, skewpoly._residue

    def roots(conn, p):
        support = real_roots(conn, p)
        calls.append(None if support is None else set(support))
        return support

    def residue(nums, den, q, nodes):
        x = real_residue(nums, den, q, nodes)
        if x is None:
            calls.append(None)
        return x

    monkeypatch.setattr(skewpoly, "_locator_roots", roots)
    monkeypatch.setattr(skewpoly, "_residue", residue)
    return calls


def vanishing_coefficient_poly():
    # q * c maps to 0 in F_q: modulo the one prime f looks like {7, 9}
    ctx = shared_ctx(13)
    rng = seeded(131)
    return SkewPoly(ctx, {2: _modulus(13)[0] * rand_elem(ctx, rng, den_bound=5),
                          7: rand_elem(ctx, rng), 9: rand_elem(ctx, rng, den_bound=3)})


def divided_denominator_poly():
    # a coefficient over q: q divides the values' denominators
    ctx = shared_ctx(13)
    rng = seeded(132)
    return SkewPoly(ctx, {1: Rat(1, _modulus(13)[0]) * rand_elem(ctx, rng),
                          4: rand_elem(ctx, rng)})


#: polynomials on which the one prime fails, with the supports its search
#: finds from their first 8 values
UNLUCKY = {
    "vanishing coefficient": (vanishing_coefficient_poly, {7, 9}),
    "divisible denominator": (divided_denominator_poly, None),
}


@pytest.mark.parametrize("case", UNLUCKY)
def test_an_unlucky_prime_sends_mc_to_its_direct_round(case, monkeypatch):
    # sparse_interpolate makes one search, and raises where the prime fails
    # even though the bound covers f.  mc_mul's scan of the product's rows
    # meets the same prime: it gives up at the first row over a multiple of
    # q (length 0), or stops on the wrong support, which the fit refuses.
    # With no candidate to check, mc returns the exact product, assembled
    # from all its rows and checked once, with no fallback; det, whose
    # scans use the same prime, is exact too
    make, found = UNLUCKY[case]
    f = make()
    ctx = f.ctx
    p = ctx.p
    values = evaluations(f, 8)
    if found is None:
        assert any(x.denominator % _modulus(p)[0] == 0 for x in values[0].coords)
    calls = recording_support_search(monkeypatch)
    with pytest.raises(InterpolationError, match="found no polynomial"):
        sparse_interpolate(values, 4, ctx=ctx)
    assert calls == [found]
    monkeypatch.undo()
    A, ident = skew_to_mat(f), RatMatrix.identity(p)
    for pair in ((A, ident), (ident, A)):
        want = naive_mul(*pair)
        product, report = mc_mul(*pair, "1/20", 7)
        assert product == want
        assert not report.fallback
        assert (report.t_used, report.iterations) == (p - 1, 1)
        assert report.final_T == (0 if found is None else len(found))
        assert det_mul(*pair)[0] == want


def test_sparse_interpolate_at_the_cap_needs_no_prime(monkeypatch):
    # a coefficient that vanishes modulo the prime: below the cap the one
    # search gives up loudly; at bound = p-1 no prime is used at all
    f = vanishing_coefficient_poly()
    ctx = f.ctx
    calls = recording_support_search(monkeypatch)
    with pytest.raises(InterpolationError, match="found no polynomial"):
        sparse_interpolate(evaluations(f, 10), 5, ctx=ctx)
    assert calls == [{7, 9}]
    calls.clear()
    assert sparse_interpolate(evaluations(f, 24), 12, ctx=ctx) == f
    assert calls == []


def test_sparse_interpolate_rejects_values_no_polynomial_fits():
    # the first p-1 values fix a unique polynomial; one changed later value
    # makes every candidate disagree, at the cap and below it
    ctx = shared_ctx(7)
    f = rand_poly(ctx, seeded(133), 2, den_bound=4)
    for bound in (2, 3, 6):
        values = evaluations(f, 2 * bound)
        values[-1] = values[-1] + ctx.one
        with pytest.raises(InterpolationError):
            sparse_interpolate(values, bound, ctx=ctx)


@pytest.mark.parametrize("change", ["add", "halve"])
def test_certificate_rejects_a_changed_value(change):
    # the fit's exact check (skewpoly._fit), on f's own values at
    # beta^1 .. beta^(p-1) with one of them changed.  "halve" keeps the
    # value's lowest-terms numerators and changes only its denominator, so
    # the check must compare denominators too
    p = 31
    ctx = shared_ctx(p)
    f = rand_poly(ctx, seeded(3161), 2, den_bound=4)
    values = evaluations(f, p - 1)
    assert fit_values(values, f.support(), ctx) == f
    for l in (1, p - 1):
        changed = list(values)
        old = values[l - 1]
        if change == "add":
            changed[l - 1] = old + ctx.one
        else:
            changed[l - 1] = CycElem(ctx, old.num, 2 * old.den)
            assert changed[l - 1].num == old.num
        assert fit_values(changed, f.support(), ctx) is None


def test_det_and_mc_search_modulo_one_prime(monkeypatch):
    # det's scans and mc's support search reduce through the one residue
    # step, modulo the one prime of _modulus, whose table is built once
    skewpoly._modulus.cache_clear()
    p = 61
    ctx = shared_ctx(p)
    seen = []
    real = skewpoly._residue

    def recording(nums, den, q, nodes):
        seen.append((q, nodes))
        return real(nums, den, q, nodes)

    for module in (skewpoly, matmul):
        monkeypatch.setattr(module, "_residue", recording)
    f = SkewPoly(ctx, {4: rand_elem(ctx, seeded(3))})
    assert sparse_interpolate(evaluations(f, 2), 1, ctx=ctx) == f
    assert len(seen) == 2
    A = skew_to_mat(SkewPoly(ctx, {0: rand_elem(ctx, seeded(4))}))
    assert det_mul(A, skew_to_mat(f))[0] == naive_mul(A, skew_to_mat(f))
    assert len(seen) > 2
    q, _, nodes = _modulus(p)
    assert set(seen) == {(q, nodes)}
    assert skewpoly._modulus.cache_info().currsize == 1


def test_sparse_interpolate_input_validation():
    ctx = shared_ctx(7)
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 2, 2, ctx=ctx)   # fewer than 2T values
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 20, 0, ctx=ctx)  # bound out of range
    with pytest.raises(ValueError):
        sparse_interpolate([ctx.one] * 20, 7, ctx=ctx)  # bound above p-1
