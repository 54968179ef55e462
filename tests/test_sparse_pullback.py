"""Sparse pullbacks from a matrix's rows: interpolation, and det_mul's
certified pullback on a scanned support.

Row q(l) of a matrix is the normal-coordinate vector of its map's value at
beta^l, so the rows, read in the order l = 1..p-1, are the values that
sparse_interpolate takes.  A matrix whose first 2T rows are those of a
sparse matrix, with a later row changed, yields a candidate that the exact
check of the one fit (skewpoly._fit) must reject on the remaining rows;
mat_to_skew and det must still be exact on it.  Bounds are fixed per
prime: T = 5 at p=31 lets candidates of several terms meet the check,
T = 1 at p=61.

det_mul fits a factor's rows on the support its scan found, which
certifies the candidate against every row (matmul._pullback, through the
same skewpoly._fit).  Whenever the certificate passes, the candidate is
mat_to_skew's pullback, whatever the support was; constructed scans that
end wrong (a coefficient vanishing mod the scan's prime, a row lcm
divisible by it, premature early stops) must send the pair to the rows
stage with no mat_to_skew and still give the exact product, as must a
wrong support pulled back by mat_to_skew, and a zero factor gives the
zero product with no pullback.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certified_pullback, fit_values, force_route, fraction_product, rand_elem,
                      rand_poly, seeded)
from skewmm import (RatMatrix, SkewPoly, SupportSet, det_mul, from_normal_coords,
                    interpolate_known_support, mat_to_skew, naive_mul, shared_ctx, skew_to_mat,
                    sparse_interpolate)
from skewmm import matmul, skewpoly
from skewmm.multiply import RationalProduct
from skewmm.rational import Rat
from skewmm.skewpoly import _locator_roots, _modulus
from skewmm.skewstructure import random_layered

BOUNDS = {31: 5, 61: 1}


def row_values(M, ctx):
    """M's map's values at beta^1 .. beta^(p-1), read off rows q(1) .. q(p-1)."""
    return [from_normal_coords(ctx, M.rows[ctx.q(l) - 1]) for l in range(1, ctx.p)]


def assert_products_exact(M, ctx, rng):
    B = random_layered(ctx, [0, 3], rng.getrandbits(32))
    assert det_mul(M, B)[0] == naive_mul(M, B)
    assert det_mul(B, M)[0] == naive_mul(B, M)


@pytest.mark.parametrize("p", (3, 5, 7, 13, 31, 61))
def test_zero_and_identity(p):
    ctx = shared_ctx(p)
    for M, f in ((RatMatrix.zeros(p), SkewPoly.zero(ctx)),
                 (RatMatrix.identity(p), SkewPoly.one(ctx))):
        values = row_values(M, ctx)
        assert sparse_interpolate(values, 1, ctx) == f
        assert fit_values(values, f.support(), ctx) == f
        assert mat_to_skew(M, ctx) == f


@pytest.mark.parametrize("p", (31, 61))
@pytest.mark.parametrize(("s", "change"),
                         [(1, "add"), ("bound", "add"), (1, "halve"), ("bound", "halve")],
                         ids=["1", "bound", "1-halve", "bound-halve"])
def test_certificate_rejects_a_changed_row_past_the_first_2T(p, s, change):
    # rows q(1)..q(2T) are those of a sparse matrix, so the interpolation
    # finds its polynomial; one changed later row must make the check
    # reject it.  "add" changes one entry; "halve" halves the row, which
    # keeps its value's lowest-terms numerators and changes only its
    # denominator, so the check must compare denominators too
    ctx = shared_ctx(p)
    bound = BOUNDS[p]
    s = bound if s == "bound" else s
    rng = seeded(p * 100 + s)
    for l in (2 * bound + 1, p - 1):
        sparse = random_layered(ctx, rng.sample(range(p - 1), s), rng.getrandbits(32))
        rows = [list(row) for row in sparse.rows]
        if change == "add":
            rows[ctx.q(l) - 1][rng.randrange(p - 1)] += Rat(1, 3)
        else:
            rows[ctx.q(l) - 1] = [x / 2 for x in rows[ctx.q(l) - 1]]
        M = RatMatrix(p, rows)
        values, old = row_values(M, ctx), row_values(sparse, ctx)
        if change == "halve":
            assert values[l - 1].num == old[l - 1].num
            assert values[l - 1].den == 2 * old[l - 1].den
        f = sparse_interpolate(values, bound, ctx)
        assert f == mat_to_skew(sparse, ctx) and f.sparsity == s
        assert fit_values(old, f.support(), ctx) == f
        assert fit_values(values, f.support(), ctx) is None
        assert certified_pullback(M, f.support()) is None
        assert mat_to_skew(M, ctx).sparsity > bound
        assert_products_exact(M, ctx, rng)


# ---------------------------------------------------------------------------
# det_mul's certified sparse pullback
# ---------------------------------------------------------------------------

def guard_prime(p):
    return _modulus(p)[0]


def scanned(M, bound):
    """The support det_mul's scan of M under the bound gives, or None: its
    early stop's locator roots, where there are exactly L of them."""
    conn, _ = matmul._scan(matmul._factor_rows(M, matmul._over_one(M)), bound, M.p)
    return None if conn is None else _locator_roots(conn, M.p)


def counting_pullbacks(monkeypatch):
    """Record every mat_to_skew det_mul makes."""
    calls = []

    def counting(M, ctx=None):
        calls.append(M)
        return mat_to_skew(M, ctx)

    monkeypatch.setattr(matmul, "mat_to_skew", counting)
    return calls


@st.composite
def candidates(draw):
    # a factor, over 1 or with denominators, with short entries or long ones
    # (times 3^50, so that a candidate's values need slots past 64 bits and
    # the certificate reads them by rotated_sum), and a support to solve it
    # on: its own, a subset (a lost term), a superset, or a shifted one
    p = draw(st.sampled_from((3, 5, 7, 13, 31, 61)))
    ctx = shared_ctx(p)
    rng = seeded(draw(st.integers(0, 2 ** 32)))
    s = draw(st.integers(0, min(p - 1, 6)))
    f = rand_poly(ctx, rng, s, den_bound=draw(st.sampled_from([1, 7])))
    M = skew_to_mat(f)
    if draw(st.booleans()):
        M = M.scale(Fraction(1, draw(st.sampled_from([3, 2 ** 61 - 1]))))
    if draw(st.booleans()):
        M = M.scale(3 ** 50)
    support = set(f.terms)
    kind = draw(st.sampled_from(["own", "subset", "superset", "shifted"]))
    if kind == "subset" and support:
        support.discard(min(support))
    elif kind == "superset" and len(support) < p - 1:
        support.add(min(set(range(p - 1)) - support))
    elif kind == "shifted":
        support = {(e + 1) % (p - 1) for e in support}
    return M, SupportSet(support)


@settings(deadline=None, max_examples=150)
@given(candidates())
def test_a_certified_pullback_is_the_pullback(case):
    M, support = case
    f = certified_pullback(M, support)
    pullback = mat_to_skew(M)
    if set(pullback.terms) <= set(support):
        assert f == pullback
    else:
        assert f is None


def pair_with(A, seed=1):
    # a one-term partner, so that a route forced direct takes both supports
    return A, random_layered(shared_ctx(A.p), [2], seed)


def assert_takes_rows(A, B, monkeypatch):
    # with the route forced direct on any supports the scans give, and the
    # sparse pullback taken wherever a factor has one (whatever the model
    # prices), the pair takes the rows stage with no mat_to_skew
    calls = counting_pullbacks(monkeypatch)
    force_route(monkeypatch, "direct")
    monkeypatch.setattr(matmul, "_fit_cost", lambda *_args: 0.0)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert calls == []
    assert product == naive_mul(A, B) == RatMatrix(A.p, fraction_product(A.rows, B.rows))
    assert (report.product, report.t_used) == ("rows", A.p - 1)


def vanishing_factor(p):
    """c + (beta - z) x^3 with z = zeta (mod q), for the image zeta of beta
    modulo the scan's prime q: its second coefficient maps to 0, so the
    scan sees one term of two."""
    ctx = shared_ctx(p)
    zeta = _modulus(p)[1][1]
    vanishing = ctx.beta_power(1) - ctx.one * zeta
    return skew_to_mat(SkewPoly(ctx, {0: rand_elem(ctx, seeded(p)), 3: vanishing}))


@pytest.mark.parametrize("p", (13, 31, 61))
def test_a_coefficient_vanishing_mod_q_fails_the_certificate(p, monkeypatch):
    # the candidate solved on the one term the scan sees fails the
    # certificate
    A = vanishing_factor(p)
    assert scanned(A, p - 1) == SupportSet([0])
    assert certified_pullback(A, SupportSet([0])) is None
    assert_takes_rows(*pair_with(A), monkeypatch)


@pytest.mark.parametrize("p", (13, 31, 61))
def test_a_row_lcm_divisible_by_q_leaves_the_factor_unknown(p, monkeypatch):
    A = random_layered(shared_ctx(p), [0, 1], p).scale(Fraction(1, guard_prime(p)))
    assert scanned(A, p - 1) is None
    assert_takes_rows(*pair_with(A), monkeypatch)


def node_image(p, e):
    return _modulus(p)[2][e]


#: the node outside premature_stop_factor's support that its scan stops on
PREMATURE_NODE = 5


def premature_stop_factor(p):
    """Three terms, on exponents 0, 1, 2, whose first three residues are
    geometric with the ratio of the node PREMATURE_NODE outside the
    support: Berlekamp-Massey stops after three rows with one term, whose
    locator's root is that node.  (A two-term factor cannot do this: its
    residues are geometric only if a coefficient vanishes mod q.)"""
    ctx = shared_ctx(p)
    q = guard_prime(p)
    exps = (0, 1, 2)
    rho = node_image(p, PREMATURE_NODE)
    z = [node_image(p, e) for e in exps]
    a = [zi * (zi - rho) % q for zi in z]
    inv = lambda x: pow(x, -1, q)
    gamma = [-a[2] * (z[2] - z[1]) * inv(a[0] * (z[0] - z[1])) % q,
             -a[2] * (z[2] - z[0]) * inv(a[1] * (z[1] - z[0])) % q, 1]
    residues = [sum(g * zi ** l for g, zi in zip(gamma, z)) % q for l in (1, 2, 3)]
    assert residues[0] and residues[1] ** 2 % q == residues[0] * residues[2] % q
    return skew_to_mat(SkewPoly(ctx, {e: ctx.one * g for e, g in zip(exps, gamma)}))


@pytest.mark.parametrize("p", (31, 61))
def test_a_premature_early_stop_fails_the_certificate(p, monkeypatch):
    A = premature_stop_factor(p)
    assert scanned(A, p - 1) == SupportSet([PREMATURE_NODE])
    assert_takes_rows(*pair_with(A), monkeypatch)


@pytest.mark.parametrize("p", (31, 61))
def test_a_two_term_factor_with_a_vanishing_first_row_stops_at_once(p, monkeypatch):
    # x^0 - z x^1 with z = zeta^(1 - r) (mod q): row q(1) maps to 0, so the
    # scan stops after one row with the empty recurrence
    ctx = shared_ctx(p)
    q = guard_prime(p)
    z = node_image(p, 0) * pow(node_image(p, 1), -1, q) % q
    A = skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: ctx.one * -z}))
    assert scanned(A, p - 1) == SupportSet()
    assert_takes_rows(*pair_with(A), monkeypatch)


def test_a_wrong_support_pulled_back_by_mat_to_skew_takes_rows(monkeypatch):
    # a wrong 5-term support for a 5-term factor at p=31, too large for the
    # fit to pay, on 40-bit coefficients, which the model sends direct:
    # mat_to_skew's pullback is not on the support, so the pair takes the
    # rows stage, with its partner never pulled back
    p = 31
    ctx = shared_ctx(p)
    A, B = random_layered(ctx, range(5), 7, 2 ** 40), random_layered(ctx, [2], 1, 2 ** 40)
    real_roots = matmul._locator_roots

    def shifted(*args):
        support = real_roots(*args)
        return SupportSet(e + 1 for e in support) if len(support) == 5 else support

    assert matmul._fit_cost(5, p, True) > matmul._mat_to_skew_cost(p, True)
    calls = counting_pullbacks(monkeypatch)
    monkeypatch.setattr(matmul, "_locator_roots", shifted)
    rows = RationalProduct(A.nums, A.dens, B.nums, B.dens)
    assert matmul._supports(A, B, True, True, rows) == (SupportSet(range(1, 6)),
                                                         SupportSet([2]), 5)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert calls == [A]
    assert product == naive_mul(A, B)
    assert (report.product, report.t_used) == ("rows", p - 1)


def refuse(*_args, **_kwargs):
    raise AssertionError("det scanned or pulled back a factor")


@pytest.mark.parametrize("p", (3, 13, 31))
def test_a_zero_factor_gives_zero_with_no_pullback(p, monkeypatch):
    # Z*B and B*Z are zero up front: neither factor is scanned or pulled
    # back, whether the partner is dense or sparse, integral or not
    ctx = shared_ctx(p)
    zero = RatMatrix.zeros(p)
    for B in (random_layered(ctx, range(p - 1), 3), random_layered(ctx, [1], 4),
              random_layered(ctx, [0], 5).scale(Fraction(1, 7))):
        for A, partner in ((zero, B), (B, zero)):
            for name in ("mat_to_skew", "_scan", "_fit"):
                monkeypatch.setattr(matmul, name, refuse)
            product, report = det_mul(A, partner)
            monkeypatch.undo()
            assert product == zero == naive_mul(A, partner)
            assert (report.product, report.t_used, report.rational_mul_count) == ("direct", 0, 0)


def test_det_and_mc_interpolation_share_one_fit(monkeypatch):
    # one-byte guessed slots overflow on every solve: det's sparse pullback
    # solves again in the provable slots, as mc's interpolation does, and
    # certifies with no mat_to_skew.  det's pullback of each factor,
    # interpolate_known_support and sparse_interpolate each reach the one
    # fit, and the packed solve runs inside it only.  The route is forced
    # direct: on packed slots the model sends every pair at p=31 to rows
    p = 31
    ctx = shared_ctx(p)
    A, B = random_layered(ctx, [0], 11), random_layered(ctx, [0, 1], 12)
    supports = matmul._scanned(A, B, True, True, p - 1)
    assert supports == (SupportSet([0]), SupportSet([0, 1]), 2)
    assert all(matmul._fit_cost(len(support), p, True) <= matmul._mat_to_skew_cost(p, True)
               for support in supports[:2])
    f_b, values = mat_to_skew(B), row_values(B, ctx)
    real_sizes, real_fit = skewpoly._solve_sizes, skewpoly._fit
    real_solve = skewpoly._solve_on_support
    fits, solves, inside = [], [], []

    def tiny(vectors, prime):
        return 1, real_sizes(vectors, prime)[1]

    def fit(nums, dens, support, fit_ctx):
        fits.append((len(nums), set(support)))
        inside.append(True)
        try:
            return real_fit(nums, dens, support, fit_ctx)
        finally:
            inside.pop()

    def solve(vectors, den, exps, solve_ctx, size):
        solves.append((bool(inside), size))
        return real_solve(vectors, den, exps, solve_ctx, size)

    monkeypatch.setattr(skewpoly, "_solve_sizes", tiny)
    for module in (skewpoly, matmul):
        monkeypatch.setattr(module, "_fit", fit)
    monkeypatch.setattr(skewpoly, "_solve_on_support", solve)
    monkeypatch.setattr(matmul, "mat_to_skew", refuse)
    force_route(monkeypatch, "direct")
    product, report = det_mul(A, B)
    assert fits == [(p - 1, {0}), (p - 1, {0, 1})]
    assert len(solves) == 4 and [size for _, size in solves[::2]] == [1, 1]
    assert all(size > 1 for _, size in solves[1::2])
    fits.clear()
    assert interpolate_known_support(values[:2], SupportSet([0, 1]), ctx) == f_b
    assert fits == [(2, {0, 1})]
    fits.clear()
    assert sparse_interpolate(values[:4], 2, ctx) == f_b
    assert fits == [(4, {0, 1})]
    assert len(solves) == 8 and all(within for within, _ in solves)
    monkeypatch.undo()
    assert product == naive_mul(A, B)
    assert report.product == "direct" and report.t_used == 2
