"""det_mul's density guard: a factor proven too dense for the direct route
from its rows modulo a prime sends the pair to the rows stage with no
pullback.

Row q(l) of a matrix is its map's value at beta^l, a linear recurrence in
l whose length is the pullback's sparsity s, and reducing it modulo the
guard's prime q = 1 (mod p) cannot make it longer.  So a Berlekamp-Massey
length above T proves s > T, where T is the reach of det's cost model:
the largest sparsity at which the direct route, scans and all, still
costs no more than the rows stage with a one-term partner.  The tests
check that the guard is sound (a factor it calls dense has more than T
terms, and one over a multiple of q is never called dense), that the
reach follows the model's prices, that the guarded pairs (det-wide's, a
dense rational pair, a cancellation pair, a pair over distinct primes)
never pull back and still equal naive_mul, that where T = 0 nothing is
scanned or pulled back (every short-entry pair at p <= 31), and that
det-sparse's pairs on entries past 64-bit slots take the direct route
with no mat_to_skew, their pullbacks solved on the scanned supports and
certified.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (certified_pullback, fraction_product, rand_matrix, rand_poly,
                      rand_rational_matrix, seeded)
from skewmm import (RatMatrix, SkewPoly, SupportSet, det_mul, mat_to_skew, naive_mul,
                    shared_ctx, skew_to_mat)
from skewmm import matmul
from skewmm.multiply import RationalProduct
from skewmm.selftest import _distinct_prime_pair
from skewmm.skewpoly import _modulus
from skewmm.skewstructure import random_layered
from test_matmul import bench_pair

PRIMES = (3, 5, 7, 13, 31)


def guard_prime(p):
    return _modulus(p)[0]


def reach(p, integral, words=0):
    """The model's T for a pair both over 1 or both not, on the rows stage's
    packed slots or, past them, `words` words an entry."""
    return matmul._reach(p, integral, integral, words)


def scan_bound(p):
    """A bound for the guard's own tests, which hold under any: a quarter of
    p-1, so that factors on both sides of it fit in Z_(p-1)."""
    return (p - 1) // 4


def refuse(*_args, **_kwargs):
    raise AssertionError("det pulled a factor back")


def scan_end(M, T, over_one):
    """How det_mul's scan of M's rows under the bound T ends: (conn, L)."""
    return matmul._scan(matmul._factor_rows(M, over_one), T, M.p)


def proven_dense(M, T, over_one):
    """Whether the scan ends with None and a length L > T: M is proven to
    have more than T terms."""
    end, length = scan_end(M, T, over_one)
    return end is None and length > T


@pytest.mark.parametrize("p, integral, T", [
    (3, True, 0), (3, False, 0), (5, True, 0), (5, False, 0), (7, True, 0),
    (13, True, 2), (13, False, 3), (31, True, 7), (31, False, 11), (61, True, 17),
    (61, False, 26), (127, True, 39), (127, False, 58),
])
def test_the_bound_is_the_rules_last_direct_sparsity(p, integral, T):
    # T is the bound of the stage rule the model replaced, which priced the
    # product stages alone.  The model adds the scans and the pullbacks, so
    # its reach on packed slots is at most T; past them the rows stage
    # loops, and on 1024-bit coefficients (33 words) it reaches at least T,
    # or every sparsity a scan can find
    assert reach(p, integral) <= T
    assert min(T, (p - 2) // 2) <= reach(p, integral, 33)


@pytest.mark.parametrize("p, integral, T, wide", [
    # the reach on packed slots, then at the 64-bit edge (2 words), over 1
    # and with denominators: none at p <= 31 on packed slots, and never
    # more than the (p-2)//2 terms a scan can stop early on
    (3, True, 0, 0), (7, True, 0, 0), (7, False, 0, 0), (13, True, 0, 0), (13, False, 0, 0),
    (31, True, 0, 14), (31, False, 0, 14), (61, True, 3, 29), (61, False, 3, 29),
    (127, True, 8, 62), (127, False, 12, 62),
])
def test_the_reach_on_packed_and_wide_slots(p, integral, T, wide):
    assert (reach(p, integral), reach(p, integral, 2)) == (T, wide)
    for words, bound in ((0, T), (2, wide)):
        rows = matmul._rows_cost(p, integral, words)
        if bound:
            assert matmul._direct_cost(p, integral, integral, 1, bound, bound, words,
                                       scans=True) <= rows
        if bound < (p - 2) // 2:
            assert matmul._direct_cost(p, integral, integral, 1, bound + 1, bound + 1, words,
                                       scans=True) > rows


def test_the_bound_follows_a_replaced_rule(monkeypatch):
    # the reach reads the model's prices: a free route reaches every
    # sparsity a scan can find, a free rows stage none (the uncached
    # function, since the prices are patched)
    for price, want in ((float("inf"), lambda p: (p - 2) // 2), (0.0, lambda p: 0)):
        monkeypatch.setattr(matmul, "_rows_cost", lambda *_args, price=price: price)
        for p in PRIMES:
            assert matmul._reach.__wrapped__(p, True, True, 0) == want(p)


@st.composite
def factors(draw):
    p = draw(st.sampled_from(PRIMES))
    ctx = shared_ctx(p)
    T = draw(st.integers(0, p - 2))
    s = draw(st.integers(max(0, T - 2), min(p - 1, T + 3)))
    den = draw(st.sampled_from([1, 7, 3 ** 40, guard_prime(p)]))
    den_bound = draw(st.sampled_from([1, 7]))
    f = rand_poly(ctx, seeded(draw(st.integers(0, 2 ** 32))), s, den_bound=den_bound)
    M = skew_to_mat(f)
    return (M if den == 1 else M.scale(Fraction(1, den))), T, den


@settings(deadline=None, max_examples=300)
@given(factors())
def test_the_guard_is_sound(case):
    M, T, den = case
    p = M.p
    proven = proven_dense(M, T, matmul._over_one(M))
    if proven:
        assert mat_to_skew(M).sparsity > T
    if den == guard_prime(p):
        assert not proven


def test_every_dense_layered_factor_is_proven():
    # not a guarantee (a coefficient may vanish modulo q), but these seeds
    # are fixed: every factor past T is proven dense, every other is not
    rng = random.Random(26)
    for p in (7, 13, 31, 61):
        ctx = shared_ctx(p)
        T = scan_bound(p)
        for den in (1, 7):
            for s in range(1, p):
                M = random_layered(ctx, rng.sample(range(p - 1), s), rng.getrandbits(32))
                M = M.scale(Fraction(1, den))
                assert proven_dense(M, T, den == 1) == (s > T), (p, den, s)


def test_a_sparse_factor_costs_2s_plus_1_rows(monkeypatch):
    # early termination: a factor of s <= T terms stops at the first zero
    # discrepancy at step n >= 2L, after 2s + 1 rows
    read = []

    class Counting(matmul._BerlekampMassey):
        __slots__ = ()

        def add(self, x):
            read.append(x)
            return super().add(x)

    monkeypatch.setattr(matmul, "_BerlekampMassey", Counting)
    for p in (31, 61):
        ctx = shared_ctx(p)
        T = scan_bound(p)
        for s in range(1, T + 1):
            read.clear()
            assert scan_end(random_layered(ctx, range(s), s), T, True)[0] is not None
            assert len(read) == 2 * s + 1
        read.clear()
        assert scan_end(RatMatrix.zeros(p), T, True)[0] is not None
        assert len(read) == 1


def layered_pair(t, seed, coeff_bound=9):
    # the workloads' shape at p=31: a one-term factor times layers 0..t-1
    ctx = shared_ctx(31)
    return (random_layered(ctx, [0], seed, coeff_bound),
            random_layered(ctx, range(t), seed + 1, coeff_bound))


GUARDED = {
    "det-wide, t = 8": lambda: layered_pair(8, 1),
    "det-wide, t = 12": lambda: layered_pair(12, 3),
    "det-wide, t = 16": lambda: layered_pair(16, 5),
    "dense rational": lambda: (rand_rational_matrix(31, seeded(7)),
                               rand_rational_matrix(31, seeded(8))),
    # (1 - x)(1 + x + ... + x^9) at p=13: a product of two terms
    "cancellation at p=13": lambda: (
        skew_to_mat(SkewPoly(shared_ctx(13), {0: shared_ctx(13).one, 1: -shared_ctx(13).one})),
        skew_to_mat(SkewPoly(shared_ctx(13), {e: shared_ctx(13).one for e in range(10)}))),
    # every entry of both factors over its own prime
    "distinct primes at p=31": lambda: _distinct_prime_pair(31, random.Random(9)),
    # one term times layers 0..3 at p=61, one term past the model's reach
    "one term times layers 0..3 at p=61": lambda: (random_layered(shared_ctx(61), [0], 61),
                                                   random_layered(shared_ctx(61), range(4), 62)),
}


@pytest.mark.parametrize("case", GUARDED)
def test_guarded_pairs_take_the_rows_stage_with_no_pullback(case, monkeypatch):
    A, B = GUARDED[case]()
    p = A.p
    monkeypatch.setattr(matmul, "mat_to_skew", refuse)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert product == naive_mul(A, B) == RatMatrix(p, fraction_product(A.rows, B.rows))
    assert report.product == "rows"
    assert report.t_used == p - 1
    assert report.rational_mul_count == (p - 1) ** 3


def test_a_guarded_pair_with_a_zero_factor_is_zero_up_front(monkeypatch):
    # a zero partner makes the product zero before any scan could prove
    # the other factor dense: no pullback, and the direct stage's report
    A = rand_rational_matrix(31, seeded(10))
    for pair in ((A, RatMatrix.zeros(31)), (RatMatrix.zeros(31), A)):
        monkeypatch.setattr(matmul, "mat_to_skew", refuse)
        product, report = det_mul(*pair)
        monkeypatch.undo()
        assert product == RatMatrix.zeros(31)
        assert (report.product, report.t_used) == ("direct", 0)


@pytest.mark.parametrize("p, den", [(3, 1), (5, 1), (7, 1), (3, 7), (5, 7), (11, 1), (11, 7)])
def test_no_sparsity_goes_direct_so_nothing_is_scanned(p, den, monkeypatch):
    # T = 0: det takes the rows stage with no scan, fit or pullback, on
    # sparse and dense pairs alike
    ctx = shared_ctx(p)
    assert reach(p, den == 1) == 0
    scale = Fraction(1, den)
    for A, B in ((random_layered(ctx, [0], p).scale(scale), random_layered(ctx, [1], p + 1)),
                 (RatMatrix.identity(p), RatMatrix.identity(p).scale(scale)),
                 (rand_matrix(p, seeded(p)).scale(scale), random_layered(ctx, [0], 2))):
        for name in ("_scan", "_fit", "mat_to_skew"):
            monkeypatch.setattr(matmul, name, refuse)
        product, report = det_mul(A, B)
        monkeypatch.undo()
        assert product == naive_mul(A, B) == RatMatrix(p, fraction_product(A.rows, B.rows))
        assert (report.product, report.t_used) == ("rows", p - 1)


@pytest.mark.parametrize("t", (1, 2, 4))
def test_det_sparse_pairs_go_direct_on_their_scanned_supports(t, monkeypatch):
    # det-sparse's shape on 32-bit coefficients, whose product needs slots
    # past 64 bits: both factors end their scans with a support, the model
    # sends the pair direct on it, and each factor's sparse pullback is
    # certified: no mat_to_skew, but where the model prices mat_to_skew
    # lower (s = 4 at p=31)
    A, B = layered_pair(t, 20 + t, 2 ** 32)
    supports = matmul._supports(A, B, True, True, RationalProduct(A.nums, A.dens, B.nums, B.dens))
    assert supports == (SupportSet([0]), SupportSet(range(t)), t)
    for M, support in zip((A, B), supports):
        assert certified_pullback(M, support) == mat_to_skew(M)
    calls = []

    def counting(M, ctx=None):
        calls.append(M)
        return mat_to_skew(M, ctx)

    monkeypatch.setattr(matmul, "mat_to_skew", counting)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert calls == ([] if t < 4 else [B])
    assert product == naive_mul(A, B)
    assert (report.product, report.t_used) == ("direct", t)


@pytest.mark.parametrize("p", (13, 31))
@pytest.mark.parametrize("den", (1, 5))
@pytest.mark.parametrize("t", (1, 2, 4, 8))
def test_short_entries_take_rows_with_no_scan(p, den, t, monkeypatch):
    # bench's pairs at p <= 31: no one-term partner makes the direct route
    # cheaper than the packed rows stage, so det is naive's int product,
    # with no scan, root search, fit or pullback
    A, B, _ = bench_pair(p, t, 1)
    A, B = A.scale(Fraction(1, den)), B.scale(Fraction(1, den))
    for name in ("_scan", "_locator_roots", "_fit", "mat_to_skew"):
        monkeypatch.setattr(matmul, name, refuse)
    product, report = det_mul(A, B)
    monkeypatch.undo()
    assert product == naive_mul(A, B)
    assert (report.product, report.t_used, report.rational_mul_count) == ("rows", p - 1,
                                                                           (p - 1) ** 3)


@pytest.mark.parametrize("t", (1, 2, 4))
def test_long_entries_at_p31_go_direct(t):
    # the same pairs on 32-bit coefficients: the rows stage would loop past
    # 64-bit slots, and the direct route costs a fraction of it
    A, B, _ = bench_pair(31, t, 1, 2 ** 32)
    product, report = det_mul(A, B)
    assert product == naive_mul(A, B)
    assert (report.product, report.t_used) == ("direct", t)
