"""det_mul's two product stages: each is exact, and each is taken where
the rule says.

det_mul decides its route once, on the scanned supports (_supports): the
direct product sp_mul(f_B, f_A) of the pullbacks ("direct") where
_product_route picks it from s_A s_B, the sumset size t, p and whether
both factors are over 1, else the int product of all p-1 rows ("rows").
Pairs are built with real denominators on both routes: layered pairs,
pairs whose supports are one subgroup of Z_(p-1), so that the sumset
collapses to it, random supports whose sumset nearly fills Z_(p-1) at p=31
and p=61, a dense pair, a zero factor, and two pairs whose first factor
fails det's certificate and so take the rows stage.  Each product must
equal the Fraction triple loop of conftest, only the chosen stage may run,
the rule runs at most once, and nothing is evaluated or interpolated: the
paper's evaluation stage is mc_mul's alone.
"""

from fractions import Fraction

import pytest

from conftest import certified_pullback, fraction_product, rand_rational_matrix, seeded
from skewmm import RatMatrix, det_mul, mat_to_skew, naive_mul, shared_ctx, sumset
from skewmm import matmul, skewpoly
from skewmm.matmul import _product_route
from skewmm.skewstructure import random_layered
from test_sparse_pullback import pair_with, premature_stop_factor, vanishing_factor

P = 31


def layered(layers, seed, den, p=P):
    return random_layered(shared_ctx(p), layers, seed).scale(Fraction(1, den))


SUBGROUP_10 = range(0, 30, 3)

#: the route each pair must take, then what the pair is
PAIRS = {
    "direct": lambda: (layered([0], 1, 7), layered(range(4), 2, 2 ** 61 - 1)),
    # supports on the subgroup of order 5 of Z_60
    "direct, s = t = 5": lambda: (layered(range(0, 60, 12), 3, 3 ** 40, p=61),
                                  layered(range(0, 60, 12), 4, 5, p=61)),
    "rows": lambda: (rand_rational_matrix(P, seeded(5)), rand_rational_matrix(P, seeded(6))),
    "rows, s = t = 10": lambda: (layered(SUBGROUP_10, 7, 2), layered(SUBGROUP_10, 8, 9)),
    "direct, layered": lambda: (layered([0, 1], 9, 3), layered(range(3), 10, 11)),
    # s = 8 and t = 29 at p=31, and s = 12 and t = 56 at p=61 (the CLI's
    # gen with these layers and seeds): sumsets that nearly fill Z_(p-1),
    # where evaluation and interpolation took about 10x the stage taken
    "rows, random s = 8": lambda: (layered([0, 1, 3, 4, 12, 15, 21, 24], 12, 5),
                                   layered([3, 4, 7, 17, 22, 23, 24, 29], 13, 3)),
    "rows, random s = 12 at p=61": lambda: (
        layered([3, 4, 6, 9, 20, 23, 25, 34, 37, 41, 52, 55], 1, 1, p=61),
        layered([2, 4, 5, 13, 15, 26, 27, 32, 35, 54, 55, 58], 2, 1, p=61)),
    "direct, zero factor": lambda: (RatMatrix.zeros(P), rand_rational_matrix(P, seeded(14))),
    # one term times layers 0..8 (t = 9): direct only because of the
    # denominators, whose row and column scales make the rows stage dearer
    "direct, over denominators": lambda: (layered([0], 15, 7), layered(range(9), 16, 2)),
    "rows, the same layers over 1": lambda: (layered([0], 15, 1), layered(range(9), 16, 1)),
    # a first factor whose scanned support fails its certificate, so that
    # the pair takes the rows stage: a coefficient that vanishes mod the
    # scan's prime, and an early stop on a node outside the support
    "rows, a vanishing coefficient": lambda: pair_with(vanishing_factor(P)),
    "rows, a premature early stop": lambda: pair_with(premature_stop_factor(P)),
}

#: the PAIRS whose first factor's certificate fails
CERTIFICATE_FAILED = ("rows, a vanishing coefficient", "rows, a premature early stop")

#: the stage functions det_mul calls, by the route that calls them
STAGES = {"direct": ("sp_mul",), "rows": ("product_matrix",)}


def forbidden(message):
    def stage(*_args, **_kwargs):
        raise AssertionError(message)

    return stage


@pytest.mark.parametrize("case", PAIRS)
def test_each_route_equals_the_fraction_product(case, monkeypatch):
    route = case.split(",")[0]
    A, B = PAIRS[case]()
    p = A.p

    for other, names in STAGES.items():
        if other != route:
            for name in names:
                monkeypatch.setattr(matmul, name,
                                    forbidden(f"the {route} route ran another route's stage"))
    # det neither interpolates (skewpoly) nor runs mc's pass over the
    # product's rows, whose kernel matmul imports by name for mc_mul
    for name in ("interpolate_known_support", "sparse_interpolate"):
        monkeypatch.setattr(skewpoly, name, forbidden("det interpolated"))
    monkeypatch.setattr(matmul, "rational_product", forbidden("det ran mc's pass"))
    product, report = det_mul(A, B)
    monkeypatch.undo()

    assert report.product == route
    assert product == RatMatrix(p, fraction_product(A.rows, B.rows)) == naive_mul(A, B)
    ctx = shared_ctx(p)
    t_used = p - 1 if route == "rows" else len(sumset(mat_to_skew(A, ctx), mat_to_skew(B, ctx)))
    assert report.t_used == t_used
    assert report.rational_mul_count == 2 * t_used * (p - 1) ** 2


@pytest.mark.parametrize("case", CERTIFICATE_FAILED)
def test_the_failed_certificates_fail(case):
    # the scans send the pair direct, the first factor's support pays, and
    # the candidate solved on it is refused, so det_mul takes the rows stage
    A, B = PAIRS[case]()
    supports = matmul._supports(A, B, True, True)
    assert supports is not None and matmul._sparse_pays(len(supports[0]), A.p)
    assert certified_pullback(A, supports[0]) is None


@pytest.mark.parametrize("route", ("direct", "rows"))
def test_every_route_is_exact_at_every_prime(route, monkeypatch):
    # forced past the rule, each route must still give the product, on
    # layered, full-support, dense and zero pairs with denominators; a zero
    # factor gives the zero product up front, reported as "direct".  Scans
    # of dense factors run out, so the direct route is forced by handing
    # det mat_to_skew's supports and their sumset as the scanned ones
    if route == "direct":
        def supports(A, B, *_args):
            f_a, f_b = mat_to_skew(A), mat_to_skew(B)
            return f_a.support(), f_b.support(), len(sumset(f_a, f_b))

        monkeypatch.setattr(matmul, "_supports", supports)
    else:
        monkeypatch.setattr(matmul, "_product_route", lambda *_args: route)
    for p in (3, 5, 7, 13, 31):
        ctx = shared_ctx(p)
        rng = seeded(40 + p)
        third = RatMatrix.identity(p).scale(Fraction(1, 3))
        pairs = [
            (random_layered(ctx, [0], 1) @ third, random_layered(ctx, [0, p - 2], 2)),
            (random_layered(ctx, [1], 3), random_layered(ctx, range(p - 1), 4) @ third),
            (rand_rational_matrix(p, rng), rand_rational_matrix(p, rng)),
            (RatMatrix.zeros(p), rand_rational_matrix(p, rng)),
        ]
        for A, B in pairs:
            product, report = det_mul(A, B)
            assert report.product == (route if any(map(any, A.nums)) else "direct")
            assert product == RatMatrix(p, fraction_product(A.rows, B.rows))


def test_the_rule_runs_at_most_once(monkeypatch):
    # on the scanned supports only, whatever the pair and the route: once
    # where both scans give a support, never where one does not (a dense
    # factor, T = 0 at p=7) or a factor is zero.  T is read off the real
    # rule, and no call is made after the pullbacks
    rule, bound = matmul._product_route, matmul._direct_bound
    calls = []
    monkeypatch.setattr(matmul, "_product_route", lambda *args: calls.append(args) or rule(*args))
    monkeypatch.setattr(matmul, "_direct_bound", lambda _rule, *args: bound(rule, *args))
    pairs = {case: pair() for case, pair in PAIRS.items()}
    for p in (7, 13, 61):
        ctx = shared_ctx(p)
        for s in (1, 3, p - 1):
            pairs[p, s] = random_layered(ctx, [1], p), random_layered(ctx, range(s), p + 1)
    counts = {}
    for case, (A, B) in pairs.items():
        calls.clear()
        det_mul(A, B)
        counts[case] = len(calls)
    assert set(counts.values()) == {0, 1}, counts


def test_collapsing_sumsets():
    for case, size in (("direct, s = t = 5", 5), ("rows, s = t = 10", 10)):
        f_a, f_b = (mat_to_skew(M) for M in PAIRS[case]())
        assert f_a.sparsity == f_b.sparsity == len(sumset(f_a, f_b)) == size


def test_over_one_reads_every_entry():
    M = layered(range(3), 17, 1)
    assert matmul._over_one(M)
    assert matmul._over_one(RatMatrix(P, M.rows))  # equal rows, distinct tuples
    assert not matmul._over_one(layered(range(3), 17, 2))
    last = [list(row) for row in M.rows]
    last[-1][-1] += Fraction(1, 3)
    assert not matmul._over_one(RatMatrix(P, last))
    assert matmul._over_one(RatMatrix.zeros(P)) and matmul._over_one(RatMatrix.identity(P))


def check_cell(s_a, s_b, t, p):
    # each cell is a pair's: t lies between the larger support and the
    # smaller of s_a s_b and p-1 (0 for a zero factor)
    assert (max(s_a, s_b) if s_a * s_b else 0) <= t <= min(s_a * s_b, p - 1)


@pytest.mark.parametrize("s_a, s_b, t, p, route", [
    # factors over 1: 3 (s_a s_b + t) (p + 8) <= 2 (p-1)^2.  Each p has its
    # last direct and first rows cell on bench's pairs (s_a = 1, t = s_b),
    # and up to p=7 only a zero factor is direct
    (0, 2, 0, 3, "direct"), (1, 1, 1, 3, "rows"), (2, 2, 2, 3, "rows"),
    (0, 4, 0, 5, "direct"), (1, 1, 1, 5, "rows"), (1, 2, 2, 5, "rows"),
    (0, 6, 0, 7, "direct"), (1, 1, 1, 7, "rows"),
    (1, 2, 2, 13, "direct"), (1, 3, 3, 13, "rows"),
    (3, 3, 3, 13, "rows"), (1, 9, 9, 13, "rows"), (1, 10, 10, 13, "rows"),
    (2, 5, 10, 13, "rows"), (1, 12, 12, 13, "rows"),
    (1, 7, 7, 31, "direct"), (1, 8, 8, 31, "rows"),
    (7, 8, 30, 31, "rows"), (2, 29, 30, 31, "rows"), (8, 8, 29, 31, "rows"),
    (1, 17, 17, 61, "direct"), (1, 18, 18, 61, "rows"),
    (15, 15, 15, 61, "rows"), (12, 12, 56, 61, "rows"), (15, 16, 60, 61, "rows"),
    (1, 39, 39, 127, "direct"), (1, 40, 40, 127, "rows"),
    (31, 32, 126, 127, "rows"), (21, 21, 21, 127, "rows"), (32, 32, 32, 127, "rows"),
    (42, 42, 42, 127, "rows"),
    # the workloads' pairs at p=31: det-sparse (t = 1, 2, 4) direct,
    # det-wide (t = 8, 12, 16) rows
    (1, 1, 1, 31, "direct"), (1, 2, 2, 31, "direct"), (1, 4, 4, 31, "direct"),
    (1, 12, 12, 31, "rows"), (1, 16, 16, 31, "rows"),
    # a one-term factor takes rows once the other is dense enough
    (16, 1, 16, 31, "rows"), (1, 30, 30, 31, "rows"), (1, 60, 60, 61, "rows"),
    (1, 42, 42, 127, "rows"),
    # t is read: the same s_a s_b takes either route by the sumset's size
    (4, 6, 9, 61, "direct"), (4, 6, 24, 61, "rows"),
    (5, 6, 15, 31, "rows"), (5, 5, 12, 31, "rows"), (5, 5, 13, 31, "rows"),
    (5, 5, 5, 31, "rows"), (10, 10, 10, 31, "rows"), (30, 30, 30, 31, "rows"),
    (30, 30, 30, 61, "rows"),
])
def test_the_rule(s_a, s_b, t, p, route):
    check_cell(s_a, s_b, t, p)
    assert _product_route(s_a, s_b, t, p, True) == route


@pytest.mark.parametrize("s_a, s_b, t, p, route", [
    # either factor over a denominator: 2 (s_a s_b + t) (p + 8) <= 2 (p-1)^2,
    # the last direct and first rows cell at each p, on bench's pairs
    (0, 2, 0, 3, "direct"), (1, 1, 1, 3, "rows"),
    (0, 4, 0, 5, "direct"), (1, 1, 1, 5, "rows"),
    (1, 1, 1, 7, "direct"), (1, 2, 2, 7, "rows"),
    (1, 3, 3, 13, "direct"), (1, 4, 4, 13, "rows"),
    (1, 11, 11, 31, "direct"), (1, 12, 12, 31, "rows"),
    (1, 26, 26, 61, "direct"), (1, 27, 27, 61, "rows"),
    (1, 58, 58, 127, "direct"), (1, 59, 59, 127, "rows"),
    # cli-rational's pair at p=31, and cells that go direct only with
    # denominators
    (1, 2, 2, 31, "direct"), (1, 8, 8, 31, "direct"), (3, 3, 7, 31, "direct"),
    (5, 6, 10, 61, "direct"), (5, 6, 30, 61, "rows"),
])
def test_the_rule_with_denominators(s_a, s_b, t, p, route):
    check_cell(s_a, s_b, t, p)
    assert _product_route(s_a, s_b, t, p, False) == route
