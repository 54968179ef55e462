"""det_mul's two routes: each is exact, and each is taken where the cost
model says.

det_mul decides its route once, on the scanned supports (_supports): the
direct product sp_mul(f_B, f_A) of the pullbacks ("direct") where the
whole-path cost model prices it at most the rows stage, from s_A, s_B, the
sumset size t, p, whether each factor is over 1 and the rows stage's slot
width, else the int product of all p-1 rows ("rows").  Pairs are built
with real denominators on both routes: layered pairs, pairs whose supports
are one subgroup of Z_(p-1), so that the sumset collapses to it, random
supports whose sumset nearly fills Z_(p-1) at p=31 and p=61, a dense pair,
a zero factor, and two pairs whose first factor fails det's certificate
and so take the rows stage.  On packed slots every pair at p=31 takes the
rows stage, so the direct pairs have entries past 64-bit slots.  Each
product must equal the Fraction triple loop of conftest, only the chosen
stage may run, the route is decided at most once, and nothing is
evaluated or interpolated: the paper's evaluation stage is mc_mul's alone.
"""

from fractions import Fraction

import pytest

from conftest import (certified_pullback, force_route, fraction_product, rand_rational_matrix,
                      seeded)
from skewmm import RatMatrix, det_mul, mat_to_skew, naive_mul, shared_ctx, sumset
from skewmm import matmul, skewpoly
from skewmm.multiply import RationalProduct
from skewmm.skewstructure import random_layered
from test_sparse_pullback import premature_stop_factor, vanishing_factor

P = 31
#: a coefficient bound whose products need slots past 64 bits
LONG = 2 ** 40


def layered(layers, seed, den, p=P, coeff_bound=9):
    return random_layered(shared_ctx(p), layers, seed, coeff_bound).scale(Fraction(1, den))


def long_partner(A):
    # a one-term partner whose entries make the rows stage loop past
    # 64-bit slots, so that the model sends the pair direct
    return A, random_layered(shared_ctx(A.p), [2], 1, 2 ** 64)


SUBGROUP_10 = range(0, 30, 3)

#: the route each pair must take, then what the pair is
PAIRS = {
    "direct": lambda: (layered([0], 1, 7, coeff_bound=LONG),
                       layered(range(4), 2, 2 ** 61 - 1, coeff_bound=LONG)),
    # supports on the subgroup of order 5 of Z_60
    "direct, s = t = 5": lambda: (layered(range(0, 60, 12), 3, 3 ** 40, p=61, coeff_bound=LONG),
                                  layered(range(0, 60, 12), 4, 5, p=61, coeff_bound=LONG)),
    "rows": lambda: (rand_rational_matrix(P, seeded(5)), rand_rational_matrix(P, seeded(6))),
    "rows, s = t = 10": lambda: (layered(SUBGROUP_10, 7, 2), layered(SUBGROUP_10, 8, 9)),
    "direct, layered": lambda: (layered([0, 1], 9, 3, coeff_bound=LONG),
                                layered(range(3), 10, 11, coeff_bound=LONG)),
    # s = 8 and t = 29 at p=31, and s = 12 and t = 56 at p=61 (the CLI's
    # gen with these layers and seeds): sumsets that nearly fill Z_(p-1),
    # where evaluation and interpolation took about 10x the stage taken
    "rows, random s = 8": lambda: (layered([0, 1, 3, 4, 12, 15, 21, 24], 12, 5),
                                   layered([3, 4, 7, 17, 22, 23, 24, 29], 13, 3)),
    "rows, random s = 12 at p=61": lambda: (
        layered([3, 4, 6, 9, 20, 23, 25, 34, 37, 41, 52, 55], 1, 1, p=61),
        layered([2, 4, 5, 13, 15, 26, 27, 32, 35, 54, 55, 58], 2, 1, p=61)),
    "direct, zero factor": lambda: (RatMatrix.zeros(P), rand_rational_matrix(P, seeded(14))),
    # one term times layers 0..8 (t = 9) over denominators: direct on 40-bit
    # coefficients, whose product loops past 64-bit slots; the same layers
    # over 1 with one-digit coefficients take the packed rows stage
    "direct, over denominators": lambda: (layered([0], 15, 7, coeff_bound=LONG),
                                          layered(range(9), 16, 2, coeff_bound=LONG)),
    "rows, the same layers over 1": lambda: (layered([0], 15, 1), layered(range(9), 16, 1)),
    # a first factor whose scanned support fails its certificate, so that
    # the pair takes the rows stage: a coefficient that vanishes mod the
    # scan's prime, and an early stop on a node outside the support; the
    # long partner makes the model send both pairs direct
    "rows, a vanishing coefficient": lambda: long_partner(vanishing_factor(P)),
    "rows, a premature early stop": lambda: long_partner(premature_stop_factor(P)),
    # one term times one on 2^64 coordinates: past 64-bit slots, but at
    # p=13 the model reaches no sparsity on the pair's 3 words
    "rows, 2^64 coordinates at p=13": lambda: (layered([0], 18, 7, p=13, coeff_bound=2 ** 64),
                                               layered([0], 19, 7, p=13, coeff_bound=2 ** 64)),
}

#: the PAIRS whose first factor's certificate fails
CERTIFICATE_FAILED = ("rows, a vanishing coefficient", "rows, a premature early stop")

#: the stage functions det_mul calls, by the route that calls them
STAGES = {"direct": ("sp_mul",), "rows": ("_product_of_rows",)}


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
    # naive's count on the rows stage, the same int product
    assert report.rational_mul_count == ((p - 1) ** 3 if route == "rows"
                                         else 2 * t_used * (p - 1) ** 2)


def model_supports(A, B):
    return matmul._supports(A, B, matmul._over_one(A), matmul._over_one(B),
                            RationalProduct(A.nums, A.dens, B.nums, B.dens))


@pytest.mark.parametrize("case", CERTIFICATE_FAILED)
def test_the_failed_certificates_fail(case):
    # the model sends the pair direct on its scanned supports, the first
    # factor is fitted on its support, and the candidate solved on it is
    # refused, so det_mul takes the rows stage
    A, B = PAIRS[case]()
    supports = model_supports(A, B)
    assert supports is not None
    assert matmul._fit_cost(len(supports[0]), A.p, True) <= matmul._mat_to_skew_cost(A.p, True)
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
        force_route(monkeypatch, route)
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
    # the route is decided once per product, in _supports, before any
    # pullback: never for a zero factor, and no price is read after the
    # first pullback, whatever the pair, the width and the route
    events = []

    def spy(name, real):
        def call(*args, **kwargs):
            events.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("_supports", "_direct_cost", "_pullback"):
        monkeypatch.setattr(matmul, name, spy(name, getattr(matmul, name)))
    pairs = {case: pair() for case, pair in PAIRS.items()}
    for p in (7, 13, 61):
        ctx = shared_ctx(p)
        for s in (1, 3, p - 1):
            for bound in (9, LONG):
                pairs[p, s, bound] = (random_layered(ctx, [1], p, bound),
                                      random_layered(ctx, range(s), p + 1, bound))
    decided = set()
    for case, (A, B) in pairs.items():
        events.clear()
        det_mul(A, B)
        decided.add(events.count("_supports"))
        if "_pullback" in events:
            assert "_direct_cost" not in events[events.index("_pullback"):], case
    assert decided == {0, 1}


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


def picks(s_a, s_b, t, p, over_one, words):
    """The model's route for supports of sizes s_a, s_b and sumset size t,
    both factors over 1 or both not, for the rows stage's width `words`
    (matmul._words: 0 for packed slots): direct where both supports lie
    within the reach, so that the scans find them, and the route then
    costs at most the rows stage."""
    reach = matmul._reach(p, over_one, over_one, words)
    pays = (matmul._direct_cost(p, over_one, over_one, s_a, s_b, t, words)
            <= matmul._rows_cost(p, over_one, words))
    return "direct" if max(s_a, s_b) <= reach and pays else "rows"


def check_replaced_rule_cell(s_a, s_b, t, p, route, over_one):
    """A cell of the stage rule the whole-path model replaced, with that
    rule's pick `route`.  The stage rule compared the product stages alone;
    the model adds the scans and the pullbacks to the direct route, so a
    cell the stage rule sent to rows stays on rows on packed slots.  Past
    64-bit slots the rows stage is cubic_multiply's loop: a cell the stage
    rule sent direct goes direct on entries of 1024-bit coefficients (33
    words a product entry).  A zero factor is zero up front, reported
    direct, with no model."""
    check_cell(s_a, s_b, t, p)
    if not s_a * s_b:
        ctx = shared_ctx(p)
        zero, B = RatMatrix.zeros(p), random_layered(ctx, range(s_b), p)
        assert det_mul(zero, B)[1].product == route == "direct"
    elif route == "rows":
        assert picks(s_a, s_b, t, p, over_one, 0) == "rows"
    else:
        assert picks(s_a, s_b, t, p, over_one, 33) == "direct"


@pytest.mark.parametrize("s_a, s_b, t, p, route", [
    # the stage rule over 1: 3 (s_a s_b + t) (p + 8) <= 2 (p-1)^2.  Each p
    # has its last direct and first rows cell on bench's pairs (s_a = 1,
    # t = s_b), and up to p=7 only a zero factor was direct
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
    # a one-term factor took rows once the other was dense enough
    (16, 1, 16, 31, "rows"), (1, 30, 30, 31, "rows"), (1, 60, 60, 61, "rows"),
    (1, 42, 42, 127, "rows"),
    # t was read: the same s_a s_b took either route by the sumset's size
    (4, 6, 9, 61, "direct"), (4, 6, 24, 61, "rows"),
    (5, 6, 15, 31, "rows"), (5, 5, 12, 31, "rows"), (5, 5, 13, 31, "rows"),
    (5, 5, 5, 31, "rows"), (10, 10, 10, 31, "rows"), (30, 30, 30, 31, "rows"),
    (30, 30, 30, 61, "rows"),
])
def test_the_rule(s_a, s_b, t, p, route):
    check_replaced_rule_cell(s_a, s_b, t, p, route, True)


@pytest.mark.parametrize("s_a, s_b, t, p, route", [
    # the stage rule with either factor over a denominator:
    # 2 (s_a s_b + t) (p + 8) <= 2 (p-1)^2, its last direct and first rows
    # cell at each p on bench's pairs
    (0, 2, 0, 3, "direct"), (1, 1, 1, 3, "rows"),
    (0, 4, 0, 5, "direct"), (1, 1, 1, 5, "rows"),
    (1, 2, 2, 7, "rows"),
    (1, 3, 3, 13, "direct"), (1, 4, 4, 13, "rows"),
    (1, 11, 11, 31, "direct"), (1, 12, 12, 31, "rows"),
    (1, 26, 26, 61, "direct"), (1, 27, 27, 61, "rows"),
    (1, 58, 58, 127, "direct"), (1, 59, 59, 127, "rows"),
    # cli-rational's pair at p=31, and cells that went direct only with
    # denominators
    (1, 2, 2, 31, "direct"), (1, 8, 8, 31, "direct"), (3, 3, 7, 31, "direct"),
    (5, 6, 10, 61, "direct"), (5, 6, 30, 61, "rows"),
])
def test_the_rule_with_denominators(s_a, s_b, t, p, route):
    check_replaced_rule_cell(s_a, s_b, t, p, route, False)


@pytest.mark.parametrize("p, s_a, s_b, t, words, over_1, over_den", [
    # packed slots (words 0): no pair at p <= 31, one-term partners up to
    # t = 3 at p=61 and 8 at p=127, further there over denominators, whose
    # rows stage costs about 2.3 times as much
    (13, 1, 1, 1, 0, "rows", "rows"), (31, 1, 1, 1, 0, "rows", "rows"),
    (31, 1, 2, 2, 0, "rows", "rows"), (61, 1, 2, 2, 0, "direct", "direct"),
    (61, 1, 3, 3, 0, "direct", "direct"), (61, 1, 4, 4, 0, "rows", "rows"),
    (61, 2, 2, 3, 0, "direct", "direct"), (61, 2, 3, 4, 0, "rows", "direct"),
    (127, 1, 8, 8, 0, "direct", "direct"), (127, 1, 9, 9, 0, "rows", "direct"),
    (127, 1, 12, 12, 0, "rows", "direct"), (127, 1, 13, 13, 0, "rows", "rows"),
    (127, 2, 4, 5, 0, "direct", "direct"), (127, 4, 6, 9, 0, "rows", "direct"),
    # past 64-bit slots the rows stage loops: at the edge (2 words) the
    # route wins from p=31 on, at p=13 only on longer entries, and at
    # every p the sumset still matters
    (13, 1, 1, 1, 2, "rows", "rows"), (13, 1, 1, 1, 17, "direct", "direct"),
    (13, 1, 4, 4, 33, "direct", "direct"), (13, 1, 8, 8, 33, "rows", "rows"),
    (31, 1, 1, 1, 2, "direct", "direct"), (31, 1, 14, 14, 2, "direct", "direct"),
    (31, 5, 5, 12, 2, "direct", "direct"), (31, 8, 8, 29, 2, "rows", "rows"),
    (61, 1, 8, 8, 2, "direct", "direct"), (61, 12, 12, 56, 2, "direct", "direct"),
    (61, 15, 16, 60, 2, "rows", "rows"),
    # one term times one on 2^64 coordinates (3 words): rows up to p=13
    (5, 1, 1, 1, 3, "rows", "rows"), (7, 1, 1, 1, 3, "rows", "rows"),
    (11, 1, 1, 1, 3, "rows", "rows"), (13, 1, 1, 1, 3, "rows", "rows"),
])
def test_the_model(p, s_a, s_b, t, words, over_1, over_den):
    check_cell(s_a, s_b, t, p)
    assert picks(s_a, s_b, t, p, True, words) == over_1
    assert picks(s_a, s_b, t, p, False, words) == over_den
