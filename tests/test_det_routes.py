"""det_mul's three product stages: each is exact, and each is taken where
the rule says.

After the two pullbacks, det_mul forms the product polynomial by the direct
product sp_mul(f_B, f_A) ("direct"), by evaluation and known-support
interpolation on the sumset ("evaluate"), or as the int product of all
p-1 rows ("rows").  Pairs are built at p=31, with real denominators: a
layered pair (direct), pairs whose supports are one subgroup of Z_30, so
that the sumset collapses to it (evaluate), and a dense pair and a layered
pair whose sumset is all of Z_30 (rows).  Each product must equal the
Fraction triple loop of conftest, and only the chosen stage may run.
"""

from fractions import Fraction

import pytest

from conftest import fraction_product, rand_rational_matrix, seeded
from skewmm import RatMatrix, det_mul, mat_to_skew, naive_mul, shared_ctx, sumset
from skewmm import matmul
from skewmm.matmul import _product_route
from skewmm.skewstructure import random_layered

P = 31


def layered(layers, seed, den):
    return random_layered(shared_ctx(P), layers, seed).scale(Fraction(1, den))


SUBGROUP_5 = range(0, 30, 6)
SUBGROUP_10 = range(0, 30, 3)

PAIRS = {
    "direct": lambda: (layered([0], 1, 7), layered(range(4), 2, 2 ** 61 - 1)),
    "evaluate": lambda: (layered(SUBGROUP_5, 3, 3 ** 40), layered(SUBGROUP_5, 4, 5)),
    "rows": lambda: (rand_rational_matrix(P, seeded(5)), rand_rational_matrix(P, seeded(6))),
    "evaluate, s = t = 10": lambda: (layered(SUBGROUP_10, 7, 2), layered(SUBGROUP_10, 8, 9)),
    "rows, layered": lambda: (layered(SUBGROUP_10, 9, 3), layered(range(3), 10, 11)),
}

#: the stage functions det_mul calls, by the route that calls them
STAGES = {"direct": ("sp_mul",),
          "evaluate": ("batch_evaluate_via_matrices", "interpolate_known_support"),
          "rows": ("product_matrix",)}


@pytest.mark.parametrize("case", PAIRS)
def test_each_route_equals_the_fraction_product(case, monkeypatch):
    route = case.split(",")[0]
    A, B = PAIRS[case]()

    def forbidden(*_args, **_kwargs):
        raise AssertionError(f"the {route} route ran another route's stage")

    for other, names in STAGES.items():
        if other != route:
            for name in names:
                monkeypatch.setattr(matmul, name, forbidden)
    product, report = det_mul(A, B)
    monkeypatch.undo()

    assert report.product == route
    assert product == RatMatrix(P, fraction_product(A.rows, B.rows)) == naive_mul(A, B)
    ctx = shared_ctx(P)
    t = len(sumset(mat_to_skew(A, ctx), mat_to_skew(B, ctx)))
    assert report.t_used == t
    assert report.rational_mul_count == 2 * t * (P - 1) ** 2


@pytest.mark.parametrize("route", ("direct", "evaluate", "rows"))
def test_every_route_is_exact_at_every_prime(route, monkeypatch):
    # forced past the rule, each route must still give the product, on
    # layered, full-support, dense and zero pairs with denominators
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
            assert report.product == route
            assert product == RatMatrix(p, fraction_product(A.rows, B.rows))


def test_collapsing_sumsets():
    ctx = shared_ctx(P)
    for case, size in (("evaluate", 5), ("evaluate, s = t = 10", 10)):
        f_a, f_b = (mat_to_skew(M, ctx) for M in PAIRS[case]())
        assert f_a.sparsity == f_b.sparsity == len(sumset(f_a, f_b)) == size


@pytest.mark.parametrize("s_a, s_b, t, p, route", [
    # t = p-1: the product's rows are all its values
    (30, 30, 30, 31, "rows"), (1, 30, 30, 31, "rows"), (1, 12, 12, 13, "rows"),
    (2, 2, 2, 3, "rows"), (1, 60, 60, 61, "rows"),
    # a one-term factor: s_a s_b = t
    (1, 1, 1, 31, "direct"), (1, 16, 16, 31, "direct"), (16, 1, 16, 31, "direct"),
    (1, 42, 42, 127, "direct"),
    # at the bound s_a s_b = 2 t and just past it
    (5, 6, 15, 31, "direct"), (5, 5, 12, 31, "evaluate"), (5, 5, 13, 31, "direct"),
    # supports on one subgroup: the sumset is as large as each support
    (5, 5, 5, 31, "evaluate"), (10, 10, 10, 31, "evaluate"), (30, 30, 30, 61, "evaluate"),
])
def test_the_rule(s_a, s_b, t, p, route):
    assert _product_route(s_a, s_b, t, p) == route
