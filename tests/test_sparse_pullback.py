"""Sparse interpolation from a matrix's rows.

Row q(l) of a matrix is the normal-coordinate vector of its map's value at
beta^l, so the rows, read in the order l = 1..p-1, are the values that
sparse_interpolate takes.  A matrix whose first 2T rows are those of a
sparse matrix, with a later row changed, yields a candidate that the exact
check (skewpoly._agrees) must reject on the remaining rows; mat_to_skew and
det must still be exact on it.  Bounds are fixed per prime: T = 5 at p=31
lets candidates of several terms meet the check, T = 1 at p=61.
"""

import pytest

from conftest import seeded
from skewmm import (RatMatrix, SkewPoly, det_mul, from_normal_coords, mat_to_skew,
                    naive_mul, shared_ctx, sparse_interpolate)
from skewmm.rational import Rat
from skewmm.skewpoly import _agrees
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
        assert _agrees(f, range(1, p), values)
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
        assert _agrees(f, range(1, p), old)
        assert not _agrees(f, range(2 * bound + 1, p), values[2 * bound:])
        assert mat_to_skew(M, ctx).sparsity > bound
        assert_products_exact(M, ctx, rng)
