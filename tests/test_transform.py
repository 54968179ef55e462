"""Matrix/polynomial correspondence tests: basis matrices, both transforms,
and the orientation probe."""

import pytest

from conftest import rand_matrix, rand_poly, rand_rational_matrix, seeded
from skewmm import (Orientation, RatMatrix, SkewPoly, build_V, build_W,
                    cyc_add, cyc_mul, cyc_scale, from_normal_coords,
                    mat_to_skew, phi_orientation, shared_ctx, skew_to_mat,
                    sp_add, sp_mul)
from skewmm.rational import Rat
from skewmm.skewstructure import build_X


# ---------------------------------------------------------------------------
# RatMatrix plumbing
# ---------------------------------------------------------------------------

def test_ratmatrix_validation():
    with pytest.raises(ValueError):
        RatMatrix(5, [[1, 2], [3, 4]])       # wrong dimension
    with pytest.raises(TypeError):
        RatMatrix(3, [[0.5, 0], [0, 0]])     # floats rejected
    with pytest.raises(ValueError):
        RatMatrix(2, [[1]])


def test_ratmatrix_ops():
    a = RatMatrix(3, [[1, 2], [3, 4]])
    b = RatMatrix(3, [[0, 1], [1, 0]])
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a - b).rows == ((1, 1), (2, 4))
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert a.scale(Rat(1, 2)).rows == ((Rat(1, 2), 1), (Rat(3, 2), 2))
    assert a.transpose().rows == ((1, 3), (2, 4))
    with pytest.raises(ValueError):
        a @ RatMatrix.identity(5)


# ---------------------------------------------------------------------------
# the V / W pair
# ---------------------------------------------------------------------------

def field_matrix_product(ctx, m1, m2):
    n = ctx.p - 1
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ctx.zero
            for k in range(n):
                acc = cyc_add(acc, cyc_mul(m1[i][k], m2[k][j]))
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_vw_is_p_times_identity(p):
    ctx = shared_ctx(p)
    prod = field_matrix_product(ctx, build_V(ctx), build_W(ctx))
    for i in range(p - 1):
        for j in range(p - 1):
            want = cyc_scale(ctx.one, p) if i == j else ctx.zero
            assert prod[i][j] == want


def test_w_entries_are_reciprocal_translates():
    # 1/v_i - 1 = beta^(p - r^(i-1) mod p) - 1
    for p in (5, 11):
        ctx = shared_ctx(p)
        W = build_W(ctx)
        n = p - 1
        for i in range(n):
            for j in range(n):
                u = ctx.pow_r[(i + j) % n]
                assert W[i][j] == ctx.beta_power(p - u) - ctx.one
                assert cyc_mul(ctx.beta_power(u), W[i][j] + ctx.one) == ctx.one


# ---------------------------------------------------------------------------
# matrix -> polynomial
# ---------------------------------------------------------------------------

def test_identity_maps_to_constant_one():
    for p in (3, 7, 11):
        assert mat_to_skew(RatMatrix.identity(p)) == SkewPoly.one(shared_ctx(p))


def test_shift_matrix_maps_to_x():
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        assert mat_to_skew(build_X(ctx)) == SkewPoly.monomial(ctx, 1)


def test_roundtrip_matrix_to_poly_to_matrix():
    for p in (3, 5, 7, 11):
        rng = seeded(10 + p)
        for _ in range(6):
            C = rand_matrix(p, rng)
            assert skew_to_mat(mat_to_skew(C)) == C
        C = rand_rational_matrix(p, rng)
        assert skew_to_mat(mat_to_skew(C)) == C


def test_roundtrip_poly_to_matrix_to_poly():
    for p in (3, 5, 7, 11):
        ctx = shared_ctx(p)
        rng = seeded(20 + p)
        for _ in range(6):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            assert mat_to_skew(skew_to_mat(f)) == f


def test_zero_matrix_and_zero_poly():
    p = 7
    ctx = shared_ctx(p)
    assert mat_to_skew(RatMatrix.zeros(p)) == SkewPoly.zero(ctx)
    assert skew_to_mat(SkewPoly.zero(ctx)) == RatMatrix.zeros(p)


# ---------------------------------------------------------------------------
# polynomial -> matrix
# ---------------------------------------------------------------------------

def test_constant_one_maps_to_identity():
    for p in (3, 7):
        ctx = shared_ctx(p)
        assert skew_to_mat(SkewPoly.one(ctx)) == RatMatrix.identity(p)


def test_x_maps_to_shift_matrix():
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        assert skew_to_mat(SkewPoly.monomial(ctx, 1)) == build_X(ctx)


def test_p3_beta_matrix():
    ctx = shared_ctx(3)
    f = SkewPoly(ctx, {0: ctx.beta_power(1)})
    assert skew_to_mat(f) == RatMatrix(3, [[0, 1], [-1, -1]])


# ---------------------------------------------------------------------------
# structural identities of the correspondence
# ---------------------------------------------------------------------------

def test_translate_relation():
    # the matrix C of a polynomial satisfies V mu = C v, as field vectors
    for p in (5, 7):
        ctx = shared_ctx(p)
        rng = seeded(30 + p)
        n = p - 1
        C = rand_matrix(p, rng)
        f = mat_to_skew(C)
        mu = [f.terms.get(e, ctx.zero) for e in range(n)]
        V = build_V(ctx)
        left = [ctx.zero] * n
        for i in range(n):
            for j in range(n):
                left[i] = cyc_add(left[i], cyc_mul(V[i][j], mu[j]))
        right = [from_normal_coords(ctx, row) for row in C.rows]
        assert left == right


def test_linearity():
    for p in (5, 11):
        ctx = shared_ctx(p)
        rng = seeded(40 + p)
        f = rand_poly(ctx, rng, 3)
        g = rand_poly(ctx, rng, 4)
        assert skew_to_mat(sp_add(f, g)) == skew_to_mat(f) + skew_to_mat(g)
        c = Rat(rng.randint(1, 9), rng.randint(1, 9))
        scaled = SkewPoly(ctx, {e: cyc_scale(coeff, c) for e, coeff in f.terms.items()})
        assert skew_to_mat(scaled) == skew_to_mat(f).scale(c)
        A = rand_matrix(p, rng)
        B = rand_matrix(p, rng)
        assert mat_to_skew(A + B) == sp_add(mat_to_skew(A), mat_to_skew(B))


def test_multiplicativity_in_probed_orientation():
    for p in (3, 5, 7, 11):
        ctx = shared_ctx(p)
        ori = phi_orientation(ctx)
        rng = seeded(50 + p)
        for _ in range(6):
            f = rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = rand_poly(ctx, rng, rng.randint(1, p - 1))
            mf, mg = skew_to_mat(f), skew_to_mat(g)
            expected = mg @ mf if ori is Orientation.REVERSED else mf @ mg
            assert skew_to_mat(sp_mul(f, g)) == expected


def test_rational_polynomials_are_circulants():
    for p in (5, 7):
        ctx = shared_ctx(p)
        rng = seeded(60 + p)
        n = p - 1
        coeffs = [Rat(rng.randint(-9, 9)) for _ in range(n)]
        f = SkewPoly(ctx, {e: cyc_scale(ctx.one, c) for e, c in enumerate(coeffs) if c})
        M = skew_to_mat(f)
        for i in range(n):
            for j in range(n):
                assert M.rows[i][j] == M.rows[(i + 1) % n][(j + 1) % n]
        # and conversely a circulant pulls back to rational coefficients
        g = mat_to_skew(M)
        for coeff in g.terms.values():
            first = coeff.coords[0]
            assert all(c == first for c in coeff.coords)  # rational multiples of 1
        assert g == f


# ---------------------------------------------------------------------------
# orientation probe
# ---------------------------------------------------------------------------

def test_orientation_consistent_across_primes():
    values = {phi_orientation(shared_ctx(p)) for p in (3, 5, 7, 13, 31)}
    assert len(values) == 1


def test_orientation_probe_is_decisive():
    # the probe pair does not commute, so exactly one ordering matches
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        f = SkewPoly.monomial(ctx, 1)
        g = SkewPoly.monomial(ctx, 2, ctx.beta_power(1))
        mf, mg = skew_to_mat(f), skew_to_mat(g)
        mh = skew_to_mat(sp_mul(f, g))
        matches = [mh == mf @ mg, mh == mg @ mf]
        assert matches.count(True) == 1


def test_commuting_probes_satisfy_both_orders():
    # circulants commute, so rational-coefficient polynomials cannot orient
    ctx = shared_ctx(7)
    f = SkewPoly(ctx, {0: ctx.one, 1: cyc_scale(ctx.one, 2)})
    g = SkewPoly(ctx, {2: ctx.one, 3: cyc_scale(ctx.one, -5)})
    mf, mg = skew_to_mat(f), skew_to_mat(g)
    mh = skew_to_mat(sp_mul(f, g))
    assert mh == mf @ mg
    assert mh == mg @ mf


def test_dimension_mismatch():
    ctx = shared_ctx(5)
    with pytest.raises(ValueError):
        mat_to_skew(RatMatrix.identity(7), ctx)


def test_ratmatrix_refuses_composite_p():
    for p in (4, 9):
        n = p - 1
        with pytest.raises(ValueError, match="odd prime"):
            RatMatrix.identity(p)
        with pytest.raises(ValueError, match="odd prime"):
            RatMatrix.zeros(p)
        with pytest.raises(ValueError, match="odd prime"):
            RatMatrix(p, [[i * n + j for j in range(n)] for i in range(n)])
