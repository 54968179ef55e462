"""Multiplication algorithms: oracle, deterministic, verification, Monte Carlo."""

import pytest

from conftest import rand_matrix, rand_poly, rand_rational_matrix, seeded
from skewmm import (Algorithm, FreivaldsResult, RatMatrix, SkewPoly,
                    batch_evaluate_via_matrices, det_mul, freivalds,
                    from_normal_coords, mat_to_skew, mc_mul, naive_mul,
                    random_layered, rounds_for, shared_ctx, skew_to_mat, sumset)
from skewmm.matmul import _over_one, _scans


def geometric_matrix(ctx, k):
    return skew_to_mat(SkewPoly(ctx, {e: ctx.one for e in range(k + 1)}))


def one_minus_x_matrix(ctx):
    return skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: -ctx.one}))


# ---------------------------------------------------------------------------
# schoolbook oracle
# ---------------------------------------------------------------------------

def test_naive_identity_and_zero():
    rng = seeded(0)
    B = rand_matrix(7, rng)
    assert naive_mul(RatMatrix.identity(7), B) == B
    assert naive_mul(B, RatMatrix.zeros(7)) == RatMatrix.zeros(7)


def test_naive_hand_product_p3():
    A = RatMatrix(3, [[1, 2], [3, 4]])
    B = RatMatrix(3, [[5, -6], [7, 8]])
    assert naive_mul(A, B) == RatMatrix(3, [[19, 10], [43, 14]])


def test_naive_dimension_mismatch():
    with pytest.raises(ValueError):
        naive_mul(RatMatrix.identity(5), RatMatrix.identity(7))


# ---------------------------------------------------------------------------
# deterministic algorithm
# ---------------------------------------------------------------------------

def test_det_identity():
    product, report = det_mul(RatMatrix.identity(7), RatMatrix.identity(7))
    assert product == RatMatrix.identity(7)
    assert report.t_used == 1
    assert report.algorithm is Algorithm.DETERMINISTIC


def test_det_zero_operand():
    rng = seeded(2)
    A = rand_matrix(5, rng)
    product, report = det_mul(A, RatMatrix.zeros(5))
    assert product == RatMatrix.zeros(5)
    assert report.t_used == 0


def test_det_matches_oracle_dense_and_layered():
    for p in (3, 5, 7, 11, 13):
        ctx = shared_ctx(p)
        rng = seeded(100 + p)
        for _ in range(4):
            A = rand_matrix(p, rng)
            B = rand_rational_matrix(p, rng)
            product, report = det_mul(A, B)
            assert product == naive_mul(A, B)
            t = len(sumset(mat_to_skew(A), mat_to_skew(B)))
            assert report.t_used == (p - 1 if t and _scans(A, B, _over_one(A), _over_one(B))
                                     is None else t)
            assert report.t_used <= p - 1
        layers_a = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
        layers_b = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
        A = random_layered(ctx, layers_a, rng.getrandbits(32))
        B = random_layered(ctx, layers_b, rng.getrandbits(32))
        product, report = det_mul(A, B)
        assert product == naive_mul(A, B)
        expected_t = len({(i + k) % (p - 1) for i in layers_a for k in layers_b})
        assert report.t_used == (p - 1 if _scans(A, B, _over_one(A), _over_one(B)) is None
                                 else expected_t)


def test_det_layer_zero_pair_uses_one_point():
    ctx = shared_ctx(7)
    A = random_layered(ctx, {0}, 5)
    B = random_layered(ctx, {0}, 6)
    product, report = det_mul(A, B)
    assert report.t_used == 1
    assert product == naive_mul(A, B)


def test_det_cancellation_family():
    # matrices of 1 - x and 1 + x + ... + x^k: the product polynomial has
    # sparsity 2 but the sumset bound forces k + 2 evaluation points.  B's
    # k + 1 terms are more than the direct stage takes at p=13 (2), so the
    # density guard forms the product under the full support
    ctx = shared_ctx(13)
    for k in (3, 9):
        A = one_minus_x_matrix(ctx)
        B = geometric_matrix(ctx, k)
        product, report = det_mul(A, B)
        assert product == naive_mul(A, B)
        assert len(sumset(mat_to_skew(A), mat_to_skew(B))) == k + 2
        assert report.t_used == 12


def test_det_at_full_support_reads_the_product_off_the_rows(monkeypatch):
    # at t = p-1 the values at v_1^1 .. v_1^(p-1) are the product's rows:
    # nothing is interpolated or pushed forward
    from skewmm import matmul, skewpoly

    def forbidden(*_args, **_kwargs):
        raise AssertionError("dense det interpolated or pushed forward")

    monkeypatch.setattr(skewpoly, "interpolate_known_support", forbidden)
    monkeypatch.setattr(matmul, "skew_to_mat", forbidden)
    for p in (3, 13, 31):
        rng = seeded(500 + p)
        A = rand_rational_matrix(p, rng)
        B = rand_matrix(p, rng)
        product, report = det_mul(A, B)
        assert product == naive_mul(A, B)
        assert report.t_used == p - 1
        assert report.rational_mul_count == 2 * (p - 1) ** 3


def test_products_do_not_consult_the_orientation_probe(monkeypatch):
    # the value at v_1^l is row q(l) of A*B whichever order the ring product
    # is written in, so neither algorithm needs the composition order
    from skewmm import matmul, transform

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the orientation probe was consulted")

    monkeypatch.setattr(transform, "phi_orientation", forbidden)
    monkeypatch.setattr(matmul, "phi_orientation", forbidden, raising=False)
    for p in (3, 7, 13):
        ctx = shared_ctx(p)
        rng = seeded(530 + p)
        sparse = [skew_to_mat(rand_poly(ctx, rng, t, den_bound=7)) for t in (1, 2, 1)]
        pairs = [(rand_rational_matrix(p, rng), rand_rational_matrix(p, rng)),
                 (sparse[0], sparse[1]), (sparse[1], sparse[2]),
                 (one_minus_x_matrix(ctx), geometric_matrix(ctx, p - 2))]
        for A, B in pairs:
            want = naive_mul(A, B)
            assert det_mul(A, B)[0] == want
            assert mc_mul(A, B, "1/20", p)[0] == want
            values = batch_evaluate_via_matrices(ctx, range(1, p), A, B)
            assert values == [from_normal_coords(ctx, (A @ B).rows[ctx.q(l) - 1])
                              for l in range(1, p)]


def test_det_evaluation_count_scales_linearly():
    # nominal count of the cubic kernel: 2 * t_used * (p-1)^2, where t_used
    # is the sumset size t, or p-1 past t = 2, where the density guard
    # takes the rows stage with no pullback
    p = 13
    ctx = shared_ctx(p)
    counts = {}
    t_used = {1: 1, 2: 2, 4: 12, 8: 12}
    for t in t_used:
        A = random_layered(ctx, {0}, 21)
        B = random_layered(ctx, set(range(t)), 22)
        _, report = det_mul(A, B)
        assert len(sumset(mat_to_skew(A), mat_to_skew(B))) == t
        assert report.t_used == t_used[t]
        counts[t] = report.rational_mul_count
    assert all(counts[t] == 2 * t_used[t] * (p - 1) ** 2 for t in counts)


# ---------------------------------------------------------------------------
# randomized verification
# ---------------------------------------------------------------------------

def test_rounds_for():
    assert rounds_for("1/2") == 1
    assert rounds_for("0.01") == 7
    assert rounds_for("1/8") == 3
    assert rounds_for("1/10") == 4
    with pytest.raises(ValueError):
        rounds_for("0")
    with pytest.raises(ValueError):
        rounds_for("1")


def test_freivalds_accepts_true_product():
    rng = seeded(11)
    A = rand_matrix(7, rng)
    B = rand_matrix(7, rng)
    M = naive_mul(A, B)
    for seed in range(25):
        assert freivalds(M, A, B, "1/100", seed) is FreivaldsResult.EQUAL


def test_freivalds_single_entry_error_rejection_rate():
    rng = seeded(12)
    A = rand_matrix(7, rng)
    B = rand_matrix(7, rng)
    M = naive_mul(A, B)
    rows = [list(r) for r in M.rows]
    rows[2][3] += 1
    bad = RatMatrix(7, rows)
    rejections = sum(freivalds(bad, A, B, "1/2", seed) is FreivaldsResult.NOT_EQUAL
                     for seed in range(400))
    # one-round rejection probability is at least 1/2; allow 3 sigma of slack
    assert rejections / 400 >= 0.5 - 3 * (0.25 / 400) ** 0.5


def test_freivalds_matches_the_matrix_vector_definition():
    # M y and B y are taken as sums of the columns y picks; the verdict must
    # be the one full products by the same y give, round by round
    import random

    def by_definition(M, A, B, mu, seed):
        n = A.p - 1
        rng = random.Random(seed)
        for _ in range(rounds_for(mu)):
            word = rng.getrandbits(n)
            y = [(word >> (n - 1 - j)) & 1 for j in range(n)]
            mat_vec = lambda rows, v: [sum(a * b for a, b in zip(row, v)) for row in rows]
            if mat_vec(M.rows, y) != mat_vec(A.rows, mat_vec(B.rows, y)):
                return FreivaldsResult.NOT_EQUAL
        return FreivaldsResult.EQUAL

    rng = seeded(13)
    A = rand_rational_matrix(7, rng)
    B = rand_rational_matrix(7, rng)
    M = naive_mul(A, B)
    for i, j in ((0, 0), (2, 3), (5, 5)):
        rows = [list(r) for r in M.rows]
        rows[i][j] += 1
        for bad in (RatMatrix(7, rows), M):
            for seed in range(40):
                assert freivalds(bad, A, B, "1/4", seed) is by_definition(bad, A, B, "1/4", seed)


def test_freivalds_validation():
    A = RatMatrix.identity(5)
    with pytest.raises(ValueError):
        freivalds(A, A, RatMatrix.identity(7), "1/2", 0)
    with pytest.raises(ValueError):
        freivalds(A, A, A, "3/2", 0)
    with pytest.raises(ValueError):
        freivalds(A, A, A, "1/2", -1)
    with pytest.raises(ValueError):
        freivalds(A, A, A, "1/2", 2 ** 64)


# ---------------------------------------------------------------------------
# Monte Carlo algorithm
# ---------------------------------------------------------------------------

def test_mc_identity_first_round():
    product, report = mc_mul(RatMatrix.identity(7), RatMatrix.identity(7), "1/10", 3)
    assert product == RatMatrix.identity(7)
    assert report.final_T == 1
    assert report.iterations == 1
    assert report.t_used == 1
    assert not report.fallback


def test_mc_matches_oracle():
    for p in (5, 7, 11):
        rng = seeded(200 + p)
        for _ in range(3):
            A = rand_matrix(p, rng)
            B = rand_matrix(p, rng)
            product, report = mc_mul(A, B, "1/20", rng.getrandbits(32))
            assert product == naive_mul(A, B)
            assert not report.fallback


def test_mc_final_bound_stays_below_twice_sparsity():
    for p in (7, 11):
        rng = seeded(300 + p)
        for _ in range(5):
            A = rand_matrix(p, rng)
            B = rand_matrix(p, rng)
            product, report = mc_mul(A, B, "1/20", rng.getrandbits(32))
            true_t = mat_to_skew(product).sparsity
            assert true_t >= 1
            assert report.final_T < 2 * true_t
            assert report.t_used == true_t


def test_mc_cancellation_family_stops_at_two():
    ctx = shared_ctx(13)
    A = one_minus_x_matrix(ctx)
    B = geometric_matrix(ctx, 9)
    product, report = mc_mul(A, B, "1/20", 9)
    assert product == naive_mul(A, B)
    assert report.final_T == 2
    assert report.iterations == 2
    assert report.t_used == 2


def test_mc_seed_determinism():
    rng = seeded(400)
    A = rand_matrix(7, rng)
    B = rand_matrix(7, rng)
    p1, r1 = mc_mul(A, B, "1/20", 1234)
    p2, r2 = mc_mul(A, B, "1/20", 1234)
    assert p1 == p2
    strip = lambda r: r._replace(wall_time=0.0)
    assert strip(r1) == strip(r2)


def test_mc_smallest_prime():
    # p = 3 has cap 2 and a single-round verification budget
    rng = seeded(333)
    for _ in range(5):
        A = rand_matrix(3, rng)
        B = rand_matrix(3, rng)
        product, report = mc_mul(A, B, "1/10", rng.getrandbits(32))
        assert product == naive_mul(A, B)
        assert report.final_T <= 2


def test_mc_dense_at_p31_reads_the_product_off_the_rows():
    # T = 16 is the first bound with 2T >= 30: the direct round evaluates the
    # rows not yet held and takes them as the product, so each of the 30
    # rows is evaluated exactly once
    ctx = shared_ctx(31)
    A = random_layered(ctx, set(range(30)), 31)
    B = random_layered(ctx, set(range(30)), 32)
    product, report = mc_mul(A, B, "1/20", 33)
    assert product == naive_mul(A, B)
    assert not report.fallback
    assert report.final_T == 16
    assert report.iterations == 5
    assert report.rational_mul_count == 2 * 30 * 30 ** 2
    assert report.t_used == mat_to_skew(product).sparsity


@pytest.mark.parametrize("p, t, seed", [(7, 1, 41), (13, 2, 42), (13, 3, 43), (31, 5, 44)])
def test_mc_counts_the_values_it_evaluated_below_the_direct_round(p, t, seed):
    # an accepted round below the direct one holds the values at v_1^1 ..
    # v_1^(2 final_T); each is charged 2 (p-1)^2, as det charges its t points
    ctx = shared_ctx(p)
    A = random_layered(ctx, {0}, seed)
    B = random_layered(ctx, set(range(t)), seed + 1)
    product, report = mc_mul(A, B, "1/20", seed + 2)
    assert product == naive_mul(A, B)
    assert 2 * report.final_T < p - 1
    assert report.rational_mul_count == 2 * min(2 * report.final_T, p - 1) * (p - 1) ** 2


def test_mc_falls_back_loudly_when_verification_always_fails(monkeypatch):
    from skewmm import matmul

    monkeypatch.setattr(matmul, "freivalds", lambda *_args: FreivaldsResult.NOT_EQUAL)
    for p in (3, 7, 13):
        rng = seeded(600 + p)
        A = rand_rational_matrix(p, rng)
        B = rand_matrix(p, rng)
        product, report = mc_mul(A, B, "1/20", 7)
        assert product == naive_mul(A, B)
        assert report.fallback
        assert report.t_used == 0
        assert 2 * report.final_T >= p - 1 > report.final_T


def test_mc_validation():
    A = RatMatrix.identity(5)
    with pytest.raises(ValueError):
        mc_mul(A, A, "0", 1)
    with pytest.raises(ValueError):
        mc_mul(A, A, "1/2", -5)
    with pytest.raises(ValueError):
        mc_mul(A, RatMatrix.identity(7), "1/2", 1)
