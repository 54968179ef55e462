"""Multiplication algorithms: oracle, deterministic, verification, Monte Carlo."""

import random
from fractions import Fraction

import pytest

from conftest import rand_matrix, rand_poly, rand_rational_matrix, seeded
from skewmm import (Algorithm, FreivaldsResult, RatMatrix, SkewPoly, det_mul, freivalds,
                    mat_to_skew, mc_mul, naive_mul, random_layered, rounds_for, shared_ctx,
                    skew_to_mat, sumset)


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
    # one term each: direct at p=61, the least prime where a short-entry
    # pair can be
    product, report = det_mul(RatMatrix.identity(61), RatMatrix.identity(61))
    assert product == RatMatrix.identity(61)
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
            assert report.t_used == (p - 1 if report.product == "rows" else t)
            assert report.t_used <= p - 1
        layers_a = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
        layers_b = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
        A = random_layered(ctx, layers_a, rng.getrandbits(32))
        B = random_layered(ctx, layers_b, rng.getrandbits(32))
        product, report = det_mul(A, B)
        assert product == naive_mul(A, B)
        expected_t = len({(i + k) % (p - 1) for i in layers_a for k in layers_b})
        assert report.t_used == (p - 1 if report.product == "rows" else expected_t)


def test_det_layer_zero_pair_uses_one_point():
    ctx = shared_ctx(61)
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
        assert report.rational_mul_count == (p - 1) ** 3


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


def test_det_evaluation_count_scales_linearly():
    # nominal count of the direct route: 2 * t * (p-1)^2 for the sumset
    # size t; past t = 3 at p=61 the density guard takes the rows stage
    # with no pullback, charged as naive's (p-1)^3
    p = 61
    ctx = shared_ctx(p)
    counts = {}
    t_used = {1: 1, 2: 2, 4: 60, 8: 60}
    for t in t_used:
        A = random_layered(ctx, {0}, 21)
        B = random_layered(ctx, set(range(t)), 22)
        _, report = det_mul(A, B)
        assert len(sumset(mat_to_skew(A), mat_to_skew(B))) == t
        assert report.t_used == t_used[t]
        counts[t] = report.rational_mul_count
    assert all(counts[t] == (2 * t * (p - 1) ** 2 if t_used[t] == t else (p - 1) ** 3)
               for t in counts)


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
    # the scan's Berlekamp-Massey length never exceeds the product's
    # sparsity; dense products outgrow the scan's bound (p-2)//2 and are
    # assembled from all p-1 rows, reported as t_used = p-1
    for p in (7, 11):
        rng = seeded(300 + p)
        for _ in range(5):
            A = rand_matrix(p, rng)
            B = rand_matrix(p, rng)
            product, report = mc_mul(A, B, "1/20", rng.getrandbits(32))
            true_t = mat_to_skew(product).sparsity
            assert true_t > (p - 2) // 2
            assert (p - 2) // 2 < report.final_T <= true_t
            assert (report.t_used, report.iterations) == (p - 1, 1)


def test_mc_cancellation_family_stops_at_two():
    ctx = shared_ctx(13)
    A = one_minus_x_matrix(ctx)
    B = geometric_matrix(ctx, 9)
    product, report = mc_mul(A, B, "1/20", 9)
    assert product == naive_mul(A, B)
    assert report.final_T == 2
    assert report.iterations == 1
    assert report.t_used == 2
    assert report.rational_mul_count == 2 * 5 * 12 ** 2  # 2t + 1 rows


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
    # p = 3: the scan's bound is 0, so it reads one row, which stops it only
    # if it is zero; a nonzero product is assembled from both rows
    rng = seeded(333)
    for _ in range(5):
        A = rand_matrix(3, rng)
        B = rand_matrix(3, rng)
        product, report = mc_mul(A, B, "1/10", rng.getrandbits(32))
        assert product == naive_mul(A, B)
        assert report.final_T <= 1
        assert report.t_used == (2 if product != RatMatrix.zeros(3) else 0)


def test_mc_dense_at_p31_reads_the_product_off_the_rows():
    # the scan's length passes its bound 14 after 29 rows, so it ends with
    # None: the one row not yet held is computed, and the 30 rows are the
    # product, checked once; each row is computed exactly once
    ctx = shared_ctx(31)
    A = random_layered(ctx, set(range(30)), 31)
    B = random_layered(ctx, set(range(30)), 32)
    product, report = mc_mul(A, B, "1/20", 33)
    assert product == naive_mul(A, B)
    assert not report.fallback
    assert report.final_T == 15
    assert report.iterations == 1
    assert report.rational_mul_count == 2 * 30 * 30 ** 2
    assert report.t_used == 30


@pytest.mark.parametrize("p, t, seed", [(7, 1, 41), (13, 2, 42), (13, 3, 43), (31, 5, 44)])
def test_mc_counts_the_values_it_evaluated_below_the_direct_round(p, t, seed):
    # an accepted candidate of t terms stops the scan after the rows at
    # v_1^1 .. v_1^(2t+1); each row is charged 2 (p-1)^2, as det charges
    # its t points
    ctx = shared_ctx(p)
    A = random_layered(ctx, {0}, seed)
    B = random_layered(ctx, set(range(t)), seed + 1)
    product, report = mc_mul(A, B, "1/20", seed + 2)
    assert product == naive_mul(A, B)
    assert (report.final_T, report.t_used, report.iterations) == (t, t, 1)
    assert report.rational_mul_count == 2 * (2 * t + 1) * (p - 1) ** 2


def premature_stop_pair(p, seed):
    """(A, I): A with random rational entries except row q(1), which is
    zero.  Row q(1) of A*I = A is the product's value at beta, so mc's scan
    stops at once, with length 0, on a product that is not zero."""
    A = rand_rational_matrix(p, seeded(seed))
    rows = [list(row) for row in A.rows]
    rows[shared_ctx(p).q(1) - 1] = [0] * (p - 1)
    return RatMatrix(p, rows), RatMatrix.identity(p)


def never_called(*_args):
    raise AssertionError("mc_mul checks on ints, never through freivalds")


@pytest.mark.parametrize("p", (3, 7, 13, 31))
def test_mc_rejects_the_candidate_of_a_premature_stop(monkeypatch, p):
    # the fit of the stop's empty support, the zero polynomial, passes on
    # the one row read; its check rejects it, and mc computes the other
    # rows and returns the exact product after a second check
    from skewmm import matmul

    A, B = premature_stop_pair(p, 710 + p)
    want = naive_mul(A, B)
    assert want == A != RatMatrix.zeros(p)
    checked = []
    real = matmul._freivalds_on_ints

    def check(M, *args):
        checked.append((M == RatMatrix.zeros(p), real(M, *args)))
        return checked[-1][1]

    monkeypatch.setattr(matmul, "_freivalds_on_ints", check)
    monkeypatch.setattr(matmul, "freivalds", never_called)
    product, report = mc_mul(A, B, "1/1000", 5)
    assert product == want
    assert checked == [(True, FreivaldsResult.NOT_EQUAL), (False, FreivaldsResult.EQUAL)]
    assert (report.iterations, report.fallback, report.final_T, report.t_used) == (2, False, 0,
                                                                                  p - 1)
    assert report.rational_mul_count == 2 * (p - 1) ** 3


def bench_pair(p, t, seed, coeff_bound=9):
    """`skewmm bench`'s cell (p, t, seed): a one-term factor, layers 0..t-1,
    and the mc seed, drawn from the cell's folded master seed."""
    ctx = shared_ctx(p)
    master = random.Random((seed * 2 ** 32 + p * 1024 + t * 8) % 2 ** 64)
    A = random_layered(ctx, [0], master.getrandbits(64), coeff_bound)
    B = random_layered(ctx, list(range(t)), master.getrandbits(64), coeff_bound)
    return A, B, master.getrandbits(64)


@pytest.mark.parametrize("p, ts", [(13, (1, 2, 4, 8, 12)), (31, (1, 2, 4, 8, 16, 30))])
def test_mc_computes_each_row_once_packs_b_once_and_checks_at_most_twice(monkeypatch, p, ts):
    # on bench's pairs: at most two checks, each at mu = nu; at most p-1
    # product rows, none twice, and the count charges each; one row kernel,
    # whose B is packed once, one word per row
    from skewmm import matmul, multiply

    real_check, real_product = matmul._freivalds_on_ints, matmul.rational_product
    real_kernel, real_word = multiply.int_rows, multiply._signed_word
    checks, rows_read, kernels, words = [], [], [], []

    def check(M, A, B, mu, seed):
        checks.append(mu)
        return real_check(M, A, B, mu, seed)

    def product(*args):
        d, e, rows = real_product(*args)

        def counted(indices):
            indices = list(indices)
            rows_read.extend(indices)
            return rows(indices)

        return d, e, counted

    def kernel(x_rows, y_rows, *bits):
        kernels.append(len(y_rows))
        return real_kernel(x_rows, y_rows, *bits)

    def word(values, size):
        words.append(len(values))
        return real_word(values, size)

    nu = Fraction(1, 20)
    for t in ts:
        for seed in (1, 2):
            A, B, mc_seed = bench_pair(p, t, seed)
            want = naive_mul(A, B)
            for module, name, spy in ((matmul, "_freivalds_on_ints", check),
                                      (matmul, "freivalds", never_called),
                                      (matmul, "rational_product", product),
                                      (multiply, "int_rows", kernel),
                                      (multiply, "_signed_word", word)):
                monkeypatch.setattr(module, name, spy)
            got, report = mc_mul(A, B, nu, mc_seed)
            monkeypatch.undo()
            assert got == want and not report.fallback
            assert checks == [nu] * report.iterations and report.iterations <= 2
            assert len(rows_read) == len(set(rows_read)) <= p - 1
            assert report.rational_mul_count == 2 * len(rows_read) * (p - 1) ** 2
            assert kernels == [p - 1] and words == [p - 1] * (p - 1)
            for spied in (checks, rows_read, kernels, words):
                spied.clear()


def test_mc_falls_back_loudly_when_verification_always_fails(monkeypatch):
    from skewmm import matmul

    monkeypatch.setattr(matmul, "_freivalds_on_ints", lambda *_args: FreivaldsResult.NOT_EQUAL)
    monkeypatch.setattr(matmul, "freivalds", never_called)
    for p in (3, 7, 13):
        rng = seeded(600 + p)
        A = rand_rational_matrix(p, rng)
        B = rand_matrix(p, rng)
        product, report = mc_mul(A, B, "1/20", 7)
        assert product == naive_mul(A, B)
        assert report.fallback
        assert report.t_used == 0
        # the dense product passes the scan's bound: no candidate, one check
        assert report.final_T > (p - 2) // 2
        assert report.iterations == 1


def test_mc_validation():
    A = RatMatrix.identity(5)
    with pytest.raises(ValueError):
        mc_mul(A, A, "0", 1)
    with pytest.raises(ValueError):
        mc_mul(A, A, "1/2", -5)
    with pytest.raises(ValueError):
        mc_mul(A, RatMatrix.identity(7), "1/2", 1)
