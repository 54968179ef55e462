"""Generators X and Y, layers, closed row forms and the layer-0 templates."""

import pytest

from conftest import rand_matrix, seeded, solve_square
from skewmm import (RatMatrix, SkewPoly, antidiag_perm, build_AB_perm, build_P,
                    build_Q, build_X, build_Y, l0_characterization_check,
                    layer_basis_elem, naive_mul, random_layered,
                    det_mul, shared_ctx, shift_rows_up, skew_sparsity,
                    skew_to_mat, y_power_row)
from skewmm.rational import Rat


def explicit_powers(M, count):
    """I, M, M^2, ..., M^count by repeated schoolbook products (oracle)."""
    powers = [RatMatrix.identity(M.p)]
    for _ in range(count):
        powers.append(naive_mul(powers[-1], M))
    return powers


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_x_is_cyclic_up_shift():
    X = build_X(shared_ctx(5))
    assert X.rows == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    rng = seeded(3)
    A = rand_matrix(5, rng)
    shifted = naive_mul(X, A)
    assert shifted.rows == A.rows[1:] + A.rows[:1]


def test_y_p3_example():
    assert build_Y(shared_ctx(3)) == RatMatrix(3, [[0, 1], [-1, -1]])


def test_generators_match_transform_images():
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        assert skew_to_mat(SkewPoly.monomial(ctx, 1)) == build_X(ctx)
        assert skew_to_mat(SkewPoly(ctx, {0: ctx.beta_power(1)})) == build_Y(ctx)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_sum_of_y_powers_is_minus_identity(p):
    ctx = shared_ctx(p)
    powers = explicit_powers(build_Y(ctx), p - 1)
    total = RatMatrix.zeros(p)
    for j in range(1, p):
        total = total + powers[j]
    assert total == RatMatrix.identity(p).scale(-1)


# ---------------------------------------------------------------------------
# closed row form of Y powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_y_power_rows_match_explicit_powers(p):
    ctx = shared_ctx(p)
    powers = explicit_powers(build_Y(ctx), p - 1)
    for j in range(p):
        for i in range(1, p):
            assert y_power_row(ctx, j, i) == powers[j].rows[ctx.s(i) - 1]


def test_y_power_diagonal_rows_are_all_minus_one():
    ctx = shared_ctx(7)
    for i in range(1, 7):
        assert set(y_power_row(ctx, i, i)) == {-1}


def test_y_power_row_j_zero_consistency():
    # row s(i) of the identity is E_s(i); the closed form gives E_q(p-i)
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        for i in range(1, p):
            assert ctx.q(p - i) == ctx.s(i)
            row = y_power_row(ctx, 0, i)
            assert row[ctx.s(i) - 1] == 1 and sum(map(abs, row)) == 1


def test_y_power_row_validation():
    ctx = shared_ctx(5)
    with pytest.raises(ValueError):
        y_power_row(ctx, 5, 1)
    with pytest.raises(ValueError):
        y_power_row(ctx, 1, 0)


# ---------------------------------------------------------------------------
# P / Q templates
# ---------------------------------------------------------------------------

def test_p7_templates_match_displayed_form():
    c = [Rat(k) for k in (1, 2, 3, 4, 5, 6)]  # c_1..c_6
    P = build_P(c)
    Q = build_Q(c)
    assert P.rows == (
        (0, 6, 5, 4, 3, 2),
        (1, 0, 6, 5, 4, 3),
        (2, 1, 0, 6, 5, 4),
        (3, 2, 1, 0, 6, 5),
        (4, 3, 2, 1, 0, 6),
        (5, 4, 3, 2, 1, 0),
    )
    assert Q.rows == tuple((k,) * 6 for k in (1, 2, 3, 4, 5, 6))


def test_q_has_rank_at_most_one():
    # every row is constant, so every row is a multiple of the all-ones row
    rng = seeded(5)
    for p in (5, 7):
        c = [rng.randint(-9, 9) for _ in range(p - 1)]
        assert all(len(set(row)) == 1 for row in build_Q(c).rows)


def test_p_of_zero_is_zero():
    assert build_P([0] * 6) == RatMatrix.zeros(7)


def test_p_is_toeplitz_with_zero_diagonal():
    rng = seeded(6)
    c = [rng.randint(-9, 9) for _ in range(10)]
    P = build_P(c)
    n = 10
    for i in range(n):
        assert P.rows[i][i] == 0
        for j in range(n):
            if i + 1 < n and j + 1 < n:
                assert P.rows[i][j] == P.rows[i + 1][j + 1]


# ---------------------------------------------------------------------------
# the permutation pair A, B
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_ab_product_is_antidiagonal_corner(p):
    ctx = shared_ctx(p)
    A, B = build_AB_perm(ctx)
    product = naive_mul(A, B)
    for i in range(1, p):
        for j in range(1, p):
            expected = 1 if (i + j) % p == 0 else 0
            assert product.rows[i - 1][j - 1] == expected
    assert product == antidiag_perm(p)


def test_ab_are_permutation_matrices():
    for p in (5, 11):
        A, B = build_AB_perm(shared_ctx(p))
        for M in (A, B):
            for row in M.rows:
                assert sum(row) == 1 and sum(map(abs, row)) == 1
            for col in zip(*M.rows):
                assert sum(col) == 1 and sum(map(abs, col)) == 1


def test_ab_p3_example():
    A, _ = build_AB_perm(shared_ctx(3))
    assert A == RatMatrix(3, [[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

def test_layer_basis_matches_explicit_products():
    for p in (3, 5):
        ctx = shared_ctx(p)
        X = build_X(ctx)
        Y = build_Y(ctx)
        xi = RatMatrix.identity(p)
        for i in range(p - 1):
            yj = RatMatrix.identity(p)
            for j in range(1, p):
                yj = naive_mul(yj, Y)
                assert layer_basis_elem(ctx, i, j) == naive_mul(xi, yj)
            xi = naive_mul(xi, X)


def test_layer_basis_matches_transform_of_monomials():
    # X^i Y^j is the matrix of the monomial beta^j x^i (transform oracle)
    for p in (3, 5, 7):
        ctx = shared_ctx(p)
        for i in range(p - 1):
            for j in range(1, p):
                monomial = SkewPoly(ctx, {i: ctx.beta_power(j)})
                assert layer_basis_elem(ctx, i, j) == skew_to_mat(monomial)


def test_x_has_multiplicative_order_p_minus_one():
    for p in (5, 7):
        ctx = shared_ctx(p)
        X = build_X(ctx)
        powers = explicit_powers(X, p - 1)
        assert powers[p - 1] == RatMatrix.identity(p)
        assert all(powers[i] != RatMatrix.identity(p) for i in range(1, p - 1))
        # shifting rows by the full cycle is a no-op
        Y = build_Y(ctx)
        assert shift_rows_up(Y, p - 1) == Y


@pytest.mark.parametrize("p", [3, 5])
def test_layer_basis_spans_full_matrix_space(p):
    ctx = shared_ctx(p)
    n = p - 1
    vectors = []
    for i in range(n):
        for j in range(1, p):
            M = layer_basis_elem(ctx, i, j)
            vectors.append([M.rows[a][b] for a in range(n) for b in range(n)])
    # n*n vectors in an n*n-dimensional space span it exactly when the square
    # system they form is nonsingular (solve_square raises otherwise)
    target = list(range(1, n * n + 1))
    coeffs = solve_square([list(col) for col in zip(*vectors)], target)
    assert [sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(n * n)] == target


@pytest.mark.parametrize("p", [3, 5])
def test_layer_membership_via_basis_expansion(p):
    # expanding any matrix in the X^i Y^j basis uses exactly the layers that
    # skew_sparsity reports
    ctx = shared_ctx(p)
    n = p - 1
    basis = []
    labels = []
    for i in range(n):
        for j in range(1, p):
            M = layer_basis_elem(ctx, i, j)
            basis.append([M.rows[a][b] for a in range(n) for b in range(n)])
            labels.append(i)
    columns = [list(col) for col in zip(*basis)]
    rng = seeded(70 + p)
    for _ in range(4):
        C = rand_matrix(p, rng)
        target = [C.rows[a][b] for a in range(n) for b in range(n)]
        coeffs = solve_square(columns, target)
        used_layers = {labels[idx] for idx, c in enumerate(coeffs) if c}
        sparsity, support = skew_sparsity(C)
        assert used_layers == set(support)
        assert sparsity == len(used_layers)


# ---------------------------------------------------------------------------
# skew-sparsity and layered generation
# ---------------------------------------------------------------------------

def test_skew_sparsity_examples():
    ctx = shared_ctx(7)
    assert skew_sparsity(RatMatrix.identity(7)) == (1, {0})
    assert skew_sparsity(RatMatrix.zeros(7)) == (0, set())
    X = build_X(ctx)
    X3 = naive_mul(naive_mul(X, X), X)
    assert skew_sparsity(X3) == (1, {3})


def test_skew_sparsity_dense_random():
    rng = seeded(8)
    for p in (5, 7):
        sparsity, support = skew_sparsity(rand_matrix(p, rng))
        assert sparsity == p - 1 and support == set(range(p - 1))


def test_random_layered_support_and_determinism():
    ctx = shared_ctx(7)
    M1 = random_layered(ctx, {0, 2}, 42)
    M2 = random_layered(ctx, {0, 2}, 42)
    assert M1 == M2
    assert skew_sparsity(M1) == (2, {0, 2})
    assert random_layered(ctx, {0, 2}, 43) != M1


def test_random_layered_det_mul_sumset():
    # direct at p=61, where short entries can go direct
    ctx = shared_ctx(61)
    A = random_layered(ctx, {0, 2}, 1)
    B = random_layered(ctx, {1}, 2)
    product, report = det_mul(A, B)
    assert report.t_used == 2  # {0,2} + {1} = {1,3}
    assert product == naive_mul(A, B)


def test_random_layered_validation():
    ctx = shared_ctx(7)
    with pytest.raises(ValueError):
        random_layered(ctx, set(), 1)
    with pytest.raises(ValueError):
        random_layered(ctx, {6}, 1)
    with pytest.raises(ValueError):
        random_layered(ctx, {0}, 1, coeff_bound=0)


def test_random_layered_coeff_range():
    from skewmm import mat_to_skew

    ctx = shared_ctx(5)
    M = random_layered(ctx, {0, 1, 2, 3}, 9, coeff_bound=1)
    f = mat_to_skew(M)
    assert set(f.terms) == {0, 1, 2, 3}
    for coeff in f.terms.values():
        assert all(-1 <= x <= 1 and x.denominator == 1 for x in coeff.coords)
        assert any(coeff.coords)


# ---------------------------------------------------------------------------
# layer-0 characterization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_l0_identity_random(p):
    ctx = shared_ctx(p)
    rng = seeded(90 + p)
    for _ in range(6):
        c = [rng.randint(-9, 9) for _ in range(p - 1)]
        lhs, rhs = l0_characterization_check(ctx, c)
        assert lhs == rhs


def test_l0_identity_zero():
    ctx = shared_ctx(5)
    lhs, rhs = l0_characterization_check(ctx, [0, 0, 0, 0])
    assert lhs == rhs == RatMatrix.zeros(5)


def test_l0_conjugation_side():
    # the closed form conjugates by A with the inverse on the left
    for p in (5, 7):
        ctx = shared_ctx(p)
        rng = seeded(100 + p)
        c = [rng.randint(-9, 9) for _ in range(p - 1)]
        A, _ = build_AB_perm(ctx)
        At = A.transpose()
        assert naive_mul(A, At) == RatMatrix.identity(p)
        M = skew_to_mat(SkewPoly(ctx, {0: ctx.elem(c)}))
        PQ = build_P(c) - build_Q(c)
        assert At @ PQ @ A == M
        assert not (A @ PQ @ At == M)


def test_l0_shift_realizes_higher_layers():
    # a layer-i matrix is a layer-0 matrix with rows rotated by i
    ctx = shared_ctx(7)
    rng = seeded(111)
    coeffs = ctx.elem([rng.randint(-9, 9) for _ in range(6)])
    for i in range(6):
        M0 = skew_to_mat(SkewPoly(ctx, {0: coeffs}))
        Mi = skew_to_mat(SkewPoly(ctx, {i: coeffs}))
        assert Mi == shift_rows_up(M0, i)
        assert skew_sparsity(Mi) == (1, {i})


def test_l0_check_validation():
    ctx = shared_ctx(5)
    with pytest.raises(ValueError):
        l0_characterization_check(ctx, [1, 2, 3])
