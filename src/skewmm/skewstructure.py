"""Structure theory of skew-sparsity: generators, layers, and certificates.

The matrix algebra is generated by two explicit matrices: X, the cyclic
row-shift (the image of the indeterminate x), and Y, the image of the root
of unity beta.  The products X^i Y^j with 0 <= i <= p-2 and 1 <= j <= p-1
form a basis, and the span of {X^i Y^j : j} is the i-th layer L_i; a matrix
lies in the sum of the layers indexed by the support of its polynomial
pullback (mat_to_skew), which is what "skew-sparsity" counts.

Layer 0 (the image of the ground field) has a closed form: conjugates of a
zero-diagonal Toeplitz template minus a rank-one template, with the
conjugating matrices assembled from the context's index permutations.  The
check functions here compute both sides of that identity exactly.
"""

from __future__ import annotations

import random

from .cyclotomic import CycCtx
from .rational import Rat, as_rat
from .skewpoly import SkewPoly, SupportSet
from .transform import RatMatrix, mat_to_skew, skew_to_mat

_ZERO = Rat(0)
_ONE = Rat(1)
_NEG_ONE = Rat(-1)


def _unit_row(n: int, col: int) -> tuple:
    """E_col: all zeros except a 1 in (1-based) column col."""
    return (_ZERO,) * (col - 1) + (_ONE,) + (_ZERO,) * (n - col)


def build_X(ctx: CycCtx) -> RatMatrix:
    """Cyclic up-shift permutation: ones on the superdiagonal and the
    lower-left corner.  Left-multiplying by X shifts rows up by one."""
    n = ctx.p - 1
    rows = [_unit_row(n, i + 2) for i in range(n - 1)]
    rows.append(_unit_row(n, 1))
    return RatMatrix(ctx.p, rows)


def build_Y(ctx: CycCtx) -> RatMatrix:
    """The matrix of multiplication by beta in the normal basis.

    Row j is the unit row picking the index m with r^(m-1) = r^(j-1) + 1
    (mod p); the exceptional row k_idx, where that sum vanishes mod p, is
    the all-minus-ones row J.
    """
    p = ctx.p
    n = p - 1
    rows = []
    for j in range(1, p):
        if j == ctx.k_idx:
            rows.append((_NEG_ONE,) * n)
        else:
            rows.append(_unit_row(n, ctx.q((ctx.pow_r[j - 1] + 1) % p)))
    return RatMatrix(p, rows)


def y_power_row(ctx: CycCtx, j: int, i: int) -> tuple:
    """Row s(i) of Y^j without computing the power.

    The row is E_q(j-i) when j > i, E_q(p+j-i) when j < i, and J when
    j = i; q's argument always lands in {1..p-1}.
    """
    p = ctx.p
    n = p - 1
    if not 1 <= i <= p - 1:
        raise ValueError(f"row selector i must be in 1..{p - 1}, got {i}")
    if not 0 <= j <= p - 1:
        raise ValueError(f"power j must be in 0..{p - 1}, got {j}")
    d = j - i
    if d == 0:
        return (_NEG_ONE,) * n
    return _unit_row(n, ctx.q(d if d > 0 else p + d))


def build_P(coeffs) -> RatMatrix:
    """Zero-diagonal Toeplitz template: entry (i, j) is c_((i-j) mod p)."""
    c = [as_rat(v) for v in coeffs]
    p = len(c) + 1
    rows = []
    for i in range(1, p):
        rows.append(tuple(_ZERO if i == j else c[(i - j) % p - 1] for j in range(1, p)))
    return RatMatrix(p, rows)


def build_Q(coeffs) -> RatMatrix:
    """Rank-one template: row i is constantly c_i."""
    c = [as_rat(v) for v in coeffs]
    p = len(c) + 1
    return RatMatrix(p, [(c[i],) * (p - 1) for i in range(p - 1)])


def antidiag_perm(p: int) -> RatMatrix:
    """The involution with entry (i, j) = 1 exactly when p divides i + j."""
    n = p - 1
    return RatMatrix(p, [_unit_row(n, n - i) for i in range(n)])


def build_AB_perm(ctx: CycCtx) -> tuple[RatMatrix, RatMatrix]:
    """The permutation pair (A, B): A has rows E_s(i), B has columns E_q(i).

    Their product is antidiag_perm(p).
    """
    p = ctx.p
    n = p - 1
    a_rows = [_unit_row(n, ctx.s(i)) for i in range(1, p)]
    b_rows = [[_ZERO] * n for _ in range(n)]
    for j in range(1, p):
        b_rows[ctx.q(j) - 1][j - 1] = _ONE
    return RatMatrix(p, a_rows), RatMatrix(p, b_rows)


def shift_rows_up(M: RatMatrix, i: int) -> RatMatrix:
    """Cyclically shift rows up by i: row k of the result is row k+i of M.

    This is left multiplication by X^i, realizing layer L_i from L_0.
    """
    n = M.p - 1
    i %= n
    return RatMatrix(M.p, [M.rows[(k + i) % n] for k in range(n)])


def layer_basis_elem(ctx: CycCtx, i: int, j: int) -> RatMatrix:
    """X^i Y^j, assembled from the closed-form rows of Y^j plus a row shift.

    No general matrix product is taken: every row of Y^j is known via
    y_power_row, and the X^i factor only rotates rows.
    """
    p = ctx.p
    if not 0 <= i <= p - 2:
        raise ValueError(f"shift index i must be in 0..{p - 2}, got {i}")
    if not 1 <= j <= p - 1:
        raise ValueError(f"power j must be in 1..{p - 1}, got {j}")
    s_inv = [0] * p  # s_inv[s(i)] = i
    for idx in range(1, p):
        s_inv[ctx.s(idx)] = idx
    y_rows = [y_power_row(ctx, j, s_inv[row]) for row in range(1, p)]
    return shift_rows_up(RatMatrix(p, y_rows), i)


def skew_sparsity(C: RatMatrix) -> tuple[int, SupportSet]:
    """(number of layers, layer index set) of C via the polynomial pullback."""
    f = mat_to_skew(C)
    return f.sparsity, f.support()


def random_layered(ctx: CycCtx, layers, seed: int, coeff_bound: int = 9) -> RatMatrix:
    """Seeded random matrix lying in exactly the given layers.

    Each layer gets a coefficient with integer power-basis coordinates drawn
    uniformly from [-coeff_bound, coeff_bound], resampled if all vanish, so
    skew_sparsity of the result reports exactly (len(layers), layers).
    Small coordinates keep rational bit growth bounded in benchmarks.
    """
    n = ctx.p - 1
    exps = sorted(set(layers))
    if not exps:
        raise ValueError("layer set must be nonempty")
    if any(not isinstance(e, int) or not 0 <= e <= n - 1 for e in exps):
        raise ValueError(f"layer indices must lie in 0..{n - 1}")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    rng = random.Random(seed)
    terms = {}
    for e in exps:
        coords = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
        while not any(coords):
            coords = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
        terms[e] = ctx.elem(coords)
    return skew_to_mat(SkewPoly(ctx, terms))


def l0_characterization_check(ctx: CycCtx, coeffs) -> tuple[RatMatrix, RatMatrix]:
    """Both sides of layer-0's closed form, for exact comparison.

    Left: A * (matrix of the ground-field element sum c_j beta^j) * B.
    Right: (P(c) - Q(c)) * antidiag.  The two always agree; callers compare.
    """
    c = [as_rat(v) for v in coeffs]
    if len(c) != ctx.p - 1:
        raise ValueError(f"expected {ctx.p - 1} coefficients, got {len(c)}")
    A, B = build_AB_perm(ctx)
    const_poly = SkewPoly(ctx, {0: ctx.elem(c)})
    lhs = A @ skew_to_mat(const_poly) @ B
    rhs = (build_P(c) - build_Q(c)) @ antidiag_perm(ctx.p)
    return lhs, rhs
