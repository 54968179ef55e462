"""Shared helpers: seeded random field elements, polynomials and matrices."""

import random
from fractions import Fraction

import pytest

from skewmm import CycElem, RatMatrix, SkewPoly, matmul, shared_ctx, skewpoly


def rand_elem(ctx, rng, bound=9, den_bound=1):
    """Random element, never the zero element; integer coordinates unless
    den_bound > 1, when each gets a denominator drawn from 1..den_bound."""
    coords = [rng.randint(-bound, bound) for _ in range(ctx.p - 1)]
    if not any(coords):
        coords[rng.randrange(ctx.p - 1)] = rng.choice([-1, 1])
    if den_bound > 1:
        from skewmm.rational import Rat

        coords = [Rat(c, rng.randint(1, den_bound)) for c in coords]
    return ctx.elem(coords)


def rand_poly(ctx, rng, sparsity, bound=9, den_bound=1):
    """Random polynomial with exactly the given sparsity."""
    if sparsity == 0:
        return SkewPoly.zero(ctx)
    exps = rng.sample(range(ctx.p - 1), sparsity)
    return SkewPoly(ctx, {e: rand_elem(ctx, rng, bound, den_bound) for e in exps})


def rand_matrix(p, rng, bound=9):
    """Dense random integer matrix."""
    n = p - 1
    return RatMatrix(p, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def rand_rational_matrix(p, rng, bound=9, den_bound=7):
    """Dense random matrix with non-trivial denominators."""
    from skewmm.rational import Rat

    n = p - 1
    return RatMatrix(p, [[Rat(rng.randint(-bound, bound), rng.randint(1, den_bound))
                          for _ in range(n)] for _ in range(n)])


def seeded(seed):
    return random.Random(seed)


def solve_square(matrix, rhs):
    """Solve M x = rhs over the rationals by Gaussian elimination; raises
    ZeroDivisionError when M is singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(matrix, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def fraction_product(a_rows, b_rows):
    """The product of two row-major matrices as a plain Fraction triple loop,
    written apart from the package's int kernel so that it can check it."""
    n, k = len(b_rows), len(b_rows[0])
    out = []
    for row in a_rows:
        out_row = []
        for j in range(k):
            acc = Fraction(0)
            for i in range(n):
                acc += Fraction(row[i]) * Fraction(b_rows[i][j])
            out_row.append(acc)
        out.append(out_row)
    return out


#: the primes at which the packed kernels' width edges are tested
EDGE_PRIMES = (3, 5, 7, 13, 31, 61, 127)


def least_width(value):
    """The least of 1, 2, 4 or 8 bytes whose slots hold value < 2^w, or
    None."""
    return next((k for k in (1, 2, 4, 8) if value < 2 ** (8 * k)), None)


def aligned_matrix(ctx, bound, sign=1):
    """An int matrix with max|entry| = bound whose pullback's coefficient 0
    holds sign (3 (p-1) - 1) bound at beta^(p-1) before reduction, within
    `bound` of the far end of the corrected range [-3 (p-1) M, 3 (p-1) M]:
    row k holds sign*bound at power coordinate x + u and -sign*bound at u
    and at x, for x = p-1 and u = r^k, the three entries W's rotation and
    its two corrections pick (the one row with x + u = 0 mod p loses the
    first)."""
    p = ctx.p
    x = p - 1
    rows = []
    for k in range(p - 1):
        u = ctx.pow_r[k]
        power = [0] * p
        power[x] = power[u] = -sign * bound
        power[(x + u) % p] = sign * bound
        rows.append(ctx.to_normal(power[1:]))
    return RatMatrix(p, rows)


def aligned_poly(ctx, bounds, sign=1):
    """A polynomial of len(bounds) < p-1 terms, term e's coefficient with
    max|entry| = bounds[e], whose value at beta^1 holds sign * 2 sum(bounds)
    at beta^x, the end of the range [-2 S, 2 S] the pushforward's
    coordinates lie in: x is not r^e for any term, and term e holds
    sign*bounds[e] at power coordinate x - r^e and -sign*bounds[e] at
    -r^e, which its rotation by r^e moves to beta^x and beta^0."""
    p = ctx.p
    shifts = [ctx.pow_r[e] for e in range(len(bounds))]
    x = next(y for y in range(1, p) if y not in shifts)
    terms = {}
    for e, (s, m) in enumerate(zip(shifts, bounds)):
        power = [0] * p
        power[(x - s) % p] = sign * m
        power[-s % p] = -sign * m
        terms[e] = CycElem(ctx, power[1:])
    return SkewPoly(ctx, terms)


def transposed_vandermonde_solve(values, exps, p):
    """The coefficients c_e, e in exps, with sum_e c_e beta^(l r^e) =
    values[l-1] for l = 1..t, t = len(exps): each value and each c_e as
    its p-1 power coordinates (beta^1 .. beta^(p-1)) in Fractions.

    Written apart from the package: multiplication by beta^k moves
    coordinate i to i + k (mod p), and the part that lands on beta^0 is
    -(beta + ... + beta^(p-1)); the t (p-1) coordinate equations are solved
    by Gaussian elimination over Fractions (solve_square).
    """
    n = p - 1
    r = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(n)}) == n)
    u = [pow(r, e, p) for e in exps]
    t = len(exps)
    matrix, rhs = [], []
    for l in range(1, t + 1):
        for m in range(1, p):
            row = [0] * (t * n)
            for j in range(t):
                for i in range(1, p):
                    k = (i + l * u[j]) % p
                    if k == m:
                        row[j * n + i - 1] += 1
                    elif k == 0:
                        row[j * n + i - 1] -= 1
            matrix.append(row)
            rhs.append(values[l - 1][m - 1])
    x = solve_square(matrix, rhs)
    return {e: x[j * n:(j + 1) * n] for j, e in enumerate(exps)}


def fit_values(values, support, ctx):
    """skewpoly._fit on field values in the order l = 1, 2, ..., read in
    normal coordinates as sparse_interpolate reads them: the polynomial
    on `support` that fits them all, or None."""
    n = ctx.p - 1
    return skewpoly._fit([ctx.to_normal(v.num) for v in values], [(v.den,) * n for v in values],
                         support, ctx)


def certified_pullback(M, support):
    """det's sparse pullback of M on `support`, taken whatever the cost
    model says (matmul._pullback with the fit priced at 0): the fit of M's
    rows where its certificate holds, else None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matmul, "_fit_cost", lambda *_args: 0.0)
        return matmul._pullback(M, support, matmul._over_one(M), shared_ctx(M.p))


def force_route(mp, route):
    """Force det_mul's route past its cost model: for "direct", both factors
    are scanned under p-1 and any supports the scans give go direct; for
    "rows", nothing is scanned and the pair takes the rows stage."""
    direct = route == "direct"
    mp.setattr(matmul, "_reach", lambda p, *_args: p - 1 if direct else 0)
    mp.setattr(matmul, "_pays", lambda *_args: direct)
