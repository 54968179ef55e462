"""Built-in invariant suite behind `skewmm selftest`.

Checks the paper's claims on an installed package, through the public API
only, with fixed seeds.  The map between (p-1) x (p-1) rational matrices
and Q(beta)[x; sigma]/(x^(p-1) - 1) is a bijection: V W = p I, roundtrips
both ways and multiplicativity at p in {3, 5, 7, 11, 13}, with one matrix
over denominators up to 2^61 - 1 at p=31, the generator identities and the
layer-0 closed form.  Multiplying through it gives the exact product:
naive_mul, det_mul, mc_mul and the product of the pullbacks each equal a
Fraction schoolbook on every pair, dense, layered, with denominators and
past 64-bit slots, up to p=31.  The pairs make det take both its routes
and mc both its endings, read off their MulReports as a set, never
predicted per pair; how det picks its route is tested with matmul.

Prints one line per property, one naming the routes the products took,
and the empirically resolved conventions (composition orientation of the
transform, conjugation side of the layer-0 closed form), and reports the
first failure by name.  Exact arithmetic means every check is a strict
equality.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

from .cyclotomic import cyc_mul, cyc_scale, is_odd_prime, shared_ctx
from .matmul import det_mul, mc_mul, naive_mul
from .skewpoly import SkewPoly, power_points, sp_evaluate, sp_mul, sparse_interpolate
from .skewstructure import (antidiag_perm, build_AB_perm, build_P, build_Q,
                            build_X, build_Y, l0_characterization_check,
                            random_layered, skew_sparsity, y_power_row)
from .transform import (Orientation, RatMatrix, build_V, build_W, mat_to_skew,
                        phi_orientation, skew_to_mat)

DEFAULT_PRIMES = (3, 5, 7, 11, 13)


def _rand_matrix(p, rng, bound=9):
    n = p - 1
    return RatMatrix(p, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


#: denominators for the rational operands: small ones and two long ones
_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 3 ** 40, 2 ** 61 - 1)


def _rand_rational_matrix(p, rng, bound=9):
    n = p - 1
    return RatMatrix(p, [[Fraction(rng.randint(-bound, bound), rng.choice(_DENOMINATORS))
                          for _ in range(n)] for _ in range(n)])


def _distinct_prime_pair(p, rng):
    """Two matrices whose 2 (p-1)^2 entries all lie over distinct primes:
    the worst case for the int kernel's row and column scales."""
    n = p - 1
    primes = filter(is_odd_prime, itertools.count(3))
    return [RatMatrix(p, [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), next(primes))
                           for _ in range(n)] for _ in range(n)]) for _ in range(2)]


def _long_entry_matrix(p, rng, bits):
    """An int matrix whose first row and column are 2^bits - 1, the longest
    entry, and whose other entries are random: entry (0, 0) of the product
    of two such matrices is the bound on it, (p-1) times both longest
    entries."""
    n = p - 1
    top = 2 ** bits - 1
    rows = [[top if 0 in (i, j) else rng.randint(-top, top) for j in range(n)]
            for i in range(n)]
    return RatMatrix(p, rows)


def _schoolbook(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The product as a plain triple loop over the entries, each an int or
    a Fraction, apart from the int kernel."""
    def entries(M):
        return [[x if d == 1 else Fraction(x, d) for x, d in zip(num, den)]
                for num, den in zip(M.nums, M.dens)]

    cols = list(zip(*entries(b)))
    return RatMatrix(a.p, [[sum(map(operator.mul, row, col)) for col in cols]
                           for row in entries(a)])


def _rand_elem(ctx, rng, bound=9):
    coords = [rng.randint(-bound, bound) for _ in range(ctx.p - 1)]
    if not any(coords):
        coords[0] = 1
    return ctx.elem(coords)


def _rand_poly(ctx, rng, sparsity):
    exps = rng.sample(range(ctx.p - 1), sparsity)
    return SkewPoly(ctx, {e: _rand_elem(ctx, rng) for e in exps})


def check_vw_identity(primes=DEFAULT_PRIMES) -> bool:
    """V W = p I over the field, entry by entry."""
    for p in primes:
        ctx = shared_ctx(p)
        V, W = build_V(ctx), build_W(ctx)
        n = p - 1
        for i in range(n):
            for j in range(n):
                acc = ctx.zero
                for k in range(n):
                    acc = acc + cyc_mul(V[i][k], W[k][j])
                want = cyc_scale(ctx.one, p) if i == j else ctx.zero
                if acc != want:
                    return False
    return True


def check_transform_bijection(primes=DEFAULT_PRIMES, cases=8) -> bool:
    """Roundtrips in both directions plus multiplicativity in the probed
    order, and the roundtrip of one matrix over long denominators at p=31."""
    rng = random.Random(2024)
    for p in primes:
        ctx = shared_ctx(p)
        ori = phi_orientation(ctx)
        for _ in range(cases):
            C = _rand_matrix(p, rng)
            if skew_to_mat(mat_to_skew(C, ctx)) != C:
                return False
            f = _rand_poly(ctx, rng, rng.randint(1, p - 1))
            g = _rand_poly(ctx, rng, rng.randint(1, p - 1))
            if mat_to_skew(skew_to_mat(f), ctx) != f:
                return False
            mf, mg = skew_to_mat(f), skew_to_mat(g)
            prod = mg @ mf if ori is Orientation.REVERSED else mf @ mg
            if skew_to_mat(sp_mul(f, g)) != prod:
                return False
    # entries over 3^40 and 2^61 - 1, whose slots would need more than 64
    # bits: mat_to_skew's rotated-sum loop, and skew_to_mat's one
    # rotated_sum per value
    C = _rand_rational_matrix(31, rng)
    return skew_to_mat(mat_to_skew(C)) == C


def check_generator_identities(primes=(3, 5, 7, 11)) -> bool:
    """Power sum of Y, the permutation-pair product, and the closed row form."""
    for p in primes:
        ctx = shared_ctx(p)
        Y = build_Y(ctx)
        acc = RatMatrix.zeros(p)
        powers = [RatMatrix.identity(p)]
        for _ in range(p - 1):
            powers.append(powers[-1] @ Y)
            acc = acc + powers[-1]
        if acc != RatMatrix.identity(p).scale(-1):
            return False
        A, B = build_AB_perm(ctx)
        if A @ B != antidiag_perm(p):
            return False
        for j in range(p):
            for i in range(1, p):
                if y_power_row(ctx, j, i) != powers[j].rows[ctx.s(i) - 1]:
                    return False
    return True


def resolve_conjugation_side(p=7, seed=99) -> str:
    """Which conjugation by the permutation A produces layer-0 matrices.

    Returns "A^-1 (P - Q) A" or "A (P - Q) A^-1"; raises if neither form
    matches, which would mean the closed form itself is broken.
    """
    ctx = shared_ctx(p)
    rng = random.Random(seed)
    c = [rng.randint(-9, 9) for _ in range(p - 1)]
    A, _ = build_AB_perm(ctx)
    At = A.transpose()
    if A @ At != RatMatrix.identity(p):
        raise RuntimeError("permutation matrix A is not orthogonal")
    M = skew_to_mat(SkewPoly(ctx, {0: ctx.elem(c)}))
    PQ = build_P(c) - build_Q(c)
    if At @ PQ @ A == M:
        return "A^-1 (P - Q) A"
    if A @ PQ @ At == M:
        return "A (P - Q) A^-1"
    raise RuntimeError("neither conjugation side matches the layer-0 element")


def check_l0_characterization(primes=(3, 5, 7), cases=6) -> bool:
    rng = random.Random(7)
    for p in primes:
        ctx = shared_ctx(p)
        for _ in range(cases):
            c = [rng.randint(-9, 9) for _ in range(p - 1)]
            lhs, rhs = l0_characterization_check(ctx, c)
            if lhs != rhs:
                return False
    return True


#: det's routes and mc's endings, read off their MulReports, in the order
#: the suite prints them
ROUTES = (("det", "direct"), ("det", "rows"), ("mc", "candidate"), ("mc", "assembled"))


def _product_pairs(primes, cases):
    """The pairs the products are checked on.  At each prime: dense pairs
    over 1 and over the _DENOMINATORS, layered pairs over 1 and scaled by
    1/d, and A*I with row q(1) = 1 of A zero, whose product's value at beta
    is zero, so that mc's scan stops at once on the zero candidate.  At
    p=7: a pair whose entries all lie over distinct primes, and two int
    pairs on either side of the 64-bit slot, so that the int product runs
    packed on one and cubic_multiply on the other.  At p=31, layered pairs:
    scaled by 1/d, one term times four layers, a pair whose supports are
    one subgroup of Z_30, so that their sumset collapses, and a pair of
    8-term random supports whose sumset nearly fills Z_30; and on 2^64
    coordinates, whose product would loop past 64-bit slots, one term
    times layers 0..s-1."""
    rng = random.Random(505)

    def layered(ctx, layers, den=1, bound=9):
        return random_layered(ctx, layers, rng.getrandbits(32), bound).scale(Fraction(1, den))

    def den():
        return rng.choice(_DENOMINATORS[1:])

    for p in primes:
        ctx = shared_ctx(p)
        for _ in range(cases):
            yield _rand_matrix(p, rng), _rand_matrix(p, rng)
            yield _rand_rational_matrix(p, rng), _rand_rational_matrix(p, rng)
            layers_a, layers_b = (rng.sample(range(p - 1), rng.randint(1, p - 1))
                                  for _ in range(2))
            yield layered(ctx, layers_a), layered(ctx, layers_b)
            yield layered(ctx, {0}, den()), layered(ctx, {0, 1}, den())
        yield RatMatrix(p, [[0] * (p - 1)] + [[1] * (p - 1)] * (p - 2)), RatMatrix.identity(p)
    yield _distinct_prime_pair(7, rng)
    # the bound 6 max|x| max|y|, reached at entry (0, 0), has 63 bits at
    # (30, 30), so with its sign bit it just fits a 64-bit slot, and 64
    # bits at (31, 30)
    for a, b in ((30, 30), (31, 30)):
        yield _long_entry_matrix(7, rng, a), _long_entry_matrix(7, rng, b)
    ctx = shared_ctx(31)
    subgroup = range(0, 30, 6)
    random_a, random_b = (0, 1, 3, 4, 12, 15, 21, 24), (3, 4, 7, 17, 22, 23, 24, 29)  # t = 29
    for layers_a, layers_b in (({0}, range(4)), (subgroup, subgroup), (random_a, random_b)):
        yield layered(ctx, layers_a, den()), layered(ctx, layers_b, den())
    for s in (1, 2, 4):
        yield layered(ctx, {0}, bound=2 ** 64), layered(ctx, range(s), bound=2 ** 64)


def check_products(taken, primes=DEFAULT_PRIMES, cases=2) -> bool:
    """naive_mul, det_mul, mc_mul (at nu = 1/20, with no fallback) and the
    product of the two pullbacks each equal the Fraction schoolbook on every
    pair of _product_pairs.  Each det_mul's route (report.product) and each
    mc_mul's ending (its early stop's candidate, t_used below p-1 after one
    check, or the product assembled from all its rows, after one or two)
    go into `taken`, which must then hold all of ROUTES."""
    for seed, (A, B) in enumerate(_product_pairs(primes, cases)):
        p = A.p
        want = _schoolbook(A, B)
        got, det = det_mul(A, B)
        guess, mc = mc_mul(A, B, "1/20", seed)
        through = skew_to_mat(sp_mul(mat_to_skew(B), mat_to_skew(A)))
        candidate = mc.t_used < p - 1
        if (mc.fallback or mc.iterations not in ((1,) if candidate else (1, 2))
                or not naive_mul(A, B) == got == guess == through == want):
            return False
        taken.update((("det", det.product), ("mc", "candidate" if candidate else "assembled")))
    return taken.issuperset(ROUTES)


def check_sparse_interpolation(p=13, cases=6) -> bool:
    rng = random.Random(31337)
    ctx = shared_ctx(p)
    for _ in range(cases):
        t = rng.randint(0, 6)
        f = _rand_poly(ctx, rng, t) if t else SkewPoly.zero(ctx)
        bound = rng.randint(max(t, 1), 8)
        values = [sp_evaluate(f, pt) for pt in power_points(ctx, 2 * bound)]
        if sparse_interpolate(values, bound, ctx=ctx) != f:
            return False
    return True


def check_sparsity_reporting(p=7) -> bool:
    ctx = shared_ctx(p)
    if skew_sparsity(RatMatrix.identity(p)) != (1, {0}):
        return False
    if skew_sparsity(RatMatrix.zeros(p)) != (0, set()):
        return False
    X = build_X(ctx)
    return skew_sparsity(X @ X @ X) == (1, {3})


def run_selftest(stream=None, primes=DEFAULT_PRIMES):
    """Run every property; returns (all_ok, first_failure_name)."""

    def emit(line):
        if stream is not None:
            print(line, file=stream)

    prime_list = "{" + ", ".join(str(p) for p in primes) + "}"
    taken = set()
    checks = [
        (f"VW = pI verified for p in {prime_list}", lambda: check_vw_identity(primes)),
        ("transform bijection both ways and multiplicativity, and a roundtrip over "
         "denominators up to 2^61 - 1 at p=31", lambda: check_transform_bijection(primes)),
        ("generator identities: sum of Y powers, permutation pair, row closed form",
         lambda: check_generator_identities()),
        ("layer-0 closed-form identity", check_l0_characterization),
        ("sparse interpolation roundtrip", check_sparse_interpolation),
        ("skew-sparsity reporting", check_sparsity_reporting),
        ("naive/det/mc products and the product of the pullbacks vs Fraction "
         "schoolbook: dense, layered, with denominators and past 64-bit slots",
         lambda: check_products(taken, primes)),
    ]
    for name, fn in checks:
        if not fn():
            emit(f"FAIL: {name}")
            return False, name
        emit(f"ok: {name}")
    emit("routes taken: " + ", ".join(f"{algo} {way}" for algo, way in ROUTES
                                      if (algo, way) in taken))

    orientations = {phi_orientation(shared_ctx(p)).value for p in primes}
    if len(orientations) != 1:
        emit("FAIL: transform orientation differs across primes")
        return False, "transform orientation consistency"
    emit(f"phi orientation: {orientations.pop()} "
         "(matrix of f*g equals matrix(g) @ matrix(f) when 'reversed')")
    try:
        side = resolve_conjugation_side()
    except RuntimeError as exc:
        emit(f"FAIL: layer-0 conjugation side ({exc})")
        return False, "layer-0 conjugation side"
    emit(f"layer-0 conjugation side: {side}")
    return True, None
