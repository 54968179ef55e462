"""Built-in invariant suite behind `skewmm selftest`.

Runs the library's structural identities at p in {3, 5, 7, 11, 13} (both
paths of the pullback mat_to_skew and products with denominators also at
p=31) with fixed seeds, prints one line
per property plus the empirically resolved conventions (composition
orientation of the transform, conjugation side of the layer-0 closed form),
and reports the first failure by name.  Exact arithmetic means every check
is a strict equality.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import matmul
from .cyclotomic import CycElem, _is_prime, cyc_mul, cyc_scale, rotated_sum, shared_ctx
from .multiply import RationalProduct
from .skewpoly import (SkewPoly, _fit, _modulus, _scaled_row, power_points, sp_evaluate,
                       sp_mul, sparse_interpolate, values_at_beta_powers)
from .skewstructure import (antidiag_perm, build_AB_perm, build_P, build_Q,
                            build_X, build_Y, l0_characterization_check,
                            random_layered, skew_sparsity, y_power_row)
from .transform import (Orientation, RatMatrix, _looped_coefficients, build_V, build_W,
                        mat_to_skew, phi_orientation, skew_to_mat)

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
    primes = filter(_is_prime, itertools.count(2))
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
    """The product as a plain Fraction triple loop, apart from the int kernel."""
    cols = list(zip(*b.rows))
    return RatMatrix(a.p, [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)),
                                Fraction(0)) for col in cols] for row in a.rows])


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
    """Roundtrips in both directions plus multiplicativity in the probed order."""
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
    return True


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


#: coordinates of this size make the int product loop past 64-bit slots
_LONG = 2 ** 64


def _reach_of(A, B) -> int:
    """det's model's reach for the pair (matmul._reach): the largest
    sparsity at which a one-term partner's direct route still costs no
    more than the pair's own rows stage."""
    width = matmul._words(RationalProduct(A.nums, A.dens, B.nums, B.dens).bits)
    return matmul._reach(A.p, matmul._over_one(A), matmul._over_one(B), width)


def _stage_pairs(ctx, rng, den):
    """Pairs on either side of det_mul's cost model, each a one-term factor
    times layers 0..s-1 (s_A = 1 and t = s) scaled by 1/den: on one-digit
    coordinates, packed slots, the model's reach T, with a zero left factor
    where it is 0 (p <= 31), then T + 1; and on 2^64 coordinates, whose
    product loops past 64-bit slots, one term times one where the model
    reaches it.  Each with the route it must take."""
    p = ctx.p

    def pair(s, zero=False, bound=9):
        a = RatMatrix.zeros(p) if zero else random_layered(ctx, [0], rng.getrandbits(32), bound)
        b = random_layered(ctx, range(s), rng.getrandbits(32), bound)
        return a.scale(Fraction(1, den)), b.scale(Fraction(1, den))

    T = matmul._reach(p, den == 1, den == 1, 0)
    long = pair(1, bound=_LONG)
    return ((pair(T) if T else pair(1, zero=True), "direct"), (pair(T + 1), "rows"),
            (long, "direct" if _reach_of(*long) else "rows"))


def _guarded_pair(ctx, rng):
    """A one-term factor times layers 0..T, for the model's reach T on
    packed slots (over 1, or over 7 where it is 0 over 1), or None where
    T = 0 either way (p <= 31).  det_mul's density guard must prove the
    (T+1)-term factor dense and take the rows stage with no pullback, so
    it reports t_used = p-1, above the sumset's T+1."""
    p = ctx.p
    for den in (1, 7):
        T = matmul._reach(p, den == 1, den == 1, 0)
        if 0 < T < p - 1:
            a = random_layered(ctx, [0], rng.getrandbits(32))
            b = random_layered(ctx, range(T + 1), rng.getrandbits(32))
            return a.scale(Fraction(1, den)), b.scale(Fraction(1, den))
    return None


def _certificate_pairs(ctx, rng):
    """Two pairs for det_mul's certified sparse pullback on 2^64
    coordinates, which the model sends direct, or None where it does not
    (p <= 11): a one-term factor times a one-term one, whose scans give both
    supports; and the same partner times 1 + (beta - z) x, where z = zeta
    (mod q) for the image zeta of beta modulo the scan's prime q, so that
    the scan sees one term of two and the candidate solved on it fails the
    certificate."""
    a = random_layered(ctx, [0], rng.getrandbits(32), _LONG)
    b = random_layered(ctx, [1], rng.getrandbits(32), _LONG)
    zeta = _modulus(ctx.p)[1][1]
    vanishing = skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: ctx.beta_power(1) - ctx.one * zeta}))
    if not (_reach_of(a, b) and _reach_of(vanishing, b)):
        return None
    return (a, b), (vanishing, b)


def _fitted(M, support, ctx):
    """det's sparse pullback of M on `support`: the fit of M's rows, in the
    order l = 1..p-1 of the values they are (matmul._pullback), or None
    where its certificate fails."""
    dens = None if matmul._over_one(M) else ctx.to_power(M.dens)
    return _fit(ctx.to_power(M.nums), dens, support, ctx)


def _certificates_hold(ctx, rng) -> bool:
    """At a prime where the model sends the _certificate_pairs direct: the
    first pair goes direct on its scanned supports, on which both factors'
    sparse pullbacks certify as their pullbacks; the second's wrong support
    fails its certificate, so det_mul takes the rows stage; det_mul equals
    the schoolbook on both.  At p >= 31, where the model prices a one-term
    factor's fit below mat_to_skew, det_mul itself takes it for both
    factors of the first pair."""
    p = ctx.p
    pairs = _certificate_pairs(ctx, rng)
    if pairs is None:
        return True
    (A, B), (F, G) = pairs
    stages = []
    for X, Y in pairs:
        got, report = matmul.det_mul(X, Y)
        if got != matmul.naive_mul(X, Y):
            return False
        stages.append(report.product)
    if stages != ["direct", "rows"]:
        return False
    supports = _route(A, B)
    if supports is None or not all(_fitted(M, S, ctx) == mat_to_skew(M, ctx)
                                   for M, S in zip((A, B), supports)):
        return False
    if p >= 31 and not all(matmul._fit_cost(len(S), p, True) <= matmul._mat_to_skew_cost(p, True)
                           for S in supports[:2]):
        return False
    supports = _route(F, G)
    return supports is not None and _fitted(F, supports[0], ctx) is None


def _route(A, B):
    """det_mul's route for A and B (matmul._supports): their scanned
    supports and sumset size where it goes direct, else None."""
    return matmul._supports(A, B, matmul._over_one(A), matmul._over_one(B),
                            RationalProduct(A.nums, A.dens, B.nums, B.dens))


def check_multiplication(primes=DEFAULT_PRIMES, cases=4) -> bool:
    """det_mul and mc_mul against the schoolbook oracle, dense and layered;
    at each prime layered pairs on either side of det_mul's cost model,
    over 1 and over 7, which must take the route the model names; where
    the model reaches any sparsity on packed slots (also run at p=61), a
    pair its density guard must send to the rows stage with no pullback;
    where it sends 2^64 coordinates direct, a pair whose sparse pullbacks
    certify on the direct route and one whose certificate fails, which
    must take the rows stage (_certificates_hold, also run at p=31); and
    A*I with row q(1) = 1 of A zero: mc_mul's scan stops at once on the
    zero candidate, and the exact product passes a 2nd check."""
    rng = random.Random(505)
    if not _certificates_hold(shared_ctx(31), random.Random(31)):
        return False
    guarded = _guarded_pair(shared_ctx(61), random.Random(61))
    got, report = matmul.det_mul(*guarded)
    if (report.product, report.t_used) != ("rows", 60) or got != matmul.naive_mul(*guarded):
        return False
    for p in primes:
        ctx = shared_ctx(p)
        for den in (1, 7):
            for (A, B), stage in _stage_pairs(ctx, rng, den):
                got, report = matmul.det_mul(A, B)
                if report.product != stage or got != matmul.naive_mul(A, B):
                    return False
        if not _certificates_hold(ctx, random.Random(p)):
            return False
        guarded = _guarded_pair(ctx, rng)
        if guarded is not None:
            got, report = matmul.det_mul(*guarded)
            if ((report.product, report.t_used) != ("rows", p - 1)
                    or got != matmul.naive_mul(*guarded)):
                return False
        for _ in range(cases):
            A = _rand_matrix(p, rng)
            B = _rand_matrix(p, rng)
            want = matmul.naive_mul(A, B)
            got, _ = matmul.det_mul(A, B)
            if got != want:
                return False
            layers_a = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
            layers_b = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
            La = random_layered(ctx, layers_a, rng.getrandbits(32))
            Lb = random_layered(ctx, layers_b, rng.getrandbits(32))
            got, _ = matmul.det_mul(La, Lb)
            if got != matmul.naive_mul(La, Lb):
                return False
        A = _rand_matrix(p, rng)
        B = _rand_matrix(p, rng)
        got, report = matmul.mc_mul(A, B, "1/20", rng.getrandbits(32))
        if report.fallback or got != matmul.naive_mul(A, B):
            return False
        A, B = RatMatrix(p, [[0] * (p - 1)] + [[1] * (p - 1)] * (p - 2)), RatMatrix.identity(p)
        got, report = matmul.mc_mul(A, B, "1/1000000", p)
        if ((report.iterations, report.fallback, report.final_T) != (2, False, 0)
                or got != matmul.naive_mul(A, B) or matmul.det_mul(A, B)[0] != got):
            return False
    return True


def check_rational_products(primes=DEFAULT_PRIMES, cases=2) -> bool:
    """naive_mul and det_mul against a Fraction schoolbook on operands with
    denominators, which the int kernel's row and column scales must undo:
    dense pairs, layered pairs scaled by 1/d, at p=7 a pair whose entries
    all lie over distinct primes and two int pairs on either side of the
    64-bit slot, so that the int product runs packed on one and
    cubic_multiply on the other, and at p=31 a
    layered pair, a pair whose supports are one subgroup of Z_30, so that
    their sumset collapses, and a pair of 8-term random supports whose
    sumset nearly fills Z_30.  On every pair det's direct stage is also
    run on mat_to_skew's pullbacks, whichever stage det_mul picks (the
    rows stage is naive_mul's product)."""
    rng = random.Random(606)

    def agree(X, Y):
        want = _schoolbook(X, Y)
        if matmul.naive_mul(X, Y) != want or matmul.det_mul(X, Y)[0] != want:
            return False
        ctx = shared_ctx(X.p)
        return skew_to_mat(sp_mul(mat_to_skew(Y, ctx), mat_to_skew(X, ctx))) == want

    def scaled_layered(ctx, layers):
        return random_layered(ctx, layers, rng.getrandbits(32)).scale(
            Fraction(1, rng.choice(_DENOMINATORS[1:])))

    for p in primes:
        ctx = shared_ctx(p)
        for _ in range(cases):
            A = _rand_rational_matrix(p, rng)
            B = _rand_rational_matrix(p, rng)
            La = scaled_layered(ctx, {0})
            Lb = scaled_layered(ctx, {0, 1})
            if not all(agree(X, Y) for X, Y in ((A, B), (La, Lb), (La, B))):
                return False
    if not agree(*_distinct_prime_pair(7, rng)):
        return False
    # the bound 6 max|x| max|y|, reached at entry (0, 0), has 63 bits at
    # (30, 30), so with its sign bit it just fits a 64-bit slot, and 64
    # bits at (31, 30)
    if not all(agree(_long_entry_matrix(7, rng, a), _long_entry_matrix(7, rng, b))
               for a, b in ((30, 30), (31, 30))):
        return False
    ctx = shared_ctx(31)
    subgroup = range(0, 30, 6)
    random_a, random_b = (0, 1, 3, 4, 12, 15, 21, 24), (3, 4, 7, 17, 22, 23, 24, 29)  # t = 29
    return all(agree(scaled_layered(ctx, layers_a), scaled_layered(ctx, layers_b))
               for layers_a, layers_b in (({0}, range(4)), (subgroup, subgroup),
                                          (random_a, random_b)))


def _aligned_matrix(ctx, bound, sign=1):
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


def _aligned_poly(ctx, bounds, sign=1):
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


def check_pullback_paths(p=31) -> bool:
    """mat_to_skew's two paths against the rotated-sum definition, one
    rotated_sum per coefficient: a matrix of small ints, whose slots fit 16
    bits and take the packed correlation; one over denominators up to 3^40
    and 2^61 - 1, whose slots would need more than 64 bits and take the
    rotated-sum loop; and two (one per sign) whose corrected coefficients
    reach the top bit of their 16-bit slots (_aligned_matrix).  Each must
    also round-trip through skew_to_mat, whose pushforward takes the packed
    words on all but the second, which takes one rotated_sum per value.
    Last, the values of two polynomials whose coordinates reach the top
    bit of their 16-bit slots (_aligned_poly) must equal rotated_sum's."""
    rng = random.Random(3131)
    ctx = shared_ctx(p)
    n = p - 1
    edge = (2 ** 16 - 1) // (6 * n)
    for C in (_rand_matrix(p, rng), _rand_rational_matrix(p, rng),
              _aligned_matrix(ctx, edge), _aligned_matrix(ctx, edge, -1)):
        den = math.lcm(*(math.lcm(*dens) for dens in C.dens))
        rows = [_scaled_row(num, dens, den) for num, dens in zip(C.nums, C.dens)]
        coefficients = _looped_coefficients(ctx, rows)
        want = SkewPoly(ctx, {i: ctx.elem([Fraction(x, p * den) for x in coords])
                              for i, coords in enumerate(coefficients) if any(coords)})
        f = mat_to_skew(C, ctx)
        if f != want or skew_to_mat(f) != C:
            return False
    bounds = ((2 ** 16 - 1) // 8, (2 ** 16 - 1) // 8 + 1)  # 4 S = 2^16 - 4
    for sign in (1, -1):
        f = _aligned_poly(ctx, bounds, sign)
        den, values = values_at_beta_powers(f, range(1, p))
        vecs = [(ctx.pow_r[e], c.vector(den)) for e, c in f.sorted_terms()]
        if values != tuple(itertools.chain.from_iterable(
                [0, *rotated_sum(p, [(vec, u * l % p) for u, vec in vecs])]
                for l in range(1, p))):
            return False
    return True


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
    checks = [
        (f"VW = pI verified for p in {prime_list}", lambda: check_vw_identity(primes)),
        ("transform bijection, linearity partner checks and multiplicativity",
         lambda: check_transform_bijection(primes)),
        ("generator identities: sum of Y powers, permutation pair, row closed form",
         lambda: check_generator_identities()),
        ("layer-0 closed-form identity", check_l0_characterization),
        ("sparse interpolation roundtrip", check_sparse_interpolation),
        ("pullback and pushforward, packed and looped, vs the rotated-sum "
         "definition", check_pullback_paths),
        ("skew-sparsity reporting", check_sparsity_reporting),
        ("det/mc multiplication vs schoolbook oracle, det's cost model on "
         "either side, det's density guard and certified sparse pullback, "
         "mc's rejected premature stop",
         check_multiplication),
        ("naive/det products with denominators vs Fraction schoolbook, "
         "det's direct and rows stages", check_rational_products),
    ]
    for name, fn in checks:
        if not fn():
            emit(f"FAIL: {name}")
            return False, name
        emit(f"ok: {name}")

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
