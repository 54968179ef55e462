"""Differential tests of the integer pullback and pushforward against their
definitions: mat_to_skew against (1/p) * W * b with full field products over
build_W's entries, and skew_to_mat against evaluating the polynomial's map at
each normal-basis element.  Inputs cover zero and single-entry matrices,
zero rows, all-negative rows, a single nonzero row, negative and very large
numerators, and large coprime denominators.  mat_to_skew has two paths, a
packed correlation in slots of 1, 2, 4 or 8 bytes and a rotated-sum loop for
inputs that need wider slots; both are checked, at each slot-width edge, and
the packed one against the loop on both sides of every edge of its raw sums
and of its corrected coefficients at p = 3 .. 127."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_PRIMES, aligned_matrix, least_width
from skewmm import (RatMatrix, SkewPoly, build_W, cyc_add, cyc_mul, cyc_scale,
                    from_normal_coords, mat_to_skew, normal_coords, shared_ctx,
                    skew_to_mat, sp_evaluate, transform)
from skewmm.rational import Rat

PRIMES = (3, 5, 7, 13)
RAT_TYPE = type(Rat(0))

numerators = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2 ** 260), 2 ** 260),
    st.sampled_from([2 ** 200 + 1, -(2 ** 201) - 3]),
)
denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([7, 2 ** 61 - 1, 2 ** 89 - 1, 3 ** 40]),
)
rationals = st.builds(Rat, numerators, denominators)
#: entries whose scaled numerators fit the packed path's slots, unless
#: denominators such as 7 and 2^61 - 1 meet in one matrix
narrow_rationals = st.builds(Rat, st.integers(-9, 9),
                             st.sampled_from([1, 2, 3, 7, 2 ** 61 - 1, 3 ** 40]))

kernel_settings = settings(deadline=None, max_examples=40)


def assert_canonical(values):
    for x in values:
        assert type(x) is RAT_TYPE
        assert x.denominator > 0
        assert math.gcd(x.numerator, x.denominator) == 1


def mat_to_skew_by_definition(C, ctx):
    """(1/p) * W * b, entrywise with field products."""
    p = ctx.p
    n = p - 1
    W = build_W(ctx)
    b = [from_normal_coords(ctx, row) for row in C.rows]
    terms = {}
    for i in range(n):
        acc = ctx.zero
        for k in range(n):
            acc = cyc_add(acc, cyc_mul(W[i][k], b[k]))
        terms[i] = cyc_scale(acc, Rat(1, p))
    return SkewPoly(ctx, terms)


def pushforward_by_definition(f):
    """Row i is the normal-coordinate vector of f's map applied to v_(i+1)."""
    ctx = f.ctx
    return RatMatrix(ctx.p, [normal_coords(sp_evaluate(f, ctx.beta_power(ctx.v_exponent(i))))
                             for i in range(1, ctx.p)])


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    n = p - 1
    entries = draw(st.sampled_from([rationals, narrow_rationals]))
    shape = draw(st.sampled_from(["dense", "zero-rows", "single", "single-row",
                                  "negative-rows", "zero"]))
    rows = [[Rat(0)] * n for _ in range(n)]
    if shape == "single":
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            entries.filter(bool))
    elif shape == "single-row":
        rows[draw(st.integers(0, n - 1))] = draw(st.lists(entries, min_size=n, max_size=n))
    elif shape != "zero":
        zero_rows = (draw(st.sets(st.integers(0, n - 1), max_size=n))
                     if shape == "zero-rows" else set())
        negative_rows = (draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
                         if shape == "negative-rows" else set())
        for i in range(n):
            if i in negative_rows:
                rows[i] = [-abs(x) or Rat(-1) for x in
                           draw(st.lists(entries, min_size=n, max_size=n))]
            elif i not in zero_rows:
                rows[i] = draw(st.lists(entries, min_size=n, max_size=n))
    return RatMatrix(p, rows)


@st.composite
def polynomials(draw):
    p = draw(st.sampled_from(PRIMES))
    ctx = shared_ctx(p)
    n = p - 1
    exps = draw(st.sets(st.integers(0, n - 1), max_size=n))
    terms = {}
    for e in exps:
        if draw(st.booleans()):  # a single nonzero coordinate
            coords = [Rat(0)] * n
            coords[draw(st.integers(0, n - 1))] = draw(rationals.filter(bool))
        else:
            coords = draw(st.lists(rationals, min_size=n, max_size=n))
        terms[e] = ctx.elem(coords)
    return SkewPoly(ctx, terms)


@kernel_settings
@given(matrices())
def test_pullback_matches_definition(C):
    ctx = shared_ctx(C.p)
    f = mat_to_skew(C, ctx)
    assert f == mat_to_skew_by_definition(C, ctx)
    for coeff in f.terms.values():
        assert coeff
        assert_canonical(coeff.coords)


@kernel_settings
@given(polynomials())
def test_pushforward_matches_definition(f):
    M = skew_to_mat(f)
    assert M == pushforward_by_definition(f)
    for row in M.rows:
        assert_canonical(row)


@kernel_settings
@given(matrices())
def test_pullback_then_pushforward_is_identity(C):
    assert skew_to_mat(mat_to_skew(C)) == C


def test_coprime_denominators_share_one_pullback():
    # entries over 2^61 - 1 and 7 side by side, with all other rows zero
    p = 7
    big = 2 ** 61 - 1
    rows = [[Rat(0)] * 6 for _ in range(6)]
    rows[2] = [Rat(1, big), Rat(-3, 7), Rat(0), Rat(2 ** 210, 7 * big), Rat(5), Rat(-1, 7)]
    C = RatMatrix(p, rows)
    ctx = shared_ctx(p)
    f = mat_to_skew(C, ctx)
    assert f == mat_to_skew_by_definition(C, ctx)
    assert skew_to_mat(f) == C


def recording_paths(monkeypatch):
    """Wrap mat_to_skew's two paths; returns the slot size of each packed
    call and "loop" for each looped one."""
    paths = []
    packed, looped = transform._packed_coefficients, transform._looped_coefficients

    def recording_packed(ctx, rows, bound, size):
        paths.append(size)
        return packed(ctx, rows, bound, size)

    def recording_looped(ctx, rows):
        paths.append("loop")
        return looped(ctx, rows)

    monkeypatch.setattr(transform, "_packed_coefficients", recording_packed)
    monkeypatch.setattr(transform, "_looped_coefficients", recording_looped)
    return paths


@pytest.mark.parametrize("p", (3, 13))
@pytest.mark.parametrize("size", (1, 2, 4, 8))
@pytest.mark.parametrize("over", (0, 1), ids=["at", "over"])
@pytest.mark.parametrize("sign", (1, -1), ids=["pos", "neg"])
def test_slot_width_edges(monkeypatch, p, size, over, sign):
    # every slot sums p-1 terms in [0, 2M], M = max|entry|: M at the limit
    # 2 (p-1) M < 2^(8 size) fills a slot of `size` bytes; one more takes
    # the next size.  The corrected coefficients span 6 (p-1) M, so at 8
    # bytes the edge is 6 (p-1) M < 2^64, past which the rotated-sum loop runs
    n = p - 1
    limit = (2 ** (8 * size) - 1) // ((6 if size == 8 else 2) * n)
    rng = random.Random(p * 100 + size)
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    rows[rng.randrange(n)][rng.randrange(n)] = sign * (limit + over)
    C = RatMatrix(p, rows)
    paths = recording_paths(monkeypatch)
    f = mat_to_skew(C)
    assert paths == [("loop" if size == 8 else 2 * size) if over else size]
    monkeypatch.undo()
    assert f == mat_to_skew_by_definition(C, shared_ctx(p))
    assert skew_to_mat(f) == C


@pytest.mark.parametrize("p", (3, 13))
@pytest.mark.parametrize(("dens", "path"), [((2 ** 61 - 1,), "packed"), ((3 ** 40,), "packed"),
                                            ((2 ** 61 - 1, 7), "loop")],
                         ids=["over 2^61-1", "over 3^40", "over 2^61-1 and 7"])
def test_long_denominators_pick_the_path(monkeypatch, p, dens, path):
    # a matrix over 2^61 - 1 alone, or 3^40 alone, scales to its own small
    # numerators and is packed; 7 next to 2^61 - 1 scales them past 2^64
    n = p - 1
    rng = random.Random(p)
    C = RatMatrix(p, [[Rat(rng.choice((-1, 1)) * rng.randint(1, 9), dens[(i + j) % len(dens)])
                       for j in range(n)] for i in range(n)])
    paths = recording_paths(monkeypatch)
    f = mat_to_skew(C)
    assert ["loop" if x == "loop" else "packed" for x in paths] == [path]
    monkeypatch.undo()
    assert f == mat_to_skew_by_definition(C, shared_ctx(p))


def test_p31_pullback_matches_definition(monkeypatch):
    # one dense rational matrix at the benchmark's prime, on the packed path
    rng = random.Random(31)
    C = RatMatrix(31, [[Rat(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(30)]
                       for _ in range(30)])
    ctx = shared_ctx(31)
    paths = recording_paths(monkeypatch)
    f = mat_to_skew(C, ctx)
    assert paths == [4]
    monkeypatch.undo()
    assert f == mat_to_skew_by_definition(C, ctx)


# The packed pullback against the rotated-sum loop, at every slot-width edge.
# The shifts run in the least slot of 1, 2, 4 or 8 bytes with
# 2 (p-1) M < 2^w (the raw range), and the corrected coefficients are read
# from the least with 6 (p-1) M < 2^w (the corrected range), widened if that
# is wider; past 64 bits the loop runs.


def edge_bounds(p, factors):
    """max|entry| values on both sides of each edge factor * M < 2^w."""
    edges = {(2 ** w - 1) // f for w in (8, 16, 32, 64) for f in factors}
    return sorted({m for e in edges for m in (e, e + 1) if m > 0})


def pullback_by_loop(C, ctx):
    """mat_to_skew's polynomial from _looped_coefficients on its scaled rows."""
    p = ctx.p
    den = math.lcm(*(math.lcm(*dens) for dens in C.dens))
    rows = [[x * (den // d) for x, d in zip(num, dens)] for num, dens in zip(C.nums, C.dens)]
    return SkewPoly(ctx, {i: cyc_scale(ctx.elem(coords), Rat(1, p * den))
                          for i, coords in enumerate(transform._looped_coefficients(ctx, rows))
                          if any(coords)})


def coprime_prime(m):
    """The least prime that does not divide m."""
    return next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
                if m % q)


@st.composite
def edge_matrices(draw):
    """A matrix whose scaled entries have max|entry| M on one side of a
    width edge: integral rows, rows over one real denominator D (an entry
    1/D fixes the lcm), rows over 1 but for one entry M/d, or the aligned
    rows whose corrected coefficient reaches (3 (p-1) - 1) M."""
    p = draw(st.sampled_from(EDGE_PRIMES))
    n = p - 1
    ctx = shared_ctx(p)
    bound = draw(st.sampled_from(edge_bounds(p, (2 * n, 6 * n))))
    sign = draw(st.sampled_from((1, -1)))
    kind = draw(st.sampled_from(["integral", "denominator", "one-entry", "aligned"]))
    if kind == "aligned":
        return aligned_matrix(ctx, bound, sign)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    small = min(bound, 9)
    at = (rng.randrange(n), rng.randrange(n))
    if kind == "integral":
        rows = [[rng.randint(-small, small) for _ in range(n)] for _ in range(n)]
        rows[at[0]][at[1]] = sign * bound
    elif kind == "denominator":
        D = draw(st.sampled_from([2, 6, 35, 2 ** 61 - 1]))
        rows = [[Rat(rng.randint(-small, small), D) for _ in range(n)] for _ in range(n)]
        rows[at[0]][at[1]] = Rat(sign * bound, D)
        rows[(at[0] + 1) % n][at[1]] = Rat(1, D)
    else:
        d = coprime_prime(bound)
        small = min(bound // d, 9)
        rows = [[rng.randint(-small, small) for _ in range(n)] for _ in range(n)]
        rows[at[0]][at[1]] = Rat(sign * bound, d)
    return RatMatrix(p, rows)


@settings(deadline=None, max_examples=120)
@given(edge_matrices())
def test_packed_pullback_matches_the_loop(C):
    ctx = shared_ctx(C.p)
    assert mat_to_skew(C, ctx) == pullback_by_loop(C, ctx)


@pytest.mark.parametrize(("p", "bound"), [
    pytest.param(p, m, id=f"{p}-{m:#x}") for p in EDGE_PRIMES
    for m in edge_bounds(p, (2 * (p - 1), 6 * (p - 1)))])
def test_pullback_width_edges(monkeypatch, p, bound):
    # aligned rows at each M = the largest bound with 2 (p-1) M < 2^w or
    # 6 (p-1) M < 2^w, and at M + 1: the shifts take the raw width of
    # 2 (p-1) M, the read the corrected width of 6 (p-1) M, widened from the
    # raw one if wider; a corrected coefficient (3 (p-1) - 1) M reaches the
    # top bit of its slot
    n = p - 1
    ctx = shared_ctx(p)
    size, out = least_width(2 * n * bound), least_width(6 * n * bound)
    for sign in (1, -1):
        C = aligned_matrix(ctx, bound, sign)
        paths = recording_paths(monkeypatch)
        widened = []
        original = transform._widened

        def recording_widened(raw, from_size, to_size):
            widened.append((from_size, to_size))
            return original(raw, from_size, to_size)

        monkeypatch.setattr(transform, "_widened", recording_widened)
        f = mat_to_skew(C, ctx)
        monkeypatch.undo()
        assert paths == (["loop"] if out is None else [size])
        assert widened == ([(size, out)] if out is not None and out > size else [])
        want = pullback_by_loop(C, ctx)
        assert f == want
        assert max(max(map(abs, c.vector(p))) for c in want.terms.values()) == (3 * n - 1) * bound
