"""The packed known-support solve against a Fraction oracle.

interpolate_known_support puts t values over one denominator and runs the
dual Bjorck-Pereyra passes on one packed int per unknown
(skewpoly._solve_on_support), in slots whose width _solve_sizes guesses
from the values' max|entry| M; a result that does not fit the t values is
solved again in slots that provably hold every intermediate.  Random
values (not those of a sparse polynomial, so the solution may be large)
are checked against conftest's transposed-Vandermonde solve over
Fractions, with M on both sides of every slot-width edge: the guessed
width rounds up to 16, 32 or 64 bits, wider slots are read one from_bytes
each, and entries past 64 bits are packed one to_bytes each.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import seeded, transposed_vandermonde_solve
from skewmm import CycElem, SupportSet, interpolate_known_support, shared_ctx, skewpoly

def size_edges(p, t):
    """(M, width): M = 1 and each least M at which the guessed slot width
    (_solve_sizes) of t values of max|entry| M changes, up to M = 2^90."""
    def size(m):
        return skewpoly._solve_sizes([[m] * (p - 1)] * t, p)[0]

    edges, m = [(1, size(1))], 1
    while m < 2 ** 90:
        current, step = size(m), 1
        while size(m + step) == current:
            step *= 2
        lo, hi = m + step // 2, m + step  # size(lo) == current < size(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if size(mid) == current else (lo, mid)
        edges.append((hi, size(hi)))
        m = hi
    return edges


@st.composite
def systems(draw):
    p = draw(st.sampled_from((3, 5, 7, 13, 31)))
    t = draw(st.integers(1, min(p - 1, 2 if p == 31 else 4)))
    exps = draw(st.lists(st.integers(0, p - 2), min_size=t, max_size=t, unique=True))
    m = draw(st.sampled_from(size_edges(p, t)))[0] - draw(st.integers(0, 1))
    rng = seeded(draw(st.integers(0, 2 ** 32)))
    den = draw(st.sampled_from([1, 7, 2 ** 61 - 1]))
    vectors = [[rng.randint(-m, m) for _ in range(p - 1)] for _ in range(t)]
    vectors[0][rng.randrange(p - 1)] = m * rng.choice((-1, 1))
    return p, sorted(exps), den, vectors


@settings(deadline=None, max_examples=60)
@given(systems())
def test_the_solve_matches_the_fraction_oracle(system):
    p, exps, den, vectors = system
    ctx = shared_ctx(p)
    values = [CycElem(ctx, vec, den) for vec in vectors]
    f = interpolate_known_support(values, SupportSet(exps), ctx)
    want = transposed_vandermonde_solve([[Fraction(x, den) for x in vec] for vec in vectors],
                                        exps, p)
    for e in exps:
        got = f.terms[e].coords if e in f.terms else (0,) * (p - 1)
        assert list(got) == want[e]


@pytest.mark.parametrize("p", (5, 13, 31))
@pytest.mark.parametrize("t", (1, 2, 4))
def test_every_slot_width_is_reached(p, t):
    # struct widths of 2, 4 and 8 bytes, then a byte at a time; the guess
    # is never above the provable width
    sizes = [size for _, size in size_edges(p, t)]
    assert sizes == sorted(set(sizes))
    assert {w for w in (2, 4, 8) if w >= sizes[0]} | {9, 10} <= set(sizes)
    m = size_edges(p, t)[-1][0]
    guess, safe = skewpoly._solve_sizes([[m] * (p - 1)] * t, p)
    assert guess <= safe


def test_a_guess_that_overflows_is_solved_again(monkeypatch):
    # one-byte slots overflow on the first product: the candidate fails the
    # check against the t values, and the provable width solves it
    p, exps = 13, [0, 4, 7]
    ctx = shared_ctx(p)
    rng = seeded(27)
    vectors = [[rng.randint(-50, 50) for _ in range(p - 1)] for _ in exps]
    values = [CycElem(ctx, vec, 3) for vec in vectors]
    real = skewpoly._solve_sizes
    _, safe = real(vectors, p)
    assert skewpoly._solve_on_support(vectors, 3, exps, ctx, 1) != skewpoly._solve_on_support(
        vectors, 3, exps, ctx, safe)
    sizes = []

    def tiny(vecs, prime):
        sizes.append(real(vecs, prime))
        return 1, sizes[-1][1]

    monkeypatch.setattr(skewpoly, "_solve_sizes", tiny)
    f = interpolate_known_support(values, SupportSet(exps), ctx)
    want = transposed_vandermonde_solve([[Fraction(x, 3) for x in vec] for vec in vectors],
                                        exps, p)
    assert sizes and all(list(f.terms[e].coords) == want[e] for e in exps)
