"""RatMatrix's int layout, and the hot paths that must stay on it.

Every entry is an int numerator over a positive int denominator in lowest
terms (zero is 0/1), so equality is a tuple comparison.  The layout is
checked on matrices from every producer: the rational constructor,
naive_mul, @, skew_to_mat and det_mul at t = p-1, which reads the product
off its rows.  The products and the pullback must never build the Fraction
view, `rows`: it is what they were made to stop paying for.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_product, rand_elem, rand_rational_matrix, seeded
from skewmm import (RatMatrix, SkewPoly, det_mul, mat_to_skew, naive_mul, parse_matrix,
                    serialize_matrix, shared_ctx, skew_to_mat)
from skewmm.skewstructure import random_layered

denominators = st.one_of(st.integers(1, 12), st.sampled_from([3 ** 40, 2 ** 61 - 1]))
numerators = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


def assert_canonical(M):
    n = M.p - 1
    assert len(M.nums) == len(M.dens) == n
    for num, den, row in zip(M.nums, M.dens, M.rows):
        assert type(num) is tuple and type(den) is tuple
        assert len(num) == len(den) == n
        for x, d, q in zip(num, den, row):
            assert type(x) is int and type(d) is int
            assert d > 0 and math.gcd(x, d) == 1
            assert x or d == 1
            assert type(q) is Fraction and (q.numerator, q.denominator) == (x, d)
    assert RatMatrix(M.p, M.rows) == M


@st.composite
def rational_matrix(draw, p):
    n = p - 1
    return RatMatrix(p, [[Fraction(draw(numerators), draw(denominators)) for _ in range(n)]
                         for _ in range(n)])


@st.composite
def full_support_poly(draw, p):
    """A polynomial with all p-1 terms, its coefficients over denominators
    drawn like the matrix entries; det's sumset with it is all of Z_(p-1)."""
    ctx = shared_ctx(p)
    rng = seeded(draw(st.integers(0, 2 ** 32)))
    return SkewPoly(ctx, {e: rand_elem(ctx, rng) * Fraction(1, draw(denominators))
                          for e in range(p - 1)})


@st.composite
def produced_matrices(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    A = draw(rational_matrix(p))
    B = draw(rational_matrix(p))
    F = skew_to_mat(draw(full_support_poly(p)))
    return p, A, B, F


@settings(deadline=None, max_examples=60)
@given(produced_matrices())
def test_every_producer_gives_canonical_int_rows(case):
    p, A, B, F = case
    det, report = det_mul(F, B)
    assert report.t_used == p - 1 or not any(map(any, B.nums))
    made = [A, B, F, naive_mul(A, B), A @ B, naive_mul(F, B), det]
    for M in made:
        assert_canonical(M)
    assert naive_mul(A, B) == A @ B == RatMatrix(p, fraction_product(A.rows, B.rows))
    assert det == naive_mul(F, B)
    for M in made:
        for N in made:
            assert (M == N) == (M.rows == N.rows)


def test_zero_identity_and_transpose_are_canonical():
    for p in (3, 7, 31):
        Z, I = RatMatrix.zeros(p), RatMatrix.identity(p)
        for M in (Z, I, -I, I.transpose(), (I.scale(Fraction(2, 3)) @ I).transpose()):
            assert_canonical(M)
        assert Z == RatMatrix(p, [[0] * (p - 1)] * (p - 1))
        assert I == RatMatrix(p, [[int(i == j) for j in range(p - 1)] for i in range(p - 1)])


def test_products_and_pullbacks_never_build_the_fraction_view(monkeypatch):
    # the operands are naive_mul's and skew_to_mat's outputs, so none has
    # a view yet; with `rows` patched to raise, any read of it fails the test
    p = 31
    ctx = shared_ctx(p)
    rng = seeded(13)
    third = RatMatrix.identity(p).scale(Fraction(1, 3))
    sparse = naive_mul(random_layered(ctx, [4], rng.getrandbits(32)), third)
    wide = naive_mul(third, random_layered(ctx, range(8), rng.getrandbits(32)))
    dense = naive_mul(skew_to_mat(SkewPoly(ctx, {e: rand_elem(ctx, rng, den_bound=7)
                                                 for e in range(p - 1)})), third)
    pairs = ((sparse, sparse), (sparse, wide), (wide, sparse), (dense, sparse))

    def no_view(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(RatMatrix, "rows", property(no_view))
    naive = [naive_mul(A, B) for A, B in pairs]
    det = [det_mul(A, B) for A, B in pairs]
    pulled = [mat_to_skew(M, ctx) for M in (sparse, wide, dense)]
    monkeypatch.undo()

    assert [f.sparsity for f in pulled] == [1, 8, p - 1]
    assert [skew_to_mat(f) for f in pulled] == [sparse, wide, dense]
    assert det[-1][1].t_used == p - 1  # read off the rows, no interpolation
    for (A, B), got, (product, _) in zip(pairs, naive, det):
        assert got == product == RatMatrix(p, fraction_product(A.rows, B.rows))


def test_matrix_files_round_trip_without_the_fraction_view(monkeypatch):
    text = serialize_matrix(rand_rational_matrix(7, seeded(17), bound=99, den_bound=12))
    assert "/" in text and "-" in text

    def no_view(self):
        raise AssertionError("the Fraction view was built")

    monkeypatch.setattr(RatMatrix, "rows", property(no_view))
    M = parse_matrix(text)
    again = serialize_matrix(M)
    monkeypatch.undo()

    assert again == text
    assert_canonical(M)
    assert M == RatMatrix(7, [[Fraction(tok) for tok in line.split(" ")]
                              for line in text.splitlines()[1:]])
