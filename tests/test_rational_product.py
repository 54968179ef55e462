"""The int kernel behind every rational product, against a Fraction oracle.

naive_mul, RatMatrix.__matmul__ and mc's pass over the product's rows all
scale rows of the left factor and columns of the right factor to ints and
multiply those through one row kernel, rational_product, so naive_mul can no
longer serve as their check.  Here all three are compared with conftest's
plain Fraction triple loop at p in {3, 5, 7, 13}, on operands whose
denominators go up to 3^40 and 2^61 - 1, matrices whose entries all lie
over distinct primes, and matrices with zero rows and columns; the kernel's
rows are asked for one at a time in mc's order as well as all at once.

The int product itself, int_rows, packs each row of the right factor
into one int of signed slots and sums p-1 (int x packed row) products per
row.  It is checked against cubic_multiply, the loop it replaces: at each
slot width with the product entries exactly at the width's bound and one
past it (past the 64-bit slot it runs cubic_multiply itself), on zero,
all-negative and edge-valued rows, on m x (p-1) left factors with m in
{0, 1, t} (a few rows at a time), at p=3, and on entries too long to pack.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_product, rand_rational_matrix, seeded
from skewmm import RatMatrix, mc_mul, naive_mul, shared_ctx
from skewmm import multiply
from skewmm.multiply import cubic_multiply, int_rows, rational_product
from skewmm.rational import Rat

PRIMES = (3, 5, 7, 13)


def _primes(count):
    found = []
    c = 2
    while len(found) < count:
        if all(c % q for q in found):
            found.append(c)
        c += 1
    return found


#: enough distinct primes for both operands at p = 13
DISTINCT = _primes(2 * 12 * 12)

denominators = st.one_of(st.integers(1, 12), st.sampled_from([3 ** 40, 2 ** 61 - 1]))
numerators = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def operand(draw, p, offset):
    n = p - 1
    kind = draw(st.sampled_from(["dense", "distinct-primes", "zero-lines", "zero"]))
    if kind == "zero":
        return RatMatrix.zeros(p)
    if kind == "distinct-primes":
        # every entry over its own prime, and no prime shared with the
        # other operand (offset)
        return RatMatrix(p, [[Rat(draw(st.integers(1, 9)), DISTINCT[offset + i * n + j])
                              for j in range(n)] for i in range(n)])
    rows = [[Rat(draw(numerators), draw(denominators)) for _ in range(n)] for _ in range(n)]
    if kind == "zero-lines":
        zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
        zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n))
        rows = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    return RatMatrix(p, rows)


@st.composite
def operand_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(operand(p, 0)), draw(operand(p, (p - 1) ** 2))


@settings(deadline=None, max_examples=80)
@given(operand_pairs())
def test_products_match_the_fraction_oracle(pair):
    A, B = pair
    p = A.p
    ctx = shared_ctx(p)
    want = fraction_product(A.rows, B.rows)
    assert naive_mul(A, B) == RatMatrix(p, want)
    assert A @ B == RatMatrix(p, want)
    # the rows one at a time in l order, row q(l) for l = 1..p-1, as mc asks
    # for them, then all at once: entry (i, k) is S[i][k] / (d_i e_k)
    d, e, rows = rational_product(A.nums, A.dens, B.nums, B.dens)
    one_at_a_time = {k - 1: rows([k - 1])[0] for k in ctx.q_perm}
    assert [one_at_a_time[i] for i in range(p - 1)] == rows(range(p - 1))
    for i, row in one_at_a_time.items():
        assert [Rat(s, d[i] * ek) for s, ek in zip(row, e)] == list(want[i])
    assert mc_mul(A, B, 2 ** -40, p)[0] == RatMatrix(p, want)


def spy_slot_bytes(monkeypatch):
    """The slot sizes, in bytes, that the int_rows calls from here on
    read off their one _word_bytes call each: None for a product too wide
    to pack."""
    sizes = []
    real = multiply._word_bytes

    def spy(bits):
        sizes.append(real(bits))
        return sizes[-1]

    monkeypatch.setattr(multiply, "_word_bytes", spy)
    return sizes


def spy_cubic_calls(monkeypatch):
    """The row counts of the cubic_multiply calls made from here on."""
    calls = []

    def spy(x_rows, y_rows):
        calls.append(len(x_rows))
        return cubic_multiply(x_rows, y_rows)

    monkeypatch.setattr(multiply, "cubic_multiply", spy)
    return calls


#: a slot size in bytes and the next, None past the widest struct slot
WIDTHS = ((1, 2), (2, 4), (4, 8), (8, None))


@pytest.mark.parametrize("p", (3, 13, 31))
@pytest.mark.parametrize("size, next_size", WIDTHS)
@pytest.mark.parametrize("x_entry", (1, 3))
def test_slot_width_at_the_edge_of_the_bound(monkeypatch, p, size, next_size, x_entry):
    # constant factors: every product entry is n x y, the bound B itself.
    # B = n x y <= 2^(w-1) - 1 is the largest a signed slot of w = 8 size
    # bits holds; y + 1 puts B past it and takes the next width, or
    # cubic_multiply past 64 bits
    n = p - 1
    y = (2 ** (8 * size - 1) - 1) // (n * x_entry)
    sizes = spy_slot_bytes(monkeypatch)
    calls = spy_cubic_calls(monkeypatch)
    for y_entry, want in ((y, size), (y + 1, next_size)):
        for sx, sy in ((1, 1), (1, -1), (-1, -1)):
            X = [[sx * x_entry] * n for _ in range(n)]
            Y = [[sy * y_entry] * n for _ in range(n)]
            assert int_rows(X, Y)(X) == [tuple(row) for row in fraction_product(X, Y)]
            assert sizes.pop() == want
            assert calls == ([] if want else [n])
            calls.clear()


ROW_KINDS = ("mixed", "negative", "zero", "edge")
ENTRY_BITS = (0, 1, 7, 8, 20, 31, 64, 100)


@st.composite
def int_factors(draw):
    """(X, Y): X is m x (p-1) with m in {0, 1, t}, Y is (p-1) x (p-1), each
    the zero matrix or rows of one kind, entries below 2^bits in size."""
    p = draw(st.sampled_from((3, 5, 7, 13, 31)))
    n = p - 1
    m = draw(st.one_of(st.just(0), st.just(1), st.integers(2, n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def factor(rows):
        bits = draw(st.sampled_from(ENTRY_BITS))
        if draw(st.integers(0, 9)) == 0:
            return [[0] * n for _ in range(rows)]
        top = 2 ** bits
        make = {"mixed": lambda: rng.randint(-top, top),
                "negative": lambda: -rng.randint(1, top),
                "zero": lambda: 0,
                "edge": lambda: rng.choice((-top, top))}
        kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=rows, max_size=rows))
        return [[make[kind]() for _ in range(n)] for kind in kinds]

    return factor(m), factor(n)


@settings(deadline=None, max_examples=200)
@given(int_factors())
def test_int_product_matches_cubic_multiply(pair):
    X, Y = pair
    assert int_rows(X, Y)(X) == cubic_multiply(X, Y)


@pytest.mark.parametrize("p", (3, 13, 31))
def test_rational_products_inside_the_bound_never_loop(monkeypatch, p):
    # denominators up to 7 scale the entries by at most lcm(1..7) = 420 per
    # side, far inside 64-bit slots: naive_mul and @ never run the loop
    rng = seeded(2700 + p)
    A, B = rand_rational_matrix(p, rng), rand_rational_matrix(p, rng)
    want = RatMatrix(p, fraction_product(A.rows, B.rows))
    calls = spy_cubic_calls(monkeypatch)
    assert naive_mul(A, B) == want
    assert A @ B == want
    assert calls == []
