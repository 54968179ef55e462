"""The int kernel behind every rational product, against a Fraction oracle.

naive_mul, RatMatrix.__matmul__ and the evaluation stage of det and mc all
scale rows of the left factor and columns of the right factor to ints and
multiply those, so naive_mul can no longer serve as their check.  Here all
three are compared with conftest's plain Fraction triple loop at p in
{3, 5, 7, 13}, on operands whose denominators go up to 3^40 and 2^61 - 1,
matrices whose entries all lie over distinct primes, and matrices with zero
rows and columns.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_product
from skewmm import (RatMatrix, batch_evaluate_via_matrices, from_normal_coords,
                    naive_mul, shared_ctx)
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
    values = batch_evaluate_via_matrices(ctx, range(1, p), A, B)
    for l, value in enumerate(values, 1):
        assert value == from_normal_coords(ctx, want[ctx.q(l) - 1])
        assert value.den > 0 and math.gcd(value.den, *value.num) == 1
