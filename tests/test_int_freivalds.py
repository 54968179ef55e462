"""mc's check on ints (matmul._freivalds_on_ints) against freivalds, on
Fractions, and against the rounds' definition: the same verdict for every
(M, A, B, mu, seed)."""

import math
import random

import pytest

from conftest import rand_matrix, rand_rational_matrix, seeded
from skewmm import FreivaldsResult, RatMatrix, freivalds, matmul, naive_mul, rounds_for
from skewmm.rational import Rat

# mu giving 1, 4 and 20 rounds
MUS = ("1/2", "1/16", "1/1000000")


def long_matrix(p, rng, den_bound):
    """A dense matrix of numerators past 2^64 over denominators drawn from
    1..den_bound."""
    n = p - 1
    return RatMatrix(p, [[Rat(rng.randint(-2 ** 80, 2 ** 80), rng.randint(1, den_bound))
                          for _ in range(n)] for _ in range(n)])


def factor_pairs(p):
    rng = seeded(3400 + p)
    return {
        "integral": (rand_matrix(p, rng), rand_matrix(p, rng)),
        "denominators on the left": (rand_rational_matrix(p, rng), rand_matrix(p, rng)),
        "denominators on the right": (rand_matrix(p, rng), rand_rational_matrix(p, rng)),
        "past 2^64": (long_matrix(p, rng, 1), long_matrix(p, rng, 7)),
        "zero": (RatMatrix.zeros(p), rand_rational_matrix(p, rng)),
        "identity": (rand_rational_matrix(p, rng), RatMatrix.identity(p)),
    }


def distinct_denominator_matrix(p, rng, taken, bits=40):
    """A dense matrix whose entries lie over pairwise-distinct denominators
    of `bits` bits, none of them in `taken` (which gains them), each
    entry in lowest terms as drawn."""
    n = p - 1
    rows = []
    for _ in range(n):
        row = []
        while len(row) < n:
            num, den = rng.randint(-2 ** bits, 2 ** bits), rng.randrange(2 ** (bits - 1), 2 ** bits)
            if den not in taken and math.gcd(num, den) == 1:
                taken.add(den)
                row.append(Rat(num, den))
        rows.append(row)
    return RatMatrix(p, rows)


#: a prime longer than any 40-bit denominator's factors, so an entry over it
#: has a denominator that no row scale of the factors clears
FOREIGN_PRIME = 2 ** 61 - 1


@pytest.mark.parametrize("p", (7, 13))
def test_int_check_gives_freivalds_verdict_over_long_distinct_denominators(p):
    # every row of A and B has its own lcm of n distinct 40-bit
    # denominators, so L = lcm(b) and the product's denominators run to
    # thousands of bits; the wrong products add 1 to one entry, or
    # +1/FOREIGN_PRIME and -1/FOREIGN_PRIME to two entries of one row,
    # which rounds picking both or neither of them cannot see
    rng = seeded(3700 + p)
    taken = set()
    A = distinct_denominator_matrix(p, rng, taken)
    B = distinct_denominator_matrix(p, rng, taken)
    M = naive_mul(A, B)
    n = p - 1
    plus_one = [list(row) for row in M.rows]
    plus_one[rng.randrange(n)][rng.randrange(n)] += 1
    foreign = [list(row) for row in M.rows]
    i, (j, k) = rng.randrange(n), rng.sample(range(n), 2)
    foreign[i][j] += Rat(1, FOREIGN_PRIME)
    foreign[i][k] -= Rat(1, FOREIGN_PRIME)
    candidates = [("true", M), ("entry + 1", RatMatrix(p, plus_one)),
                  ("foreign pair", RatMatrix(p, foreign))]
    verdicts = set()
    for change, candidate in candidates:
        for mu in MUS:
            for seed in range(4):
                got = matmul._freivalds_on_ints(candidate, A, B, mu, seed)
                assert got is freivalds(candidate, A, B, mu, seed), (change, mu, seed)
                if change == "true":
                    assert got is FreivaldsResult.EQUAL
                else:
                    verdicts.add(got)
    # both verdicts occur among the wrong products
    assert verdicts == {FreivaldsResult.EQUAL, FreivaldsResult.NOT_EQUAL}


def changed(M, rng, change):
    """M with one change: "entry" adds 1 to one entry, "row" adds 1 to
    every entry of one row, "denominator" multiplies one nonzero entry's
    denominator by the least prime that leaves it in lowest terms, so that
    only the denominator moves; None where M has no nonzero entry."""
    rows = [list(row) for row in M.rows]
    i, j = rng.randrange(M.n), rng.randrange(M.n)
    if change == "entry":
        rows[i][j] += 1
    elif change == "row":
        rows[i] = [x + 1 for x in rows[i]]
    else:
        nonzero = [(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        if not nonzero:
            return None
        i, j = rng.choice(nonzero)
        x = rows[i][j]
        q = next(q for q in (2, 3, 5, 7, 11, 13) if x.numerator % q)
        rows[i][j] = Rat(x.numerator, x.denominator * q)
        assert rows[i][j].numerator == x.numerator
    return RatMatrix(M.p, rows)


def by_definition(difference, n, mu, seed):
    """The rounds' verdict by definition: each round's y in {0,1}^n is one
    getrandbits(n) word, most-significant bit first, and M y equals A (B y)
    exactly when (M - A B) y is zero; `difference` holds the nonzero rows of
    M - A B, with A B the schoolbook oracle's."""
    rng = random.Random(seed)
    for _ in range(rounds_for(mu)):
        word = rng.getrandbits(n)
        y = [(word >> (n - 1 - j)) & 1 for j in range(n)]
        if any(sum(x * b for x, b in zip(row, y)) for row in difference):
            return FreivaldsResult.NOT_EQUAL
    return FreivaldsResult.EQUAL


@pytest.mark.parametrize("p", (3, 5, 7, 13, 31))
def test_int_check_gives_freivalds_verdict(p):
    # freivalds runs on Fractions, twenty rounds of a true product at p=31
    # in about 70 ms: it is compared on seeds 0..9 at p=13 and 0..3 at
    # p=31, the definition on all forty
    freivalds_seeds = range({13: 10, 31: 4}.get(p, 40))
    rng = seeded(3500 + p)
    for kind, (A, B) in factor_pairs(p).items():
        M = naive_mul(A, B)
        candidates = [("true", M)] + [(change, changed(M, rng, change))
                                      for change in ("entry", "row", "denominator")]
        for change, bad in candidates:
            if bad is None:
                continue
            difference = [row for row in (bad - M).rows if any(row)]
            for mu in MUS:
                for seed in range(40):
                    case = (kind, change, mu, seed)
                    got = matmul._freivalds_on_ints(bad, A, B, mu, seed)
                    assert got is by_definition(difference, p - 1, mu, seed), case
                    if seed in freivalds_seeds:
                        assert got is freivalds(bad, A, B, mu, seed), case
                    if change == "true":
                        assert got is FreivaldsResult.EQUAL


def test_int_check_single_entry_error_rejection_rate():
    rng = seeded(12)
    A = rand_rational_matrix(7, rng)
    B = rand_matrix(7, rng)
    rows = [list(r) for r in naive_mul(A, B).rows]
    rows[2][3] += 1
    bad = RatMatrix(7, rows)
    rejections = sum(matmul._freivalds_on_ints(bad, A, B, "1/2", seed)
                     is FreivaldsResult.NOT_EQUAL for seed in range(400))
    # one-round rejection probability is at least 1/2; allow 3 sigma of slack
    assert rejections / 400 >= 0.5 - 3 * (0.25 / 400) ** 0.5


def test_int_check_validation():
    A = RatMatrix.identity(5)
    with pytest.raises(ValueError):
        matmul._freivalds_on_ints(A, A, RatMatrix.identity(7), "1/2", 0)
    with pytest.raises(ValueError):
        matmul._freivalds_on_ints(A, A, A, "3/2", 0)
    with pytest.raises(ValueError):
        matmul._freivalds_on_ints(A, A, A, "1/2", 2 ** 64)
