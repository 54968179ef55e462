"""Matrix multiplication through sparse skew polynomials.

Three routes to the same exact product of (p-1) x (p-1) rational matrices:

  naive_mul  schoolbook ground truth: one int product of the two factors,
             rows and columns scaled by their denominators' lcms, each
             product row one sum of p-1 products with packed rows;
  det_mul    deterministic: one cost model prices the whole direct
             route against the rows stage; where the route can win, scan
             each factor's rows modulo a prime for its support and decide
             once, on the two supports and their exponent sumset of size
             t: the direct route pulls both factors back on their
             supports, certified exactly, and pushes their product
             forward; every other pair, and a failed certificate, takes
             the rows stage, naive_mul's int product of all p-1 rows;
  mc_mul     Monte Carlo: one pass over the rows of A*B, the product's
             values: det's scan stops early with a support, det's fit
             solves and certifies it on the rows read and one randomized
             check accepts it, else the rest of the rows are the product.

Randomness is pinned to Python's Mersenne Twister (random.Random) seeded
with an explicit 64-bit unsigned seed; verification vectors consume the
bits of one getrandbits(p-1) word most-significant-bit first.  Identical
(inputs, seed) give bit-identical outputs and reports.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import random
import time
from collections import namedtuple
from fractions import Fraction

from .cyclotomic import shared_ctx
from .multiply import RationalProduct, rational_product
from .skewpoly import (_BerlekampMassey, _fit, _locator_roots, _modulus, _residue, _scaled_row,
                       sp_mul)
from .transform import RatMatrix, _product_of_rows, mat_to_skew, product_matrix, skew_to_mat

MAX_SEED = 2 ** 64


class Algorithm(enum.Enum):
    NAIVE = "naive"
    DETERMINISTIC = "det"
    MONTE_CARLO = "mc"


class FreivaldsResult(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not equal"


class MulReport(namedtuple("MulReport", ("algorithm", "t_used", "iterations",
                                         "rational_mul_count", "wall_time", "final_T",
                                         "fallback", "product"),
                           defaults=(0, 0, 0, 0.0, 0, False, ""))):
    """Instrumentation attached to every multiplication.

    An immutable named tuple: algorithm is an Algorithm, wall_time a float
    in seconds, product a str, fallback a bool and the other fields ints;
    r._replace(field=value) gives a changed copy.  It is not a dataclass,
    so that importing the package does not import dataclasses (and with
    it inspect), which would cost every CLI process about 10 ms.

    rational_mul_count is a closed form in p: (p-1)^3 for naive_mul and for
    det_mul's rows stage, which is naive_mul's int product; 2 t (p-1)^2 on
    det_mul's direct route, for t = t_used points each charged as a row of
    A*B, a nominal count, since the route evaluates nothing; 2 m (p-1)^2
    for the m rows of A*B mc_mul computed.  For mc_mul: iterations is the
    number of randomized checks run, 1 or 2; final_T the Berlekamp-Massey
    length at which its scan of the product's rows ended, at most the
    product's sparsity; t_used the accepted candidate's sparsity, or p-1
    for the product assembled from all its rows, or 0 on fallback, which
    flags that the assembled product failed its check and was returned
    anyway, a bug rather than an input condition.  product is the route
    det_mul formed the product by, "direct" or "rows" (see det_mul), and
    is empty for naive_mul and mc_mul.  For det_mul, t_used is the
    support bound the product was formed under: on the direct route the
    size t of the sumset S_A + S_B of the two scanned supports, which are
    the pullbacks' own; on the rows stage p-1, every exponent of Z_(p-1).
    wall_time is measured, never asserted.
    """

    __slots__ = ()


def _check_pair(a: RatMatrix, b: RatMatrix):
    if not isinstance(a, RatMatrix) or not isinstance(b, RatMatrix):
        raise TypeError("expected RatMatrix operands")
    if a.p != b.p:
        raise ValueError(f"dimension mismatch: p={a.p} vs p={b.p}")


def _check_seed(seed):
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _check_probability(value, name):
    prob = Fraction(value)
    if not 0 < prob < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return prob


def rounds_for(mu) -> int:
    """Number of verification rounds: the least k with 2^k >= 1/mu, exactly."""
    prob = _check_probability(mu, "mu")
    num, den = prob.numerator, prob.denominator  # 1/mu = den/num
    k = 0
    while (num << k) < den:
        k += 1
    return k


def _mat_vec(rows, vec):
    return [sum(a * b for a, b in zip(row, vec) if b) for row in rows]


def _sum_columns(rows, cols):
    return [sum([row[j] for j in cols]) for row in rows]


def _picks(mu, seed: int, n: int):
    """Each verification round's 0/1 vector y in {0,1}^n, as the columns it
    picks: rounds_for(mu) rounds, each one getrandbits(n) word of
    random.Random(seed), bit j of y read most-significant-bit first.  The
    one draw that freivalds and _freivalds_on_ints consume."""
    rng = random.Random(seed)
    for _ in range(rounds_for(mu)):
        word = rng.getrandbits(n)
        yield [j for j in range(n) if (word >> (n - 1 - j)) & 1]


def _columns(picked):
    """The getter of a row's picked columns, as a tuple even for one column;
    their sum is the row's product with the 0/1 vector that picks them."""
    if len(picked) == 1:
        j = picked[0]
        return lambda row: (row[j],)
    return operator.itemgetter(*picked)


def _row_scaled(M: RatMatrix):
    """(scales, rows): the lcm of each row of M's denominators, and the ints
    it times the row (multiply._scaled's rows); a row over 1 takes no lcm
    and is M's own."""
    ones = (1,) * (M.p - 1)
    scales = [1 if dens == ones else math.lcm(*dens) for dens in M.dens]
    return scales, [_scaled_row(num, dens, s) for num, dens, s in zip(M.nums, M.dens, scales)]


def _row_over(num, dens, t: int):
    """(k, ints): the row num/dens times k t, for k = 1 when t is a multiple
    of every denominator, as for each row of a true product, with no lcm
    taken, else for the least k that clears them all (lcm(t, dens) = k t).
    A row over 1 skips the test."""
    if dens.count(1) != len(dens) and any(map(operator.mod, itertools.repeat(t), dens)):
        s = math.lcm(t, *dens)
        return s // t, _scaled_row(num, dens, s)
    return 1, _scaled_row(num, dens, t)


def naive_mul(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """Exact schoolbook product; the oracle every other route is checked against.

    The product runs on the factors' ints (`rational_product`): A's rows
    and B's columns are scaled by their own denominators' lcms, each row of
    the scaled B is packed into one int, and each row of the int product
    is one sum of p-1 (int x packed row) products (`int_rows`; a
    product whose entries need slots wider than 64 bits takes the
    dot-product loop instead).  Each entry is put over its row's and column's scales and
    reduced, one map(gcd) per row and none for a row over 1.  No Fraction
    is built.
    """
    _check_pair(A, B)
    return product_matrix(A, B)


def _over_one(M: RatMatrix) -> bool:
    """Whether every entry of M is an int.  tuple.count tries identity
    first, so rows of denominators that share one tuple, as
    RatMatrix._reduced builds them for the products and the pushforward,
    cost a pointer comparison each rather than p-1 int comparisons."""
    row = M.dens[0]
    return row == (1,) * len(row) and M.dens.count(row) == len(row)


def _words(bits: int) -> int:
    """The width the cost model reads off the rows stage's slot bits
    (RationalProduct.bits): 0 where the int product runs on packed slots
    of at most 64 bits, else the 64-bit words of a product entry."""
    return bits // 64 + 1 if bits > 64 else 0


def _least_words(A: RatMatrix, B: RatMatrix) -> int:
    """A lower bound on the rows stage's width (_words), from the first row
    of each factor alone: the stage scales rows and columns by their lcms,
    which only lengthens an entry.  Where it is past 64 bits, the width is
    priced on it, and factors with denominators are not scaled for it."""
    x, y = A.nums[0], B.nums[0]
    bound = len(y) * max(max(x), -min(x), 1) * max(max(y), -min(y))
    return _words(bound.bit_length() + 1) if bound >> 63 else 0


def _rows_cost(p: int, integral: bool, words: int) -> float:
    """The rows stage's cost, in microseconds of the host the model was
    fitted on (README, "Route cost"): the (p-1)^2 packed terms of the int
    product, about 2.3 times as dear where a factor has denominators (the
    row and column scales and the gcds), or, past 64-bit slots,
    cubic_multiply's (p-1)^3 products of `words`-word ints."""
    n = p - 1
    if words:
        scales = 0 if integral else 0.5 + 0.035 * words
        return n * n * (0.45 + scales + n * (0.09 + 0.00107 * words * words))
    return n * n * (0.27 + 0.00076 * n if integral else 0.62 + 0.0009 * n)


def _mat_to_skew_cost(p: int, over_one: bool) -> float:
    """mat_to_skew's cost on one factor: one packed cyclic correlation."""
    return p * p * (0.16 + 0.0005 * p if over_one else 0.24 + 0.00036 * p)


def _fit_cost(s: int, p: int, over_one: bool) -> float:
    """The fit's cost on one factor of s terms (skewpoly._fit): its O(p s)
    certificate, p-1 values of s shifted adds each, and its O(s^2) packed
    solve, products of p-slot words."""
    return ((0.025 if over_one else 0.10) * p * p + (1.4 if over_one else 1.8) * p * s
            + 0.0011 * p * p * s * s)


def _scan_cost(s: int, p: int, over_one: bool) -> float:
    """The scan of a factor of s terms, its 2s + 1 rows, and its root search."""
    return (2 * s + 1) * (2.4 + 0.05 * p if over_one else 3.1 + 0.14 * p) + 0.054 * p * (s + 1)


def _direct_cost(p: int, over_a: bool, over_b: bool, s_a: int, s_b: int, t: int, words: int,
                 scans: bool = False) -> float:
    """The direct route's cost, after the scans or, with `scans`, with them:
    a fixed part (the factors' rows in l order, the product's RatMatrix),
    each factor's pullback (the fit or mat_to_skew, whichever costs less),
    s_a s_b field products (sp_mul) and the pushforward of t terms.  Past
    64-bit slots every step costs 2.4 + 0.05 w times as much, for
    w = `words`, and each field product adds a Kronecker product of p w
    words (Karatsuba's exponent, log2 3)."""
    steps = (40 + 0.012 * p * p + _pullback_cost(s_a, p, over_a) + _pullback_cost(s_b, p, over_b)
             + (0.042 if over_a and over_b else 0.18) * p * p + 0.45 * p * t)
    if scans:
        steps += _scan_cost(s_a, p, over_a) + _scan_cost(s_b, p, over_b)
    products = s_a * s_b * (2.7 + 0.37 * p)
    if words:
        steps *= 2.4 + 0.05 * words
        products += s_a * s_b * 0.0187 * (p * words) ** 1.58
    return steps + products


def _pullback_cost(s: int, p: int, over_one: bool) -> float:
    """The pullback _pullback takes for a factor of s terms."""
    return min(_fit_cost(s, p, over_one), _mat_to_skew_cost(p, over_one))


@functools.lru_cache(maxsize=None)
def _reach(p: int, over_a: bool, over_b: bool, words: int) -> int:
    """T', the largest s for which the direct route, scans and all, costs
    at most the rows stage on the pair of a one-term factor and an s-term
    one, whose sumset has size s; at most (p-2)//2, since a scan stops early
    on s terms only after 2s + 1 of the p-1 rows.

    The route's cost grows with s_A s_B + t, and t >= max(s_A, s_B) when
    both factors are nonzero: a factor with more than T' terms takes the
    rows stage whatever its nonzero partner, so det_mul scans under T' and
    scans nothing where T' = 0."""
    rows = _rows_cost(p, over_a and over_b, words)
    reach = 0
    while reach < (p - 2) // 2 and _direct_cost(p, over_a, over_b, 1, reach + 1, reach + 1,
                                                words, scans=True) <= rows:
        reach += 1
    return reach


def _scan(rows, bound: int, p: int):
    """The scan of a matrix's rows q(1), q(2), ... modulo a prime, each row
    its normal-coordinate numerators over one denominator: (conn, L).  It
    stops early with a recurrence, its `conn`, whose locator's roots
    (skewpoly._locator_roots) are a candidate support, or ends with None;
    L is the Berlekamp-Massey length at the end.  det_mul scans each
    factor (_factor_rows), mc_mul the product.

    Row q(l) is the map at beta^l, sum a_i (beta^(r^(e_i)))^l for
    f = sum a_i sigma^(e_i): a linear recurrence in l of length #f.
    beta -> zeta, for the prime q = 1 (mod p) of skewpoly._modulus, is a
    ring map on every Z[1/D][beta] with D prime to q, so the rows' images
    (skewpoly._residue) satisfy the image of that recurrence: L <= #f at
    every step, and L > bound proves #f > bound (det's density guard).
    The scan stops early at a zero discrepancy at step n >= 2L (early
    termination; Kaltofen & Lee, J. Symb. Comput. 2003), so s <= bound
    terms cost 2s + 1 rows.  It ends with None once L > bound, when q
    divides a row's denominator, or after min(2 bound + 1, p-1) rows.
    Later rows are never read, so `rows` may compute them lazily.  A
    support is only a candidate, which the caller certifies or gives up.
    """
    q, _, nodes = _modulus(p)
    recurrence = _BerlekampMassey(q)
    for n, (num, den) in enumerate(itertools.islice(rows, 2 * bound + 1)):
        x = _residue(num, den, q, nodes)
        if x is None:
            break
        if recurrence.add(x):
            if recurrence.length > bound:
                break
        elif n >= 2 * recurrence.length:
            return recurrence.conn, recurrence.length
    return None, recurrence.length


def _factor_rows(M: RatMatrix, over_one: bool):
    """M's rows in l order (ctx.to_power, as in _pullback) for _scan: over
    1 where M is (`over_one`), else each scaled by its lcm as it is read."""
    ctx = shared_ctx(M.p)
    if over_one:
        return zip(ctx.to_power(M.nums), itertools.repeat(1))
    return ((_scaled_row(num, dens, den := math.lcm(*dens)), den)
            for num, dens in zip(ctx.to_power(M.nums), ctx.to_power(M.dens)))


def _scanned(A: RatMatrix, B: RatMatrix, over_a: bool, over_b: bool, bound: int):
    """(S_A, S_B, t) from both factors' scans under `bound` (_scan), t the
    size of the sumset S_A + S_B, or None: where a scan ends with None, or
    a locator has fewer than L roots among the nodes
    (skewpoly._locator_roots)."""
    p = A.p
    conns = []
    for M, over_one in ((A, over_a), (B, over_b)):
        conn, _ = _scan(_factor_rows(M, over_one), bound, p)
        if conn is None:
            return None
        conns.append(conn)
    # the roots only once neither scan has sent the pair to rows
    s_a, s_b = (_locator_roots(conn, p) for conn in conns)
    if s_a is None or s_b is None:
        return None
    return s_a, s_b, len({(x + y) % (p - 1) for x in s_a for y in s_b})


def _pays(p: int, over_a: bool, over_b: bool, supports, words: int) -> bool:
    """Whether the direct route on the scanned supports costs at most the
    rows stage of width `words` (_words)."""
    s_a, s_b, t = supports
    return (_direct_cost(p, over_a, over_b, len(s_a), len(s_b), t, words)
            <= _rows_cost(p, over_a and over_b, words))


def _supports(A: RatMatrix, B: RatMatrix, over_a: bool, over_b: bool, product):
    """det_mul's route for two nonzero factors A and B, decided once before
    any exact work: (S_A, S_B, t) for the direct route, with t the size of
    the sumset S_A + S_B, or None for the rows stage.

    One cost model prices both (_direct_cost, _rows_cost).  Where the
    direct route can win even against packed rows (T' = _reach > 0: p >= 61
    on short entries), both factors are scanned under T' first; a pair
    whose route costs at most packed rows goes direct with no width read.
    Otherwise the width is read as the rows stage's slot bits
    (`product.bits`, which that stage then reuses), or, where a factor has
    denominators, whose scaling that read would pay for, off the factors'
    first rows if those alone prove it past 64 bits (_least_words).  Past 64
    bits the route is priced again, after a scan under the wider reach if
    none gave supports.  A scan that ends with None, because it proved its
    factor has more terms than its bound (the density guard) or q divides
    a row's lcm, leaves the pair to rows; where the reach is 0 (p <= 31 on
    packed slots) no factor is scanned.
    """
    p = A.p
    reach = _reach(p, over_a, over_b, 0)
    supports = None
    if reach:
        supports = _scanned(A, B, over_a, over_b, reach)
        if supports is not None and _pays(p, over_a, over_b, supports, 0):
            return supports
    words = (not (over_a and over_b) and _least_words(A, B)) or _words(product.bits)
    if not words:  # packed slots, priced above
        return None
    wider = _reach(p, over_a, over_b, words)
    if supports is None and wider > reach:
        supports = _scanned(A, B, over_a, over_b, wider)
    return supports if supports is not None and _pays(p, over_a, over_b, supports, words) else None


def _pullback(M: RatMatrix, support, over_one: bool, ctx):
    """M's pullback on its scanned support, or None where the support is not
    M's: the fit of M's rows on it (skewpoly._fit) where that costs no more
    than mat_to_skew (_fit_cost), else mat_to_skew, compared with the
    support.  Row q(l) is M's value at beta^l, so M's rows in l order are
    ctx.to_power(M.nums): the permutation to_power applies to a vector's
    coordinates, one cached itemgetter.  The fit solves the support's
    coefficients from rows q(1) .. q(s) and certifies the candidate
    against all p-1 rows, after which its matrix is M; its support is then
    the scanned one, since L <= #f and the support has L terms."""
    p = ctx.p
    if _fit_cost(len(support), p, over_one) <= _mat_to_skew_cost(p, over_one):
        return _fit(ctx.to_power(M.nums), None if over_one else ctx.to_power(M.dens), support, ctx)
    f = mat_to_skew(M, ctx)
    return f if f.support() == support else None


def det_mul(A: RatMatrix, B: RatMatrix) -> tuple[RatMatrix, MulReport]:
    """Deterministic skew-sparse product: always exactly equals naive_mul.

    A zero factor makes the product zero, which det_mul returns at once,
    with no scan and no pullback, reporting product "direct", t_used 0 and
    a count of 0.  Otherwise one cost model prices the whole direct route
    against the rows stage (_direct_cost, _rows_cost, README "Route
    cost"), and the route is decided once, on the scanned supports
    (_supports).  The model's inputs are p, whether each factor is over 1,
    the supports and the rows stage's slot width, read by that stage's own
    max (RationalProduct.bits) only where it can change the route.  T', the
    model's reach (_reach), is the largest sparsity at which the route,
    scans included, still costs no more than rows with a one-term partner:
    on one-digit entries, whose product fits packed slots, 0 at p <= 31,
    3 at p=61 and 8-12 at p=127; past 64-bit slots, where the rows stage
    loops, up to (p-2)//2 from p=13 on.  Where T' = 0 nothing is scanned.
    Otherwise each factor's rows are read modulo a 30-bit prime q and
    Berlekamp-Massey runs on them under T' (_scan): an early stop, after
    2s+1 rows for an s-term factor, gives a recurrence whose locator's
    roots are a candidate support S; None means the recurrence grew past
    T' (which proves the factor has more terms: the density guard), q
    divides a row's lcm, or the rows ran out.  The pair takes one of two
    exact routes:
      direct    where both scans stop early, both locators have exactly L
                roots, and the model prices the route on |S_A|, |S_B| and
                t = |S_A + S_B| at most the rows stage.  Each factor is
                pulled back on its own support (_pullback), by whichever
                the model prices lower: the fit (skewpoly._fit, which also
                solves and checks mc's candidate), its coefficients solved
                from rows q(1) .. q(s), once more in provable slots if the
                guessed ones overflow, and certified exactly, the
                candidate's value at beta^l equal to row q(l) for all
                l = 1..p-1, compared on ints; or mat_to_skew (one cyclic
                correlation packed into a big int, or O(p^3) int additions
                when its corrected coefficients are too long for 64-bit
                slots), whose support must be S.  The product is
                skew_to_mat(sp_mul(f_B, f_A)): s_A s_B field products, each
                one big-int product, then the pushforward (p t big-int
                shifted adds); A @ B is the matrix of f_B * f_A
                (phi_orientation).  t_used is t.
      rows      every other pair, and a pair whose certificate fails or
                whose mat_to_skew pullback is not on its scanned support:
                the int product of A and B, naive_mul's, whose rows are the
                product map's values at all p-1 points.  t_used is p-1.
    A pullback is checked to be the factor's own, so correctness never
    rests on q, on the early stop or on the model.  The paper's evaluation
    at t points with known-support interpolation is not a route: it beat
    both of these in 2 of 105 cells timed, and took up to 12x the faster
    of them where the sumset nearly fills Z_(p-1).  The report names the
    route in `product`; rational_mul_count is the nominal 2 t (p-1)^2 on
    the direct route and naive_mul's (p-1)^3 on the rows stage.
    """
    _check_pair(A, B)
    start = time.perf_counter()
    p = A.p
    if not any(map(any, A.nums)) or not any(map(any, B.nums)):
        return RatMatrix.zeros(p), MulReport(Algorithm.DETERMINISTIC, product="direct",
                                             wall_time=time.perf_counter() - start)
    over_a, over_b = _over_one(A), _over_one(B)
    rows = RationalProduct(A.nums, A.dens, B.nums, B.dens)
    supports = _supports(A, B, over_a, over_b, rows)
    if supports is not None:
        ctx = shared_ctx(p)
        f_a = _pullback(A, supports[0], over_a, ctx)
        f_b = None if f_a is None else _pullback(B, supports[1], over_b, ctx)
        if f_b is not None:
            t = supports[2]
            return skew_to_mat(sp_mul(f_b, f_a)), MulReport(
                Algorithm.DETERMINISTIC, t_used=t, rational_mul_count=2 * t * (p - 1) ** 2,
                wall_time=time.perf_counter() - start, product="direct")
    result = _product_of_rows(p, *rows.product())
    return result, MulReport(Algorithm.DETERMINISTIC, t_used=p - 1,
                             rational_mul_count=(p - 1) ** 3,
                             wall_time=time.perf_counter() - start, product="rows")


def freivalds(M: RatMatrix, A: RatMatrix, B: RatMatrix, mu, seed: int) -> FreivaldsResult:
    """Randomized check of M = A*B with one-sided error at most mu.

    Runs ceil(log2(1/mu)) independent rounds; each draws y uniformly from
    {0,1}^(p-1) (_picks) and compares M y with A (B y) exactly.  A true
    product is always accepted; a wrong one survives each round with
    probability at most 1/2.  The check runs on Fractions, reading each
    matrix's `rows` view once.  _freivalds_on_ints is the same check, with
    the same vectors and verdicts, on ints, and is the one mc and `verify`
    run; freivalds is its reference in the tests, and stays on Fractions,
    as the check perfbench runs in process, until the benchmark's memory
    metric no longer grows with the number of checks it times (ROADMAP).
    """
    _check_pair(A, B)
    _check_pair(M, A)
    _check_seed(seed)
    m_rows, a_rows, b_rows = M.rows, A.rows, B.rows
    for picked in _picks(mu, seed, A.p - 1):
        # y is 0/1, so M y and B y are sums of the picked columns
        my = _sum_columns(m_rows, picked)
        aby = _mat_vec(a_rows, _sum_columns(b_rows, picked))
        if my != aby:
            return FreivaldsResult.NOT_EQUAL
    return FreivaldsResult.EQUAL


def _freivalds_on_ints(M: RatMatrix, A: RatMatrix, B: RatMatrix, mu,
                       seed: int) -> FreivaldsResult:
    """freivalds' check on ints: the same rounds and 0/1 vectors (_picks),
    and so the same verdict for every (M, A, B, mu, seed); mc_mul's checks
    and `verify`'s.

    A's and B's rows are scaled to ints by their own lcms once
    (_row_scaled): a_i for A's row i, b_k for B's row k, and L = lcm(b).
    In each round the int sums of B's picked columns are b_k (B y)_k; u,
    those times L / b_k, is L B y, and dot_i, A's int row i times u, is
    a_i L (A B y)_i.  M's row i is put over a_i L (_row_over), which every
    row of the true product divides into ints, so its picked sum is
    a_i L (M y)_i and equals dot_i exactly when (M y)_i = (A B y)_i; a
    row with a denominator that does not divide a_i L is put over
    k a_i L instead, and A's row i taken k times.  No Fraction is built, no
    slot packed and no product of two scales taken per round, so long
    entries take the same path.  M's rows are compared one at a time, each
    scaled on first use and kept, so a wrong product stops at its first
    differing row with the rest of M unscaled.
    """
    _check_pair(A, B)
    _check_pair(M, A)
    _check_seed(seed)
    a_scales, a_rows = _row_scaled(A)
    b_scales, b_rows = _row_scaled(B)
    big_l = math.lcm(*b_scales)
    to_l = [big_l // b for b in b_scales]
    m_rows = [None] * (A.p - 1)
    mul = operator.mul
    for picked in _picks(mu, seed, A.p - 1):
        if not picked:  # y = 0: M y = A (B y) = 0
            continue
        get = _columns(picked)
        u = [sum(get(row)) * s for row, s in zip(b_rows, to_l)]
        for i, a_row in enumerate(a_rows):
            m_row = m_rows[i]
            if m_row is None:
                k, m_row = _row_over(M.nums[i], M.dens[i], a_scales[i] * big_l)
                m_rows[i] = m_row
                if k != 1:
                    a_rows[i] = a_row = [k * x for x in a_row]
            if sum(get(m_row)) != sum(map(mul, a_row, u)):
                return FreivaldsResult.NOT_EQUAL
    return FreivaldsResult.EQUAL


def mc_mul(A: RatMatrix, B: RatMatrix, nu, seed: int) -> tuple[RatMatrix, MulReport]:
    """Monte Carlo product: correct with probability at least 1 - nu.

    One pass over the rows of A*B: row q(l) is the product's value at
    v_1^l = beta^l, so the rows in l order are the product polynomial's
    values.  The int kernel (`rational_product`, which packs B once)
    computes each when det's scan (_scan) asks for it, under the bound
    (p-2)//2, the longest recurrence whose early stop fits in p-1 rows.
    On an early stop whose locator has exactly L roots, the support
    (skewpoly._locator_roots, as in _supports), det's fit (skewpoly._fit)
    solves the coefficients and certifies the candidate against every row
    read, and the candidate's matrix is checked once at mu = nu.  A product
    of t <= (p-2)//2 terms costs 2t + 1 rows, unless the prime divides a
    denominator or kills a coefficient.

    Every other ending (a scan that ends with None, a wrong root count, a
    failed fit, a rejected candidate) computes the rows not yet read, which
    are the exact product, and checks it once more at nu; should that
    fail, it is returned anyway with the report flagged (MulReport), a loud
    sign of a bug.  The early stop's is the only probabilistic candidate, and a
    wrong one passes its check with probability at most nu, so the result
    is A*B with probability at least 1 - nu.  Both checks run on ints
    (_freivalds_on_ints: freivalds' rounds, vectors and verdicts, with no
    Fraction), their seeds drawn from random.Random(seed).
    """
    _check_pair(A, B)
    nu = _check_probability(nu, "nu")
    _check_seed(seed)
    start = time.perf_counter()
    p = A.p
    n = p - 1
    ctx = shared_ctx(p)
    master = random.Random(seed)
    d, e, product_rows = rational_product(A.nums, A.dens, B.nums, B.dens)
    big_e = math.lcm(*e)
    scales = [big_e // ek for ek in e]
    S = [None] * n
    nums, dens = [], []

    def values():
        # row q(l) over d E, E = lcm(e), is the value at beta^l
        for k in ctx.q_perm:
            S[k - 1] = row = product_rows([k - 1])[0]
            nums.append(row if big_e == 1 else tuple(map(operator.mul, row, scales)))
            dens.append(d[k - 1] * big_e)
            yield nums[-1], dens[-1]

    conn, length = _scan(values(), (p - 2) // 2, p)
    support = None if conn is None else _locator_roots(conn, p)
    checks = 0
    if support is not None:
        f = _fit(nums, None if max(dens) == 1 else [(den,) * n for den in dens], support, ctx)
        if f is not None:
            candidate = skew_to_mat(f)
            checks = 1
            if (_freivalds_on_ints(candidate, A, B, nu, master.getrandbits(64))
                    is FreivaldsResult.EQUAL):
                return candidate, MulReport(Algorithm.MONTE_CARLO, t_used=f.sparsity, iterations=1,
                                            rational_mul_count=2 * len(nums) * n * n,
                                            wall_time=time.perf_counter() - start,
                                            final_T=length)
    missing = [i for i, row in enumerate(S) if row is None]
    for i, row in zip(missing, product_rows(missing)):
        S[i] = row
    product = _product_of_rows(p, d, e, S)
    fallback = (_freivalds_on_ints(product, A, B, nu, master.getrandbits(64))
                is not FreivaldsResult.EQUAL)
    return product, MulReport(Algorithm.MONTE_CARLO, t_used=0 if fallback else n,
                              iterations=checks + 1, rational_mul_count=2 * n ** 3,
                              wall_time=time.perf_counter() - start, final_T=length,
                              fallback=fallback)
