"""The twisted polynomial ring Q(beta)[x; sigma] modulo x^(p-1) - 1.

Multiplication follows x * c = sigma(c) * x, and exponents reduce by
x^(p-1) = 1.  Polynomials are stored sparsely (exponent -> nonzero
coefficient), because the whole point of this representation is that the
number of stored terms -- the sparsity -- drives the cost of multiplying
the matrices these polynomials encode.

Evaluation treats a polynomial as the linear map sum a_i sigma^(e_i) on
Q(beta); interpolation recovers the polynomial from values of that map at
the points v_1, v_1^2, v_1^3, ...  Both directions are exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .cyclotomic import (CycElem, _check_same_ctx, _is_prime, _slot_ones, _slot_structs,
                         _widened, _word_bytes, cyc_mul, cyc_sigma, power_of_v1, rotated_sum,
                         shared_ctx)


class InterpolationError(RuntimeError):
    """Internal inconsistency during interpolation (index bug or a sparsity
    bound below the true sparsity)."""


class SupportSet:
    """Sorted set of exponents in Z_(p-1)."""

    __slots__ = ("elems",)

    def __init__(self, elems=(), modulus=None):
        if modulus is not None:
            elems = (e % modulus for e in elems)
        elems = tuple(sorted(set(elems)))
        for e in elems:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
        self.elems = elems

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, e):
        return e in self.elems

    def __eq__(self, other):
        if isinstance(other, SupportSet):
            return self.elems == other.elems
        if isinstance(other, (set, frozenset, tuple, list)):
            return self.elems == tuple(sorted(set(other)))
        return NotImplemented

    def __repr__(self):
        return "{" + ", ".join(str(e) for e in self.elems) + "}"


class SkewPoly:
    """Sparse skew polynomial over a fixed context.

    `terms` maps exponents in {0..p-2} to nonzero coefficients; the
    constructor reduces exponents, merges collisions and drops zeros, so
    sparsity() always equals the number of genuinely nonzero terms.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        n = ctx.p - 1
        clean = {}
        for e, c in terms.items():
            if not c:
                continue
            e %= n
            prev = clean.get(e)
            merged = c if prev is None else prev + c
            if merged:
                clean[e] = merged
            else:
                clean.pop(e, None)
        self.ctx = ctx
        self.terms = clean

    @classmethod
    def zero(cls, ctx) -> SkewPoly:
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx) -> SkewPoly:
        return cls(ctx, {0: ctx.one})

    @classmethod
    def monomial(cls, ctx, exponent: int, coeff: CycElem | None = None) -> SkewPoly:
        """coeff * x^exponent (coeff defaults to 1)."""
        return cls(ctx, {exponent: ctx.one if coeff is None else coeff})

    def support(self) -> SupportSet:
        return SupportSet(self.terms)

    @property
    def sparsity(self) -> int:
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.ctx.p == other.ctx.p and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "SkewPoly(0)"
        return "SkewPoly(" + " + ".join(f"({c!r})*x^{e}" for e, c in self.sorted_terms()) + ")"


def sp_add(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Coefficientwise sum; terms cancelling to zero are dropped."""
    _check_same_ctx(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        prev = terms.get(e)
        terms[e] = c if prev is None else prev + c
    return SkewPoly(f.ctx, terms)


def sp_neg(f: SkewPoly) -> SkewPoly:
    return SkewPoly(f.ctx, {e: -c for e, c in f.terms.items()})


def sp_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Exact twisted product in the quotient ring.

    Termwise: (a x^s) * (b x^k) = a sigma^s(b) x^(s+k), exponents mod p-1.
    """
    _check_same_ctx(f, g)
    n = f.ctx.p - 1
    acc = {}
    for ef, af in f.terms.items():
        for eg, bg in g.terms.items():
            e = (ef + eg) % n
            term = cyc_mul(af, cyc_sigma(bg, ef))
            prev = acc.get(e)
            acc[e] = term if prev is None else prev + term
    return SkewPoly(f.ctx, acc)


def sumset(f: SkewPoly, g: SkewPoly) -> SupportSet:
    """All pairwise exponent sums mod p-1: a superset of supp(f * g)."""
    n = f.ctx.p - 1
    return SupportSet((ef + eg for ef in f.terms for eg in g.terms), modulus=n)


def sp_evaluate(f: SkewPoly, b: CycElem) -> CycElem:
    """Apply the linear map sum a_e sigma^e to b."""
    acc = f.ctx.zero
    for e, c in f.sorted_terms():
        acc = acc + cyc_mul(c, cyc_sigma(b, e))
    return acc


def power_points(ctx, count: int):
    """The standard evaluation points v_1^1, v_1^2, ..., v_1^count."""
    return [power_of_v1(ctx, i) for i in range(1, count + 1)]


def values_at_beta_powers(f: SkewPoly, exponents):
    """f's map at beta^l for each l in `exponents`, laid end to end in one
    tuple: (D, values), where D is the lcm of f's coefficients' denominators
    and values holds, per exponent, D times the value's p power coordinates,
    its beta^0 slot (always 0) first.

    The term c x^e sends beta^l to c * beta^(l u) with u = r^e, so the
    value is the sum of f's t coefficient vectors (slot x for beta^x, over
    D), each rotated by its u l mod p places.  The vectors are packed once,
    vector k into a p-slot int offset by its own M_k = max|entry|
    (_packed_values), and a value is one sum of t rotated words, its beta^0
    slot subtracted on the int.  With S = sum M_k, no slot of the sum
    exceeds 2 S and no coordinate of the value exceeds 2 S in size, so the
    sums run in slots of 8, 16, 32 or 64 bits with 2 S < 2^w, and the
    coordinates of all the values are joined and read by one struct call
    from slots with 4 S < 2^w: O(t) interpreter steps and t big-int shifted
    adds per value.  Wider entries take one rotated_sum per value, O(p t)
    int additions.  No gcd either way.
    """
    ctx = f.ctx
    p = ctx.p
    terms = f.sorted_terms()
    den = math.lcm(*{c.den for _, c in terms})
    vecs = [(ctx.pow_r[e], c.vector(den)) for e, c in terms]
    bounds = [max(map(abs, vec)) for _, vec in vecs]
    out = _word_bytes((4 * sum(bounds)).bit_length())
    if out is None:
        return den, tuple(itertools.chain.from_iterable(
            [0, *rotated_sum(p, [(vec, u * l % p) for u, vec in vecs])] for l in exponents))
    raw = b"".join(_packed_values(p, vecs, bounds, exponents))
    return den, _slot_structs(len(raw) // out, out)[0].unpack(raw)


def _packed_values(p: int, vecs, bounds, exponents):
    """The values at beta^l of the (u, vec) pairs, whose max|entry| are
    `bounds`, with S = sum(bounds) and 4 S < 2^64, one per exponent, each
    as the bytes of p two's complement slots of the least width
    `out` of 1, 2, 4 or 8 bytes with 4 S < 2^(8 out), slot 0 (beta^0) zero.

    Each vector, offset by its max|entry|, is one word C of p slots of the
    least width `size` of 1, 2, 4 or 8 bytes with 2 S < 2^(8 size), kept
    doubled as C + C X^p (X = 2^w, w = 8 size): its slice of p slots
    starting at slot p - s is C rotated s places towards the top.  The t
    slices are summed with one mask at the end, which is exact because no
    slot of the sum reaches 2^w, so nothing carries out of the low p slots.
    The sum is then moved into slots of width `out` (`_widened`), if that
    is wider.  Its slot 0, c0, is its low bits; adding (2^(8 out - 1) - c0)
    to every slot removes the offsets and eliminates beta^0, leaving each
    coordinate biased into [0, 2^(8 out)), and flipping each slot's top bit
    leaves its two's complement, for one signed struct to read.
    """
    total = sum(bounds)
    size = _word_bytes((2 * total).bit_length())
    out = _word_bytes((4 * total).bit_length())
    w = 8 * size
    span = w * p
    mask = (1 << span) - 1
    low = (1 << (8 * out)) - 1
    bias = 1 << (8 * out - 1)
    ones = _slot_ones(p, out)
    top = bias * ones
    unsigned = _slot_structs(p, size)[1]
    words = []
    for (u, vec), m in zip(vecs, bounds):
        word = int.from_bytes(unsigned.pack(*[x + m for x in vec]), "little")
        words.append((u, word | (word << span)))
    for l in exponents:
        acc = sum(word >> (span - w * (u * l % p)) for u, word in words) & mask
        if out > size:
            acc = int.from_bytes(_widened(acc.to_bytes(span // 8, "little"), size, out), "little")
        acc = (acc + (bias - (acc & low)) * ones) ^ top
        yield acc.to_bytes(out * p, "little")


def interpolate_known_support(values, support: SupportSet, ctx) -> SkewPoly:
    """Recover the unique polynomial with supp(f) inside `support` from its
    values at v_1^1 .. v_1^t, where t = len(support); values[k] is
    f(v_1^(k+1)), as in sparse_interpolate.

    The values, read in normal coordinates, go to _fit, which solves them
    on the support and checks the candidate against them: the transposed
    Vandermonde system has one solution, so a candidate that fits all t is
    it, and one that misses only outgrew the guessed slots, which the
    provable width then holds.
    """
    t = len(support)
    if len(values) != t:
        raise ValueError(f"need {t} evaluations for a support of size {t}, got {len(values)}")
    if t == 0:
        return SkewPoly.zero(ctx)
    if support.elems[-1] > ctx.p - 2:
        raise ValueError("support exponents must lie in {0..p-2}")
    n = ctx.p - 1
    f = _fit([ctx.to_normal(v.num) for v in values], [(v.den,) * n for v in values], support, ctx)
    if f is None:  # the provable width always solves t values exactly
        raise InterpolationError("the solve in provable slots does not fit its values")
    return f


def _scaled_row(num, dens, den: int):
    """The numerators of den times the row num/dens; den must be a multiple
    of every entry's denominator."""
    return num if den == 1 else [x * (den // d) for x, d in zip(num, dens)]


def _fit(nums, dens, support: SupportSet, ctx) -> SkewPoly | None:
    """The polynomial with support inside `support` whose map sends beta^l
    to the l-th value, for l = 1..m, or None if no such polynomial exists.
    Value l is nums[l-1] / dens[l-1]: a row of p-1 normal-coordinate
    numerators over a row of their denominators, or over 1 everywhere
    where dens is None.  Any matrix's value at beta^l is its row q(l), so
    a matrix's rows in that order are its values; m >= t = len(support).

    The candidate solves the first t values, put over their common
    denominator (one lcm, none over 1) and read in power coordinates, in
    the slots _solve_sizes guesses (_solve_on_support).  It is then
    certified against all m values on ints: its values over their common
    denominator E, end to end in one tuple (values_at_beta_powers), read in
    normal coordinates by one cached gather (_normal_rows) and compared
    cross-multiplied, value * den == num * E (_equal_over).  A candidate
    that fails in guessed slots below the provable width is solved once
    more in the provable slots and certified again.  Values past
    l = p-1 (beta^p = 1 among them) are no matrix's rows, and are read
    like any other.

    What a pass proves is the caller's: with m = p-1 the candidate's matrix
    is the matrix whose rows were given (det's sparse pullback); with
    m = 2 bound and at most `bound` terms in the true polynomial, the
    difference of the two has at most 2 bound terms and vanishes at
    2 bound consecutive powers, so it is zero (sparse_interpolate); mc_mul
    leaves the rows its scan did not read to its randomized check.
    """
    p = ctx.p
    t = len(support)
    if dens is None:
        den, rows = 1, nums[:t]
    else:
        den = math.lcm(*itertools.chain.from_iterable(dens[:t]))
        rows = [_scaled_row(num, row_dens, den) for num, row_dens in zip(nums[:t], dens)]
    vectors = [ctx.to_power(row) for row in rows]
    exps = list(support)
    guess, safe = _solve_sizes(vectors, p)
    for size in (guess, safe) if guess < safe else (guess,):
        f = _solve_on_support(vectors, den, exps, ctx, size)
        f_den, values = values_at_beta_powers(f, range(1, len(nums) + 1))
        if _equal_over(_normal_rows(p, values), f_den, nums, dens):
            return f
    return None


def _normal_rows(p: int, values) -> list:
    """The normal-coordinate numerator rows of the values laid end to end
    as values_at_beta_powers gives them, p slots each: v_(j+1) = beta^(r^j),
    so normal coordinate j is power slot r^j, and one cached gather
    (_normal_gather) reads every row, p-1 slices cutting them.  Given
    values at beta^(r^0) .. beta^(r^(p-2)), the rows are those of the
    matrix whose map they are (skew_to_mat)."""
    n = p - 1
    entries = _normal_gather(p, len(values) // p)(values)
    return [entries[k:k + n] for k in range(0, len(entries), n)]


@functools.lru_cache(maxsize=None)
def _normal_gather(p: int, m: int):
    """The itemgetter taking m values, laid end to end as
    values_at_beta_powers gives them, to their normal coordinates laid end
    to end (_normal_rows)."""
    pow_r = shared_ctx(p).pow_r
    return operator.itemgetter(*(k * p + w for k in range(m) for w in pow_r))


def _solve_sizes(vectors, p: int):
    """(guess, safe): slot bytes for _solve_on_support on these t vectors of
    max|entry| M, rounded up to 8, 16, 32 or 64 bits where that is enough.

    The first pass works on p M and at most doubles the bound per level, to
    B = p M 2^(t-1).  A level of the second multiplies it by at most
    2 (p-1) (a product by G, whose slots sum to p (p-1)/2, doubled by the
    beta^0 elimination and divided by p, then a subtraction), and the
    largest slot it holds is a product's, below p (p-1) times the bound: so
    `safe` holds B p (2 (p-1))^(t-1) with its sign.  In practice the
    second pass hardly grows the values: for random polynomials of t =
    4..39 terms at p = 31..127, over 1 and over 7, its largest slot, a
    product's, stayed below p^2 B.  `guess` holds 2^8 p^2 B.
    """
    t = len(vectors)
    m = max((max(map(abs, vec)) for vec in vectors), default=0)
    if not m:  # no unknowns, or all zero: nothing is packed
        return 1, 1
    first = p * m << (t - 1)
    safe = first * p * (2 * (p - 1)) ** (t - 1)
    guess = min(first * p * p << 8, safe)
    return tuple(_word_bytes(8 * size) or size
                 for size in (guess.bit_length() // 8 + 1, safe.bit_length() // 8 + 1))


def _solve_on_support(vectors, den: int, exps, ctx, size: int) -> SkewPoly:
    """The polynomial with support inside the exponents `exps` (distinct,
    in 0..p-2) whose value at beta^l is vectors[l-1] / den, l = 1..t: each
    vector the p-1 power numerators (beta^1 .. beta^(p-1)) of one value over
    the common denominator den, solved in signed slots of `size` bytes
    (_solve_sizes).  If a slot outgrows them the result is wrong, never an
    error: its one caller, _fit, checks it.

    a_l = sum_j (c_j w_j) w_j^(l-1) with distinct nodes w_j = beta^(u_j),
    u_j = r^(e_j), is a transposed Vandermonde system in the unknowns c_j
    w_j, solved by the dual Bjorck-Pereyra scheme (Golub & Van Loan, Alg.
    4.6.2): O(t^2) subtractions, beta-shifts and divisions by w_i - w_k =
    beta^(u_i) (1 - beta^(u_k - u_i)).  Both passes run on one packed int
    per unknown, p times its value: p signed slots of w bits, slot e for
    beta^e (_signed_slots).  A subtraction is one int subtraction, and a
    shift by beta^k one rotation of the slots (_rotated).  Since
    (1 - beta^m) sum_k k beta^(mk) = -p, a division is one product by the
    fixed element G = beta^(-u_i) sum_k k beta^(mk) (_ramp), folded mod
    X^p - 1 (X = 2^w), which leaves -p^2 times the new value; its beta^0
    slot is subtracted from every slot, and the word divided by -p.  That
    division is exact: 1 - beta^m is (1 - beta) times a unit, and p is
    (1 - beta)^(p-1) times a unit, so a value divided at most t-1 <= p-2
    times is still an algebraic integer once multiplied by p, and its
    coordinates in the basis beta^1 .. beta^(p-1) of Z[beta] are ints.
    So no power of p accumulates, and no gcd is taken and no CycElem built
    until the last step: each unknown is read once, rotated by -u_j (the
    division by w_j, a list rotation), its beta^0 slot subtracted, and put
    over p den in lowest terms.
    """
    p = ctx.p
    t = len(exps)
    if not any(map(any, vectors)):
        return SkewPoly.zero(ctx)
    w = 8 * size
    span = w * p
    half = 1 << (span - 1)
    half_slot = 1 << (w - 1)
    slot_mask = (1 << w) - 1
    ones = _slot_ones(p, size)
    u = [ctx.pow_r[e] for e in exps]
    b = [p * _signed_slots([0, *vec], size) for vec in vectors]
    for k in range(t - 1):
        for i in range(t - 1, k, -1):
            b[i] -= _rotated(b[i - 1], u[k], p, w)
    for k in range(t - 2, -1, -1):
        for i in range(k + 1, t):
            prod = b[i] * _ramp(p, (u[i - k - 1] - u[i]) % p, u[i], size)
            high = (prod + half) >> span
            x = prod - (high << span) + high
            x -= (((x + half_slot) & slot_mask) - half_slot) * ones
            b[i] = -x // p
        for i in range(k, t - 1):
            b[i] -= b[i + 1]
    scale = p * den
    terms = {}
    for e, uj, word in zip(exps, u, b):
        slots = _read_signed_slots(word, p, size)
        slots = slots[uj:] + slots[:uj]
        c0 = slots[0]
        num = [x - c0 for x in slots[1:]]
        g = math.gcd(scale, *num)
        terms[e] = CycElem._from_ints(ctx, tuple(map(operator.floordiv, num, itertools.repeat(g))),
                                      scale // g)
    return SkewPoly(ctx, terms)


def _signed_slots(values, size: int) -> int:
    """sum_i values[i] X^i, X = 2^(8 size), for ints with 2 max|value| <
    X.  Values that fit 64-bit slots offset by their max|value| are packed
    through one struct at the least such width and widened (_widened);
    longer ones take one to_bytes each."""
    count = len(values)
    m = max(map(abs, values))
    narrow = _word_bytes((2 * m).bit_length())
    if narrow is None or narrow > size:
        raw = int.from_bytes(b"".join(x.to_bytes(size, "little", signed=True) for x in values),
                             "little")
        w = 8 * size
        return raw - (((raw >> (w - 1)) & _slot_ones(count, size)) << w)
    raw = _slot_structs(count, narrow)[1].pack(*[x + m for x in values])
    return int.from_bytes(_widened(raw, narrow, size), "little") - m * _slot_ones(count, size)


def _read_signed_slots(word: int, count: int, size: int) -> list:
    """The `count` signed slots of `size` bytes of a word _signed_slots
    built (each slot's value below 2^(8 size - 1) in size): a bias of half
    the slot makes every slot nonnegative, and flipping each top bit leaves
    the two's complement, read by one struct up to 64-bit slots and one
    from_bytes per slot above.  A word whose slots overflowed reads as
    garbage, never an error."""
    top = (1 << (8 * size - 1)) * _slot_ones(count, size)
    # the mask changes nothing for such a word, and keeps one whose slots
    # overflowed readable
    raw = (((word + top) ^ top) & ((1 << (8 * count * size)) - 1)).to_bytes(count * size, "little")
    if size in (1, 2, 4, 8):
        return list(_slot_structs(count, size)[0].unpack(raw))
    return [int.from_bytes(raw[i:i + size], "little", signed=True)
            for i in range(0, count * size, size)]


def _rotated(word: int, s: int, p: int, w: int) -> int:
    """The signed-slot word times X^s mod X^p - 1, for slots of w bits: the
    top s slots, split off by rounding (exact, since the rest is below half
    of X^(p-s) in size), move to the bottom."""
    if not s:
        return word
    cut = w * (p - s)
    high = (word + (1 << (cut - 1))) >> cut
    return ((word - (high << cut)) << (w * s)) + high


@functools.lru_cache(maxsize=512)
def _ramp(p: int, m: int, u: int, size: int) -> int:
    """beta^(-u) sum_k k beta^(mk) as p unsigned slots of `size` bytes, for
    m in 1..p-1: slot e holds the k in 0..p-1 with m k = e + u (mod p).
    Kept for the supports that recur from product to product."""
    kb = (p.bit_length() + 7) // 8
    m_inv = pow(m, -1, p)
    raw = b"".join(((e + u) * m_inv % p).to_bytes(kb, "little") for e in range(p))
    return int.from_bytes(_widened(raw, kb, size), "little")


@functools.lru_cache(maxsize=None)
def _modulus(p: int):
    """The one prime of every scan of rows (det's and mc's) and of
    sparse_interpolate's support search, with its table per p:
    (q, zeta_pows, nodes).  q is the largest prime q = 1 (mod p)
    below 2^30, zeta_pows holds zeta^0 .. zeta^(p-1) for a fixed primitive
    p-th root of unity zeta mod q, and nodes[j] = zeta^(r^j) is the image
    of the node v_(j+1) = beta^(r^j), j = 0..p-2.  beta -> zeta is a ring
    map Z[1/D][beta] -> F_q for every D prime to q, and the node images are
    the weights that take normal coordinates to F_q (_residue).

    One prime, not several: q fails only if it divides a denominator or
    maps a coefficient to 0, which inputs not built to hit it do with odds
    of about 2^-30 each, and the primes are fixed and public, so an input
    built to defeat one defeats any fixed few as easily.  A failure costs
    det a mat_to_skew and mc the rest of the product's rows, never a wrong
    answer.

    Below 2^30 every residue is one CPython digit: on a 2-CPU x86 host with
    Python 3.11, a p=31 row took 2.1-2.6 us to reduce with a 31-bit q
    against 3.0-3.3 us with a 61-bit one, and Berlekamp-Massey on 9
    residues 20-22 us against 25-31 us.
    """
    q = 2 ** 30 - 1 - (2 ** 30 - 2) % (2 * p)  # odd, and 1 (mod p)
    while not _is_prime(q):
        q -= 2 * p
    h = 2
    while (zeta := pow(h, (q - 1) // p, q)) == 1:
        h += 1
    zeta_pows = tuple(pow(zeta, k, q) for k in range(p))
    return q, zeta_pows, tuple(zeta_pows[u] for u in shared_ctx(p).pow_r)


def _residue(nums, den: int, q: int, nodes) -> int | None:
    """The image in F_q of the element of Q(beta) with normal coordinates
    nums / den: the numerators against the node images (_modulus), times
    den^-1 mod q; None if q divides den."""
    if not den % q:
        return None
    x = sum(map(operator.mul, nums, nodes))
    return (x if den == 1 else x * pow(den, -1, q)) % q


class _BerlekampMassey:
    """Massey's algorithm (1969) over F_q, fed one value at a time.

    After n values, `conn` holds the L + 1 coefficients of C(z) = 1 + C_1 z
    + ... + C_L z^L, the shortest recurrence s_k + C_1 s_(k-1) + ... +
    C_L s_(k-L) = 0 (mod q) that all n values satisfy, and `length` is L.
    add(x) takes the next value, in 0..q-1, and returns its discrepancy:
    0 when the recurrence already predicted x.  `prev` is C(z) before the
    last length change, `prev_inv` the inverse of the discrepancy that made
    it, and `shift` the power of z it enters the next update at.
    """

    __slots__ = ("q", "seq", "conn", "prev", "prev_inv", "shift")

    def __init__(self, q: int):
        self.q = q
        self.seq = []
        self.conn = self.prev = [1]
        self.prev_inv, self.shift = 1, 1

    @property
    def length(self) -> int:
        return len(self.conn) - 1

    def add(self, x: int) -> int:
        seq, conn, q = self.seq, self.conn, self.q
        seq.append(x)
        d = sum(map(operator.mul, conn, reversed(seq))) % q
        if not d:
            self.shift += 1
            return 0
        prev, shift = self.prev, self.shift
        scale = q - d * self.prev_inv % q
        update = conn + [0] * (shift + len(prev) - len(conn))
        update[shift:shift + len(prev)] = [(u + scale * c) % q
                                           for u, c in zip(update[shift:], prev)]
        if 2 * len(conn) <= len(seq) + 1:  # 2L <= n for the n-th value, from 0
            self.prev, self.prev_inv, self.shift = conn, pow(d, -1, q), 1
        else:
            self.shift = shift + 1
        self.conn = update
        return d


def _locator_roots(conn, p: int) -> SupportSet | None:
    """The exponents e in 0..p-2 whose node v_(e+1) = beta^(r^e) maps, through
    beta -> zeta (_modulus), to a root of the locator z^L + C_1 z^(L-1) +
    ... + C_L mod q of the recurrence conn = [1, C_1, ..., C_L]
    (_BerlekampMassey.conn), if there are exactly L of them; else None.
    Horner's rule runs at all p-1 nodes at once, one list comprehension per
    coefficient.  A recurrence of length L that comes from L terms has
    exactly their L nodes as roots."""
    q, _, nodes = _modulus(p)
    acc = [1] * len(nodes)
    for c in conn[1:]:
        acc = [(a * w + c) % q for a, w in zip(acc, nodes)]
    roots = [e for e, a in enumerate(acc) if not a]
    return SupportSet(roots) if len(roots) == len(conn) - 1 else None


def _equal_over(got, den: int, nums, dens=None) -> bool:
    """Whether got[i][k] / den == nums[i][k] / dens[i][k] for every i and k
    (with every dens[i][k] = 1 where dens is None), for equally many rows
    of int tuples over positive denominators: compared cross-multiplied,
    got[i][k] dens[i][k] == nums[i][k] den, so no gcd is taken and no
    CycElem built.  The one exact value check (_fit)."""
    if dens is not None:
        got = [tuple(map(operator.mul, row, row_dens)) for row, row_dens in zip(got, dens)]
    if den != 1:
        nums = [tuple(map(operator.mul, row, itertools.repeat(den))) for row in nums]
    return list(got) == list(nums)


def sparse_interpolate(values, bound: int, ctx) -> SkewPoly:
    """Recover f from 2*bound evaluations a_l = f(v_1^l), l = 1..2*bound,
    given #f <= bound; values[k] is a_(k+1).

    Ben-Or & Tiwari, with the support found over a finite field (Giesbrecht
    & Roche, ISSAC 2011): (1) map the values, in normal coordinates, to
    F_q through beta -> zeta (_residue), for the one prime q = 1 (mod p)
    and primitive p-th root of unity zeta mod q of _modulus, so the nodes
    stay distinct; (2) Berlekamp-Massey on native ints gives the shortest
    recurrence, read backwards the locator, whose roots among the images
    of v_1 .. v_(p-1) are the support (_locator_roots, the search det's
    scans make on a factor's rows); (3) _fit solves the coefficients
    exactly on the support from the first t values and certifies the
    candidate against all 2*bound of them.  If #f <= bound, a candidate
    that fits them is f.  At bound = p-1 the support is all of {0..p-2}
    and the solve on the first p-1 values is exact without any prime.

    The result therefore never disagrees with the 2*bound values.  If no
    polynomial with at most `bound` terms fits them, InterpolationError is
    raised (callers that guess bounds must treat that as a failed guess).
    It is also raised, where such a polynomial exists, when q is unlucky:
    it divides a denominator or kills a coefficient.
    """
    values = list(values)
    p = ctx.p
    if not 1 <= bound <= p - 1:
        raise ValueError(f"sparsity bound must be in 1..{p - 1}, got {bound}")
    if len(values) < 2 * bound:
        raise ValueError(f"need {2 * bound} evaluations, got {len(values)}")
    a = values[: 2 * bound]
    nums = [ctx.to_normal(v.num) for v in a]

    if bound == p - 1:
        support = SupportSet(range(p - 1))
    else:
        support = None
        q, _, nodes = _modulus(p)
        recurrence = _BerlekampMassey(q)
        for num, value in zip(nums, a):
            x = _residue(num, value.den, q, nodes)
            if x is None:  # q divides a denominator
                break
            recurrence.add(x)
        else:
            # a recurrence longer than the bound comes from no f with
            # #f <= bound, whatever q
            if recurrence.length > bound:
                raise InterpolationError(f"shortest recurrence has length {recurrence.length}, "
                                         f"above the bound {bound}")
            support = _locator_roots(recurrence.conn, p)
    if support is not None:
        f = _fit(nums, [(v.den,) * (p - 1) for v in a], support, ctx)
        if f is not None:
            return f
    raise InterpolationError(
        f"found no polynomial with at most {bound} terms that fits the {2 * bound} values")
