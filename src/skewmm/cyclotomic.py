"""Exact arithmetic in the cyclotomic field Q(beta) of an odd prime p.

beta is a p-th primitive root of unity: beta^(p-1) + ... + beta + 1 = 0,
so the field has degree p - 1 over Q.  Elements store their coordinates in
the power basis {beta, beta^2, ..., beta^(p-1)} as ints over one common
denominator (the layout of FLINT's rational polynomials), so operations
pay one gcd per result; beta^0 is not a basis vector, since
1 = -(beta + ... + beta^(p-1)).
In this basis the automorphism sigma: beta -> beta^r (r the smallest
primitive root of Z_p) and the change to the normal basis
{v_i = beta^(r^(i-1))} are pure coordinate permutations, which is why the
basis was chosen.

No element is ever inverted.  Interpolation divides only by 1 - beta^m,
and it runs that division, and its products by powers of beta, on packed
ints of its own (skewpoly._solve_on_support), building no element until
its last step.  cyc_mul, the general product, packs each operand into one
int and multiplies once (Kronecker substitution); it serves the ring
product sp_mul, which det_mul's direct route calls, and sp_evaluate.

All values are immutable and all operations are pure functions, so every
object here can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import operator
import struct

from .rational import Rat, SCALAR_TYPES, as_rat

#: Largest prime the CLI accepts (--p, --p-list) and a matrix-file header may
#: name; larger primes are refused before any context is built.  It is the
#: largest of the primes 31..61 at which `gen` of two dense matrices, then
#: `mul --algo det`, `mul --algo naive` and `mul --algo mc` on them, fit a
#: 60 s budget.  On a 2-core x86 box (Python 3.11, fractions.Fraction) the
#: four commands took 0.6 s in all at p=31 and 0.8 s at p=61 (gen 0.25,
#: det 0.17, naive 0.15, mc 0.26), most of it process start-up.  Raising it
#: waits on inputs whose entries all have distinct prime denominators, on
#: which det stays far slower than naive.
MAX_P = 61


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is
    deterministic for every n below 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_odd_prime(p) -> bool:
    """Whether p is an int and an odd prime (bools and other types are not)."""
    return isinstance(p, int) and p >= 3 and p % 2 == 1 and _is_prime(p)


def _check_odd_prime(p):
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p!r}")


def find_primitive_root(p: int) -> int:
    """Smallest r in {2..p-1} generating the multiplicative group mod p.

    The smallest-choice tie-break makes every downstream table, file and
    report reproducible.
    """
    _check_odd_prime(p)
    for r in range(2, p):
        order = 1
        acc = r
        while acc != 1:
            acc = acc * r % p
            order += 1
        if order == p - 1:
            return r
    raise ArithmeticError(f"no primitive root found for {p}")  # unreachable for prime p


class CycCtx:
    """Per-prime context: primitive root, permutation tables, cached units.

    q_perm and s_perm realize the bijections q, s of {1..p-1} defined by
    r^(q(i)-1) = i (mod p) and r^(s(i)-1) = -i (mod p); k_idx is the index
    with r^(k_idx-1) = p-1 (mod p).  to_power and to_normal are the one
    place a vector is permuted between normal and power coordinates.  The
    context is immutable after construction.
    """

    __slots__ = ("p", "r", "pow_r", "q_perm", "s_perm", "k_idx",
                 "_power_order", "_normal_order", "_units", "_one", "_zero")

    def __init__(self, p: int):
        _check_odd_prime(p)
        self.p = p
        self.r = find_primitive_root(p)
        n = p - 1
        pow_r = [1]
        for _ in range(n - 1):
            pow_r.append(pow_r[-1] * self.r % p)
        self.pow_r = tuple(pow_r)  # pow_r[i] = r^i mod p, i = 0..p-2

        q = [0] * n
        for j, val in enumerate(pow_r):  # r^j = val  =>  q(val) = j + 1
            q[val - 1] = j + 1
        self.q_perm = tuple(q)  # q_perm[i-1] = q(i)
        self.s_perm = tuple(q[(p - i) - 1] for i in range(1, p))  # s(i) = q(p - i)
        self.k_idx = self.q(p - 1)
        self._power_order = operator.itemgetter(*(k - 1 for k in q))
        self._normal_order = operator.itemgetter(*(u - 1 for u in pow_r))

        zero = (0,) * n
        self._zero = CycElem(self, zero)
        self._one = CycElem(self, (-1,) * n)
        units = [self._one]
        for k in range(1, p):
            units.append(CycElem(self, zero[: k - 1] + (1,) + zero[k:]))
        self._units = tuple(units)

    def q(self, i: int) -> int:
        return self.q_perm[(i - 1) % (self.p - 1)]

    def s(self, i: int) -> int:
        return self.s_perm[(i - 1) % (self.p - 1)]

    def v_exponent(self, m: int) -> int:
        """The beta-exponent of v_m, with m wrapped into {1..p-1}."""
        return self.pow_r[(m - 1) % (self.p - 1)]

    @property
    def zero(self) -> CycElem:
        return self._zero

    @property
    def one(self) -> CycElem:
        return self._one

    def beta_power(self, k: int) -> CycElem:
        """beta^k in canonical coordinates (k = 0 mod p gives the unit 1)."""
        return self._units[k % self.p]

    def elem(self, values) -> CycElem:
        """Build an element from its p-1 power coordinates, exact rationals."""
        coords = [as_rat(v) for v in values]
        _check_length(self, coords)
        den = math.lcm(*{x.denominator for x in coords})
        return CycElem(self, [x.numerator * (den // x.denominator) for x in coords], den)

    def to_power(self, normal) -> tuple:
        """Power coordinates: entry m-1, for beta^m, is normal coordinate q(m)."""
        return self._power_order(normal)

    def to_normal(self, power) -> tuple:
        """Normal coordinates: entry j, for v_(j+1), is power coordinate r^j."""
        return self._normal_order(power)

    def __repr__(self):
        return f"CycCtx(p={self.p}, r={self.r})"


@functools.lru_cache(maxsize=None)
def shared_ctx(p: int) -> CycCtx:
    """Memoized context, so per-prime caches are built once per process."""
    return CycCtx(p)


def _check_same_ctx(a, b):
    """Refuse two field elements, or two polynomials, over different primes."""
    if a.ctx.p != b.ctx.p:
        raise ValueError(f"context mismatch: p={a.ctx.p} vs p={b.ctx.p}")


class CycElem:
    """An element of Q(beta): (num[0] beta + ... + num[p-2] beta^(p-1)) / den.

    The constructor divides the p-1 ints `num` and the positive int `den` by
    their gcd, so the form is unique (zero is all zeros over 1) and equality
    is a tuple comparison.  Rational coordinates are built only on demand.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycCtx, num, den: int = 1):
        num = tuple(num)
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
        self.ctx = ctx
        self.num = num
        self.den = den

    @classmethod
    def _from_ints(cls, ctx: CycCtx, num: tuple, den: int) -> CycElem:
        """The element of a numerator tuple and a denominator already in
        lowest terms together: no tuple() and no gcd."""
        a = object.__new__(cls)
        a.ctx, a.num, a.den = ctx, num, den
        return a

    @property
    def coords(self) -> tuple:
        """The p-1 power coordinates as rationals."""
        return tuple(Rat(x, self.den) for x in self.num)

    def vector(self, den: int) -> list:
        """den * self as a length-p int list indexed by beta-exponent, with
        slot 0 (beta^0) zero; den must be a multiple of self.den."""
        scale = den // self.den
        return [0, *self.num] if scale == 1 else [0, *(x * scale for x in self.num)]

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.ctx.p == other.ctx.p and self.den == other.den and self.num == other.num

    def __add__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        return cyc_add(self, other)

    def __sub__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        return cyc_add(self, cyc_neg(other))

    def __neg__(self):
        return cyc_neg(self)

    def __mul__(self, other):
        if isinstance(other, CycElem):
            return cyc_mul(self, other)
        if isinstance(other, SCALAR_TYPES):
            return cyc_scale(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"{c}*b^{i + 1}" for i, c in enumerate(self.coords) if c]
        return "CycElem(" + (" + ".join(parts) if parts else "0") + ")"


def _check_length(ctx: CycCtx, coords):
    if len(coords) != ctx.p - 1:
        raise ValueError(f"expected {ctx.p - 1} coordinates, got {len(coords)}")


def cyc_add(a: CycElem, b: CycElem) -> CycElem:
    """Exact sum, over the lcm of the two denominators."""
    _check_same_ctx(a, b)
    g = math.gcd(a.den, b.den)
    sa, sb = b.den // g, a.den // g
    return CycElem(a.ctx, [x * sa + y * sb for x, y in zip(a.num, b.num)], a.den * sa)


def cyc_neg(a: CycElem) -> CycElem:
    return CycElem(a.ctx, [-x for x in a.num], a.den)


def cyc_scale(a: CycElem, c) -> CycElem:
    """Multiply by a rational scalar."""
    c = as_rat(c)
    if not c:
        return a.ctx.zero
    k = c.numerator
    return CycElem(a.ctx, [x * k for x in a.num], a.den * c.denominator)


def _slot_bytes(a_num, b_num) -> int:
    """Bytes per slot of cyc_mul's packed ints for the numerators a_num, b_num.

    Every slot cyc_mul reads, before or after the fold, is a sum of products
    a_i b_j with each j at most once, so its size is at most
    max|a| * sum|b| <= (p-1) max|a| max|b|.  The slot takes that bound's
    bits plus a sign bit, rounded up to whole bytes, so its width w gives
    |slot| <= 2^(w-1) - 1.
    """
    bound = max(map(abs, a_num)) * sum(map(abs, b_num))
    return (bound.bit_length() + 8) // 8


def cyc_mul(a: CycElem, b: CycElem) -> CycElem:
    """Exact field product, by one big-int product (Kronecker substitution).

    Each operand's numerators are packed into one int, numerator i (for
    beta^(i+1)) in a signed slot of w bits at X^(i+1), X = 2^w, with w from
    _slot_bytes, rounded up to 1, 2, 4 or 8 bytes when it is at most 8.
    The product of the two ints is the product polynomial at X.  It is
    folded mod X^p - 1 on ints: its part above X^p is split off (rounding
    to nearest, which is exact because the part below is less than X^p / 2
    in size) and added to the part below.  Then the p slots, one per
    beta-exponent, are read off its bytes with a bias of 2^(w-1) each,
    through one struct for widths up to 8 bytes and by slices above, and
    beta^0 is eliminated via beta^0 = -(beta + ... + beta^(p-1)); the
    biases cancel in that subtraction.  The result is over the product of
    the denominators.  O(p) interpreter steps and one big-int product,
    against O(p^2) steps for the cyclic convolution.
    """
    _check_same_ctx(a, b)
    ctx = a.ctx
    p = ctx.p
    k = _slot_bytes(a.num, b.num)
    k = _word_bytes(8 * k) or k
    w = 8 * k
    slots = range(w, w * p, w)
    prod = sum(map(operator.lshift, a.num, slots)) * sum(map(operator.lshift, b.num, slots))
    wp = w * p
    high = (prod + (1 << (wp - 1))) >> wp
    folded = prod - (high << wp) + high
    raw = (folded + int.from_bytes((bytes(k - 1) + b"\x80") * p, "little")).to_bytes(
        k * p, "little")
    if k <= 8:
        acc = _slot_structs(p, k)[1].unpack(raw)
    else:
        acc = [int.from_bytes(raw[i:i + k], "little") for i in range(0, k * p, k)]
    c0 = acc[0]
    return CycElem(ctx, [x - c0 for x in acc[1:]], a.den * b.den)


def _word_bytes(bits: int) -> int | None:
    """The least of 1, 2, 4 or 8 bytes that holds `bits` bits, or None
    above 64 bits: the slot widths a struct converts."""
    return next((k for k in (1, 2, 4, 8) if 8 * k >= bits), None)


@functools.lru_cache(maxsize=None)
def _slot_structs(count: int, size: int):
    """Little-endian (signed, unsigned) formats for `count` slots of `size`
    bytes (1, 2, 4 or 8)."""
    code = {1: "b", 2: "h", 4: "i", 8: "q"}[size]
    return struct.Struct(f"<{count}{code}"), struct.Struct(f"<{count}{code.upper()}")


@functools.lru_cache(maxsize=None)
def _slot_ones(count: int, size: int) -> int:
    """The int with a 1 at the bottom of each of `count` slots of `size`
    bytes: sum_i 2^(8 size i)."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * count, "little")


def _signed_word(values, size: int) -> int:
    """sum_i values[i] 2^(w i), w = 8 size, for ints that fit signed slots
    of `size` bytes (1, 2, 4 or 8).

    The values are packed through one signed struct and read back as an
    unsigned int, where a negative slot reads as its value plus 2^w; the
    slots' sign bits, moved up one slot, are that excess, and are taken
    off in one subtraction.
    """
    count = len(values)
    w = 8 * size
    raw = int.from_bytes(_slot_structs(count, size)[0].pack(*values), "little")
    return raw - (((raw >> (w - 1)) & _slot_ones(count, size)) << w)


def _widened(raw: bytes, size: int, out: int) -> bytes:
    """The unsigned little-endian slots of `size` bytes in `raw`, each
    zero-extended to `out` >= size bytes: `size` strided byte copies."""
    if out == size:
        return raw
    wide = bytearray(len(raw) // size * out)
    for k in range(size):
        wide[k::out] = raw[k::size]
    return wide


def rotated_sum(p: int, shifted) -> list:
    """Power coordinates of sum(beta^s * vec) over the (vec, s) pairs.

    Each vec is a length-p int list indexed by beta-exponent, so multiplying
    by beta^s is a rotation by s places.  The rotated vectors are summed
    slotwise and the beta^0 slot is eliminated once, at the end, through
    beta^0 = -(beta + ... + beta^(p-1)).  Returns the p-1 ints for
    beta^1 .. beta^(p-1); O(p) integer additions per pair, no gcd.
    """
    rotated = [vec[-s:] + vec[:-s] for vec, s in shifted]
    if not rotated:
        return [0] * (p - 1)
    acc = list(map(sum, zip(*rotated)))
    c0 = acc[0]
    return [x - c0 for x in acc[1:]]


def cyc_sigma(a: CycElem, k: int = 1) -> CycElem:
    """Apply sigma^k (beta -> beta^(r^k)): a pure coordinate permutation,
    one cached itemgetter per (p, r^k mod p)."""
    ctx = a.ctx
    p = ctx.p
    m = ctx.pow_r[k % (p - 1)]
    if m == 1:
        return a
    # a permutation of the numerators keeps their content
    return CycElem._from_ints(ctx, _sigma_permutation(p, m)(a.num), a.den)


@functools.lru_cache(maxsize=None)
def _sigma_permutation(p: int, m: int):
    """The gather taking power numerators to those of beta -> beta^m:
    coordinate j (for beta^(j+1)) is old coordinate i with (i+1) m = j+1
    (mod p)."""
    m_inv = pow(m, -1, p)
    return operator.itemgetter(*((j * m_inv) % p - 1 for j in range(1, p)))


def normal_coords(a: CycElem) -> tuple:
    """Coordinates of a w.r.t. the normal basis {v_1, ..., v_(p-1)}.

    Normal coordinate j is power coordinate r^(j-1) mod p (ctx.to_normal).
    One Rat per coordinate, read straight off a's int numerators over its
    denominator.
    """
    den = a.den
    return tuple(Rat(x, den) for x in a.ctx.to_normal(a.num))


def from_normal_coords(ctx: CycCtx, values) -> CycElem:
    """Inverse of normal_coords, for a sequence of p-1 exact rationals."""
    _check_length(ctx, values)
    return ctx.elem(ctx.to_power(values))


def power_of_v1(ctx: CycCtx, i: int) -> CycElem:
    """v_1^i = beta^(i mod p); i = 0 mod p yields the unit 1 (all -1)."""
    if i < 0:
        raise ValueError("exponent must be nonnegative")
    return ctx.beta_power(i % ctx.p)
