"""Exact arithmetic in the cyclotomic field Q(beta) of an odd prime p.

beta is a p-th primitive root of unity: beta^(p-1) + ... + beta + 1 = 0,
so the field has degree p - 1 over Q.  Elements store their exact rational
coordinates in the power basis {beta, beta^2, ..., beta^(p-1)}; beta^0 is
not a basis vector, since 1 = -(beta + ... + beta^(p-1)).  In this basis
the automorphism sigma: beta -> beta^r (r the smallest primitive root of
Z_p) and the change to the normal basis {v_i = beta^(r^(i-1))} are pure
coordinate permutations, which is why the basis was chosen.

No element is ever inverted: interpolation needs only products by powers
of beta (mul_beta_power) and quotients by 1 - beta^m
(div_one_minus_beta_power), both O(p).  cyc_mul, the O(p^2) product,
serves the ring product sp_mul and sp_evaluate, which the multiplication
algorithms never call.

All values are immutable and all operations are pure functions, so every
object here can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math

from .rational import Rat, SCALAR_TYPES, as_rat

_ZERO = Rat(0)
_ONE = Rat(1)
_NEG_ONE = Rat(-1)

#: Largest prime the CLI accepts (--p, --p-list) and a matrix-file header may
#: name; larger primes are refused before any context is built.  It is the
#: largest of the primes 31..61 at which `gen` of two dense matrices, then
#: `mul --algo det`, `mul --algo naive` and `mul --algo mc` on them, fit a
#: 60 s budget.  On a 2-core x86 box (Python 3.11, fractions.Fraction) the
#: four commands took 2.2 s in all at p=31, 4.1 s at p=43, 7.2 s at p=53 and
#: 9.9 s at p=61 (gen 0.6, det 3.0, naive 1.5, mc 4.8).
MAX_P = 61


def is_odd_prime(p) -> bool:
    """Trial-division primality test, adequate at desk scale."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


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
    with r^(k_idx-1) = p-1 (mod p).  The trailing slots hold lazily built
    caches of derived pure data (basis matrices, orientation probe); the
    context is otherwise immutable after construction.
    """

    __slots__ = ("p", "r", "pow_r", "q_perm", "s_perm", "k_idx",
                 "_units", "_one", "_zero", "_vw", "_orientation")

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

        zero = (_ZERO,) * n
        self._zero = CycElem(self, zero)
        self._one = CycElem(self, (_NEG_ONE,) * n)
        units = [self._one]
        for k in range(1, p):
            units.append(CycElem(self, zero[: k - 1] + (_ONE,) + zero[k:]))
        self._units = tuple(units)
        self._vw = None
        self._orientation = None

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
        """Build an element from p-1 exact rational coordinates."""
        coords = tuple(as_rat(v) for v in values)
        if len(coords) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} coordinates, got {len(coords)}")
        return CycElem(self, coords)

    def __repr__(self):
        return f"CycCtx(p={self.p}, r={self.r})"


def ctx_new(p: int) -> CycCtx:
    """Fresh context for the prime p (propagates primality errors)."""
    return CycCtx(p)


@functools.lru_cache(maxsize=None)
def shared_ctx(p: int) -> CycCtx:
    """Memoized context, so per-prime caches are built once per process."""
    return CycCtx(p)


def _check_same_ctx(a: CycElem, b: CycElem):
    if a.ctx.p != b.ctx.p:
        raise ValueError(f"context mismatch: p={a.ctx.p} vs p={b.ctx.p}")


class CycElem:
    """An element of Q(beta): rational coefficients of beta^1 .. beta^(p-1).

    Canonical and unique (the scalars self-normalize and the power basis is
    a Q-basis), so equality is exact coordinatewise comparison.
    """

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: CycCtx, coords: tuple):
        self.ctx = ctx
        self.coords = coords

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, CycElem):
            return NotImplemented
        return self.ctx.p == other.ctx.p and self.coords == other.coords

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


def cyc_add(a: CycElem, b: CycElem) -> CycElem:
    """Coordinatewise exact sum."""
    _check_same_ctx(a, b)
    return CycElem(a.ctx, tuple(x + y for x, y in zip(a.coords, b.coords)))


def cyc_neg(a: CycElem) -> CycElem:
    return CycElem(a.ctx, tuple(-x for x in a.coords))


def cyc_scale(a: CycElem, c) -> CycElem:
    """Multiply by a rational scalar."""
    c = as_rat(c)
    if not c:
        return a.ctx.zero
    return CycElem(a.ctx, tuple(x * c for x in a.coords))


def cyc_mul(a: CycElem, b: CycElem) -> CycElem:
    """Exact field product.

    Cyclic convolution of beta-exponents mod p, then elimination of the
    beta^0 component via beta^0 = -(beta + ... + beta^(p-1)).  Sparse
    operands are skipped, so multiplying by a monomial costs O(p).
    """
    _check_same_ctx(a, b)
    ctx = a.ctx
    p = ctx.p
    acc = [_ZERO] * p  # index = beta exponent 0..p-1
    for i, ai in enumerate(a.coords):
        if not ai:
            continue
        base = i + 2  # exponent (i+1) + (j+1) at j = 0
        for j, bj in enumerate(b.coords):
            if bj:
                e = (base + j) % p
                acc[e] = acc[e] + ai * bj
    c0 = acc[0]
    if c0:
        return CycElem(ctx, tuple(acc[k] - c0 for k in range(1, p)))
    return CycElem(ctx, tuple(acc[1:]))


def mul_beta_power(a: CycElem, k: int) -> CycElem:
    """Multiply by beta^k: an exponent shift plus beta^0 reduction, O(p)."""
    ctx = a.ctx
    p = ctx.p
    k %= p
    if k == 0:
        return a
    out = [_ZERO] * (p - 1)
    spill = _ZERO
    for i, c in enumerate(a.coords):
        if not c:
            continue
        e = (i + 1 + k) % p
        if e == 0:
            spill = c
        else:
            out[e - 1] = c
    if spill:
        out = [x - spill for x in out]
    return CycElem(ctx, tuple(out))


def int_vector(p: int, exponents, scalars, den: int) -> list:
    """den * scalars as a length-p int list indexed by beta-exponent.

    Scalar j goes to slot exponents[j]; slot 0 (beta^0) and any slot not
    named stay 0.  `den` must be a multiple of every scalar's denominator.
    """
    vec = [0] * p
    for e, x in zip(exponents, scalars):
        vec[e] = x.numerator * (den // x.denominator)
    return vec


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


def div_one_minus_beta_power(a: CycElem, m: int) -> CycElem:
    """a / (1 - beta^m) in O(p); ZeroDivisionError for m = 0 (mod p).

    y = sum Y_e beta^e with Y_0 = 0 solves y - beta^m y = a when
    Y_e = Y_(e-m) + a_e + c along e = m, 2m, ..., (p-1)m, where the constant
    c = -(sum of a's coordinates)/p absorbs 1 + beta + ... + beta^(p-1) = 0.
    The walk runs on ints scaled by p times the lcm D of a's denominators.
    """
    ctx = a.ctx
    p = ctx.p
    m %= p
    if m == 0:
        raise ZeroDivisionError("1 - beta^m is zero for m = 0 (mod p)")
    den = math.lcm(*{x.denominator for x in a.coords})
    num = int_vector(p, range(1, p), a.coords, den)
    c = -sum(num)
    out = [0] * p
    for k in range(1, p):
        e = k * m % p
        out[e] = out[(e - m) % p] + p * num[e] + c
    return CycElem(ctx, tuple(Rat(y, p * den) for y in out[1:]))


def cyc_sigma(a: CycElem, k: int = 1) -> CycElem:
    """Apply sigma^k (beta -> beta^(r^k)): a pure coordinate permutation."""
    ctx = a.ctx
    p = ctx.p
    m = ctx.pow_r[k % (p - 1)]
    if m == 1:
        return a
    out = [_ZERO] * (p - 1)
    for i, c in enumerate(a.coords):
        if c:
            out[(i + 1) * m % p - 1] = c
    return CycElem(ctx, tuple(out))


def normal_coords(a: CycElem) -> tuple:
    """Coordinates of a w.r.t. the normal basis {v_1, ..., v_(p-1)}.

    Normal coordinate j is power coordinate r^(j-1) mod p; an exact
    permutation in both directions.
    """
    ctx = a.ctx
    c = a.coords
    return tuple(c[u - 1] for u in ctx.pow_r)


def from_normal_coords(ctx: CycCtx, values) -> CycElem:
    """Inverse of normal_coords."""
    n = ctx.p - 1
    vals = list(values)
    if len(vals) != n:
        raise ValueError(f"expected {n} coordinates, got {len(vals)}")
    out = [_ZERO] * n
    for j, u in enumerate(ctx.pow_r):
        out[u - 1] = as_rat(vals[j])
    return CycElem(ctx, tuple(out))


def power_of_v1(ctx: CycCtx, i: int) -> CycElem:
    """v_1^i = beta^(i mod p); i = 0 mod p yields the unit 1 (all -1)."""
    if i < 0:
        raise ValueError("exponent must be nonnegative")
    return ctx.beta_power(i % ctx.p)
