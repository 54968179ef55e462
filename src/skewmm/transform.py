"""The exact correspondence between skew polynomials and rational matrices.

A skew polynomial acts on Q(beta) as the linear map sum a_i sigma^i; writing
that map in the normal basis {v_1, ..., v_(p-1)} gives a (p-1) x (p-1)
rational matrix, and the assignment is a bijection onto the full matrix
algebra.  Both directions are implemented here:

  matrix -> polynomial   mat_to_skew, the definition: scaled application
                         of the inverse basis matrix W (the basis matrix V
                         of normal-basis translates and W of their
                         reciprocals satisfy V W = p I), run as one cyclic
                         correlation of length p(p-1) packed into a big
                         int whose beta^0 and W's "- 1" corrections are two
                         word subtractions (O(p) interpreter steps, p-1
                         big-int shifted adds and a few struct calls), or,
                         for entries too long for 64-bit slots, as O(p^3)
                         int additions.  analyze and skew_sparsity call
                         it, and so does det for each factor it does not
                         fit and certify on the support its scan found
                         (skewpoly._fit);
  polynomial -> matrix   skew_to_mat: f's values at beta^(r^0) ..
                         beta^(r^(p-2)), its rows in order, each one sum of
                         f's #f coefficient vectors packed into rotated
                         words with its beta^0 slot subtracted on the int
                         (O(#f) interpreter steps and #f big-int shifted
                         adds per value, or one rotated_sum for entries
                         too long for 64-bit slots), all read by one
                         struct call and laid out in normal coordinates
                         by one gather (skewpoly._normal_rows), which the
                         fit's certificate shares.

The same row fact drives the multiplication algorithms: any matrix's map
sends v_1^l = beta^l to the matrix's row q(l), so the product map's values
are rows of A*B whichever order the ring product is written in, and its
values at all p-1 points are the whole product (product_matrix), which is
what mc assembles when it accepts no sparse candidate.  Whether the
bijection is a homomorphism or an anti-homomorphism is therefore never
needed to multiply; `phi_orientation` settles it with a fixed probe, as a
check of the convention.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import struct

from .cyclotomic import (_STRUCT_CODES, CycCtx, CycElem, _check_odd_prime, _signed_reader,
                         _signed_word, _slot_ones, _slot_structs, _widened, _word_bytes,
                         rotated_sum, shared_ctx)
from .multiply import cubic_multiply, rational_product
from .rational import Rat, as_rat
from .skewpoly import SkewPoly, _normal_rows, _scaled_row, sp_mul, values_at_beta_powers


class RatMatrix:
    """Dense (p-1) x (p-1) matrix of exact rationals, row-major, canonical.

    Entry (i, j) is nums[i][j] / dens[i][j]: int tuples per row, each entry
    in lowest terms with a positive denominator, so zero is 0/1 and equality
    compares the two tuples.  The products, the pullback and the pushforward
    read and write these ints.  `rows` is a Fraction view of the same
    entries for the boundary (files, the CLI, Freivalds, tests): built on
    first use and kept, and the constructor, which takes rationals, keeps
    the rows it was given as that view.
    """

    __slots__ = ("p", "nums", "dens", "_rows")

    def __init__(self, p: int, rows):
        _check_odd_prime(p)
        n = p - 1
        frozen = tuple(tuple(as_rat(x) for x in row) for row in rows)
        if len(frozen) != n or any(len(row) != n for row in frozen):
            raise ValueError(f"expected a {n} x {n} matrix for p={p}")
        self.p = p
        self.nums = tuple(tuple(x.numerator for x in row) for row in frozen)
        self.dens = tuple(tuple(x.denominator for x in row) for row in frozen)
        self._rows = frozen

    @classmethod
    def _from_ints(cls, p: int, nums, dens) -> RatMatrix:
        """The matrix of canonical int rows: tuples, in lowest terms."""
        M = object.__new__(cls)
        M.p, M.nums, M.dens, M._rows = p, nums, dens, None
        return M

    @classmethod
    def _reduced(cls, p: int, nums, dens) -> RatMatrix:
        """The matrix with entry (i, j) = nums[i][j] / dens[i][j], for int
        rows and tuples of positive int denominators not yet in lowest
        terms: one map(gcd) per row, and none for a row over 1."""
        ones = (1,) * (p - 1)
        out_n, out_d = [], []
        for num, den in zip(nums, dens):
            if den == ones:
                out_n.append(tuple(num))
                out_d.append(ones)
            else:
                g = tuple(map(math.gcd, num, den))
                out_n.append(tuple(map(operator.floordiv, num, g)))
                out_d.append(tuple(map(operator.floordiv, den, g)))
        return cls._from_ints(p, tuple(out_n), tuple(out_d))

    @classmethod
    def zeros(cls, p: int) -> RatMatrix:
        _check_odd_prime(p)
        n = p - 1
        return cls._from_ints(p, ((0,) * n,) * n, ((1,) * n,) * n)

    @classmethod
    def identity(cls, p: int) -> RatMatrix:
        _check_odd_prime(p)
        n = p - 1
        nums = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        return cls._from_ints(p, nums, ((1,) * n,) * n)

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of Fraction rows (read-only)."""
        if self._rows is None:
            self._rows = tuple(tuple(map(Rat, num, den))
                               for num, den in zip(self.nums, self.dens))
        return self._rows

    @property
    def n(self) -> int:
        return self.p - 1

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.p == other.p and self.nums == other.nums and self.dens == other.dens

    def __add__(self, other):
        self._check_pair(other)
        return RatMatrix(self.p, [tuple(a + b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check_pair(other)
        return RatMatrix(self.p, [tuple(a - b for a, b in zip(r1, r2))
                                  for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return RatMatrix._from_ints(self.p, tuple(tuple(-x for x in num) for num in self.nums),
                                    self.dens)

    def __matmul__(self, other):
        """Plain exact product (uncounted); the benchmarked paths use matmul.

        Runs on ints through `rational_product`, like naive_mul.
        """
        self._check_pair(other)
        return product_matrix(self, other)

    def scale(self, c) -> RatMatrix:
        c = as_rat(c)
        return RatMatrix(self.p, [tuple(a * c for a in r) for r in self.rows])

    def transpose(self) -> RatMatrix:
        return RatMatrix._from_ints(self.p, tuple(zip(*self.nums)), tuple(zip(*self.dens)))

    def _check_pair(self, other):
        if not isinstance(other, RatMatrix):
            raise TypeError("expected a RatMatrix")
        if self.p != other.p:
            raise ValueError(f"dimension mismatch: p={self.p} vs p={other.p}")

    def __repr__(self):
        return f"RatMatrix(p={self.p})"


def product_matrix(A: RatMatrix, B: RatMatrix) -> RatMatrix:
    """A*B on ints: every row of `rational_product`, over its scales."""
    d, e, rows = rational_product(A.nums, A.dens, B.nums, B.dens)
    return _product_of_rows(A.p, d, e, rows())


def _product_of_rows(p: int, d, e, S) -> RatMatrix:
    """The matrix of all p-1 rows S of `rational_product`, with its scales:
    S[i][k] over d_i e_k, reduced by one map(gcd) per row not over 1."""
    e = tuple(e)
    return RatMatrix._reduced(p, S, [e if di == 1 else tuple(di * ek for ek in e) for di in d])


def build_V(ctx: CycCtx):
    """Matrix of normal-basis translates: entry (i, j) is v_(i+j-1), as rows
    of field elements."""
    n = ctx.p - 1
    return tuple(tuple(ctx.beta_power(ctx.pow_r[(i + j) % n]) for j in range(n))
                 for i in range(n))


def build_W(ctx: CycCtx):
    """Companion matrix with entries 1/v_(i+j-1) - 1; satisfies V W = p I."""
    n = ctx.p - 1
    return tuple(tuple(ctx.beta_power(-ctx.pow_r[(i + j) % n]) - ctx.one for j in range(n))
                 for i in range(n))


def mat_to_skew(C: RatMatrix, ctx: CycCtx | None = None) -> SkewPoly:
    """The polynomial whose linear map has matrix C.

    Row k of C is already the normal-coordinate vector of the image b_k of
    v_k; the coefficient vector is (1/p) * W * (b_1, ..., b_(p-1)).  W's
    entries are reciprocal-translates minus one, beta^(-u) - 1 with
    u = r^(i+k) for coefficient i and row k, so each product is a rotation
    of b_k's beta-exponent vector, and the "- 1" parts add up to the same
    -sum_k b_k in every coefficient.  The work runs on Python ints under
    one common denominator D (the lcm of C's denominators, none for a
    matrix over 1), and each coefficient is built directly over p*D.

    The rotations form one cyclic correlation over C_(p-1) x C_p, which is
    C_(p(p-1)) because gcd(p-1, p) = 1 (Good's prime-factor index map): a
    pair (a, x) is the position c with c = a mod p-1 and c = x mod p.  Row
    k, in power coordinates and offset by M = max|entry| (so nothing is
    negative), fills the slots (-k, x) of one packed int, the beta^0 slots
    holding M; the sum of its p-1 shifts by (j, -r^j), folded once mod
    X^(p(p-1)) - 1, holds in slot (i, x) coefficient i's beta^x part.  Each
    slot is a sum of p-1 terms in [0, 2M], so a slot of w bits with
    2 (p-1) M < 2^w never carries.  Eliminating beta^0 and the "- 1" parts
    are two word subtractions (_packed_coefficients), whose results lie in
    [-3 (p-1) M, 3 (p-1) M] and are read from slots with 6 (p-1) M < 2^w.
    Both widths are rounded up to 8, 16, 32 or 64 bits so that the slots
    convert through struct: O(p) interpreter steps and p-1 big-int shifted
    adds.  An input whose results need more than 64 bits takes the
    rotated-sum loop instead (_looped_coefficients), O(p^3) int additions,
    which on such long ints costs less than the wider slots.
    """
    ctx = _ctx_for(C, ctx)
    p = ctx.p
    n = p - 1
    if C.dens == ((1,) * n,) * n:
        den, rows = 1, C.nums
    else:
        den = math.lcm(*set(itertools.chain.from_iterable(C.dens)))
        rows = [_scaled_row(num, dens, den) for num, dens in zip(C.nums, C.dens)]
    bound = max(max(map(max, rows)), -min(map(min, rows)))
    if not bound:
        return SkewPoly.zero(ctx)
    if _word_bytes((6 * n * bound).bit_length()) is None:
        coefficients = _looped_coefficients(ctx, rows)
    else:
        coefficients = _packed_coefficients(ctx, rows, bound,
                                            _word_bytes((2 * n * bound).bit_length()))
    out_den = p * den
    return SkewPoly(ctx, {i: CycElem(ctx, coords, out_den)
                          for i, coords in enumerate(coefficients) if any(coords)})


def _packed_coefficients(ctx: CycCtx, rows, bound: int, size: int):
    """mat_to_skew's coefficients, power numerators over p*D, from its
    scaled rows by one packed correlation in slots of `size` bytes (1, 2, 4
    or 8), where 2 (p-1) bound < 2^(8 size), bound >= max|entry| and
    6 (p-1) bound < 2^64.

    The rows are gathered into CRT order and packed as signed slots
    (`_signed_word`), and adding bound to every slot makes each slot
    nonnegative.  After the shifts and the fold, coefficient i is slot
    (i, x) minus slot (i, 0), which removes the offsets and eliminates
    beta^0, minus the x-th power coordinate of sum_k b_k.  Both
    subtractions run on the folded int, in slots of the least width
    `out` with 6 (p-1) bound < 2^(8 out), to which the folded slots are
    repacked if it is wider than `size`: slot (i, 0) sits at position
    p i, and the slots (i, x) at the positions equal to i mod p-1, so the
    beta^0 parts make one word of p-1 slots repeated p times; the x-th
    coordinate of the sum, offset by (p-1) bound and the offset added back
    in one product, fills the positions equal to x mod p: p slots repeated
    p-1 times.  _signed_reader reads every coefficient of the result.
    """
    p = ctx.p
    n = p - 1
    count = p * n
    gather, shifts, reads = _crt_layout(p)
    out = _word_bytes((6 * n * bound).bit_length())
    w = 8 * size
    span = w * count
    packed = (_signed_word(gather([*itertools.chain.from_iterable(rows), 0]), size)
              + bound * _slot_ones(count, size))
    acc = sum(packed << (w * s) for s in shifts)
    folded = (acc & ((1 << span) - 1)) + (acc >> span)
    raw = folded.to_bytes(span // 8, "little")
    if out > size:
        raw = _widened(raw, size, out)
        folded = int.from_bytes(raw, "little")
    zeros = _every_pth_slot(p, out).unpack_from(raw)
    c = n * bound
    total = [c + x for x in ctx.to_power(list(map(sum, zip(*rows))))]
    read = _signed_reader(count, out)(
        folded + c * _slot_ones(count, out)
        - int.from_bytes(_slot_structs(p, out)[1].pack(c, *total) * n, "little")
        - int.from_bytes(_slot_structs(n, out)[1].pack(*zeros) * p, "little"))
    return (get(read) for get in reads)


@functools.lru_cache(maxsize=None)
def _every_pth_slot(p: int, size: int):
    """The unsigned little-endian format that reads slots 0, p, ..., (p-2) p
    of p (p-1) slots of `size` bytes (1, 2, 4 or 8), skipping the rest."""
    code = _STRUCT_CODES[size].upper()
    return struct.Struct("<" + code + f"{(p - 1) * size}x{code}" * (p - 2))


def _looped_coefficients(ctx: CycCtx, rows):
    """mat_to_skew's coefficients by one rotated_sum each over the nonzero
    scaled rows: O(p^3) int additions, the path for entries too long for
    64-bit slots."""
    p = ctx.p
    n = p - 1
    pow_r = ctx.pow_r
    b = [(k, [0, *ctx.to_power(row)]) for k, row in enumerate(rows) if any(row)]
    neg_total = [-x for x in map(sum, zip(*(vec for _, vec in b)))]
    return (rotated_sum(p, [(vec, p - pow_r[(i + k) % n]) for k, vec in b] + [(neg_total, 0)])
            for i in range(n))


@functools.lru_cache(maxsize=None)
def _crt_layout(p: int):
    """mat_to_skew's packed layout at p, built once per prime: (gather,
    shifts, reads).

    Position c of the packed int stands for the pair (c mod p-1, c mod p).
    gather picks, from the n = p-1 scaled rows laid end to end plus one
    trailing 0, the value for each position: slot (a, x) holds row -a's
    power coordinate x, that is its normal coordinate q(x), and 0 at x = 0.
    shifts lists the positions of (j, -r^j), j = 0..p-2.  reads[i] picks
    coefficient i's slots (i, 1) .. (i, p-1).
    """
    ctx = shared_ctx(p)
    n = p - 1

    def pos(a, x):
        x %= p
        return x + p * ((a - x) % n)

    gather = [n * n if c % p == 0 else (-c % n) * n + ctx.q(c % p) - 1 for c in range(n * p)]
    return (operator.itemgetter(*gather),
            tuple(pos(j, -ctx.pow_r[j]) for j in range(n)),
            tuple(operator.itemgetter(*(pos(i, x) for x in range(1, p))) for i in range(n)))


def _ctx_for(C: RatMatrix, ctx: CycCtx | None) -> CycCtx:
    if ctx is None:
        return shared_ctx(C.p)
    if ctx.p != C.p:
        raise ValueError(f"dimension mismatch: matrix p={C.p}, context p={ctx.p}")
    return ctx


def skew_to_mat(f: SkewPoly) -> RatMatrix:
    """The matrix of the linear map of f in the normal basis: the matrix
    whose row i is f's value at v_(i+1) = beta^(r^i), i = 0..p-2, so whose
    row q(l) is f's value at v_1^l = beta^l.

    values_at_beta_powers gives f's values at beta^(r^0) .. beta^(r^(p-2))
    over one common denominator, each one sum of #f rotated words, all read
    by one struct call: O(p #f) interpreter steps and p #f big-int shifted
    adds in all.  They come out in row order, and the gather that reads
    values in normal coordinates (skewpoly._normal_rows, which det's
    certificate shares) lays them out as rows; each row is put over the
    denominator in lowest terms by RatMatrix._reduced.
    """
    p = f.ctx.p
    n = p - 1
    den, values = values_at_beta_powers(f, f.ctx.pow_r)
    return RatMatrix._reduced(p, _normal_rows(p, values), ((den,) * n,) * n)


class Orientation(enum.Enum):
    """Composition-order convention of the polynomial/matrix bijection."""

    DIRECT = "direct"      # matrix of f*g equals (matrix of f)(matrix of g)
    REVERSED = "reversed"  # matrix of f*g equals (matrix of g)(matrix of f)


def phi_orientation(ctx: CycCtx) -> Orientation:
    """The composition order, settled by a fixed probe.

    The probe multiplies the non-commuting pair f = x, g = beta x^2 and
    compares the matrix of f*g against both matrix-product orders; exactly
    one matches.  The three probe matrices have integer entries, so both
    products run on their numerators.  Nothing is cached: the multiplication
    algorithms do not need the answer, and `selftest` and the tests call it
    to check the convention.
    """
    f = SkewPoly.monomial(ctx, 1)
    g = SkewPoly.monomial(ctx, 2, ctx.beta_power(1))
    mf, mg, mh = (list(skew_to_mat(h).nums) for h in (f, g, sp_mul(f, g)))
    if mh == cubic_multiply(mf, mg):
        return Orientation.DIRECT
    if mh == cubic_multiply(mg, mf):
        return Orientation.REVERSED
    raise RuntimeError(
        "orientation probe failed: the product matrix matches neither "
        "operand order -- the transform is internally inconsistent")
