"""Exact schoolbook matrix kernels.

Every rational matrix product in the package -- the oracle (`naive_mul`),
`RatMatrix.__matmul__`, det's rows stage and mc's pass over the product's
rows -- goes through `rational_product`, which scales each row of the left
factor and each column of the right factor to ints and multiplies those by
`int_rows`: each row of the right factor is packed once into one int of
signed slots of at most 64 bits, and each product row, computed when asked
for, is one sum of p-1 (int x packed row) products, unpacked once
(Kronecker substitution, as in `cyc_mul`).  A product whose entries need
wider slots takes `cubic_multiply`, the generic ring kernel, instead.
`RationalProduct` makes the product's parts one at a time, so that det's
cost model can read the slot width before any row is formed.  No
multiplication is counted here (`MulReport`).
"""

import math
import operator

from .cyclotomic import _signed_word, _slot_ones, _slot_structs, _word_bytes


def cubic_multiply(x_rows, y_rows):
    """Schoolbook product of row-major matrices: (m x n) * (n x k).

    Works on any exact ring elements; `int_rows` feeds it the int products
    whose entries are too long for 64-bit slots.  Returns a list of tuples.
    """
    n = len(y_rows)
    if any(len(row) != n for row in x_rows):
        raise ValueError("inner dimensions do not match")
    y_cols = list(zip(*y_rows))
    mul = operator.mul
    return [tuple(sum(map(mul, xrow, col)) for col in y_cols) for xrow in x_rows]


def _product_bits(x_rows, y_rows) -> int:
    """The bits of a signed slot that holds every entry of y and of the
    product x*y: those of B = n max(1, max|x|) max|y| plus a sign bit, read
    by one max and one min over each factor; 0 where either has no entry."""
    if not (x_rows and y_rows and y_rows[0]):
        return 0
    x_max = max(max(map(max, x_rows)), -min(map(min, x_rows)), 1)
    y_max = max(max(map(max, y_rows)), -min(map(min, y_rows)))
    return (len(y_rows) * x_max * y_max).bit_length() + 1


def int_rows(x_rows, y_rows, bits=None):
    """The rows of the int product of x and y, (m x n) * (n x k), on
    demand: the function taking an iterable of rows of x to their rows of
    the product, as a list of tuples.  y is packed once, for every call.

    Each row of y is packed into one int, entry k in a signed slot of w
    bits at 2^(w k) (`_signed_word`), and row i of the product is
    sum_j x[i][j] * word_j: slot k of that sum is entry (i, k), since no
    slot overflows.  Every entry of y and of the product is at most
    B = n max(1, max|x|) max|y| in size, so w is the least of 8, 16, 32
    or 64 bits that holds B's bits plus a sign bit (`bits`, read off the
    factors by `_product_bits` unless the caller has read it), for rows
    of x or no longer ones.  Adding 2^(w-1) to every slot makes them
    all nonnegative, and flipping each slot's top bit then gives its two's
    complement, so a row is read through one signed struct.  O(n) big-int
    products per row, against O(n k) dot-product steps for
    `cubic_multiply`, which runs each call when B needs wider slots, as
    mat_to_skew keeps its loop past them.
    """
    n = len(y_rows)
    if any(len(row) != n for row in x_rows):
        raise ValueError("inner dimensions do not match")
    if bits is None:
        bits = _product_bits(x_rows, y_rows)
    size = _word_bytes(bits) if bits else None
    if size is None:
        return lambda rows: cubic_multiply(list(rows), y_rows)
    cols = len(y_rows[0])
    top = _slot_ones(cols, size) << (8 * size - 1)
    words = [_signed_word(row, size) for row in y_rows]
    read = _slot_structs(cols, size)[0].unpack
    span = size * cols
    mul = operator.mul
    return lambda rows: [read(((sum(map(mul, xrow, words)) + top) ^ top).to_bytes(span, "little"))
                         for xrow in rows]


def _scaled(x_nums, x_dens, y_nums, y_dens):
    """(d, e, xs, ys): the lcms d of x's rows and e of y's columns, and the
    ints d[i] * x's row i and e[k] * y's column k (rational_product)."""
    ones = (1,) * len(y_dens)
    d = [1 if dens == ones else math.lcm(*dens) for dens in x_dens]
    e = [1 if col == ones else math.lcm(*col) for col in zip(*y_dens)]
    xs = [nums if di == 1 else [x * (di // dx) for x, dx in zip(nums, dens)]
          for nums, dens, di in zip(x_nums, x_dens, d)]
    if max(e, default=1) == 1:
        ys = y_nums
    else:
        ys = [[y * (ek // dy) for y, dy, ek in zip(nums, dens, e)]
              for nums, dens in zip(y_nums, y_dens)]
    return d, e, xs, ys


class RationalProduct:
    """rational_product's int product for det_mul, made a part at a time,
    each part once and only when first asked for: the scales, the scaled
    factors and the bits a slot needs (`bits`, one max and one min over
    each scaled factor), then y packed, with the rows.  det_mul prices its
    rows stage by `bits` before it scans, and takes that stage from the
    same parts: no entry is read twice."""

    __slots__ = ("_factors", "_parts")

    def __init__(self, x_nums, x_dens, y_nums, y_dens):
        self._factors = (x_nums, x_dens, y_nums, y_dens)
        self._parts = None

    def _scaled(self):
        if self._parts is None:
            d, e, xs, ys = _scaled(*self._factors)
            self._parts = d, e, xs, ys, _product_bits(xs, ys)
        return self._parts

    @property
    def bits(self) -> int:
        """The bits of a signed slot that holds every entry of the scaled
        y and of the product (_product_bits)."""
        return self._scaled()[4]

    def product(self):
        """(d, e, S): the lcms of x's rows and of y's columns, and all the
        rows of the int product, as rational_product gives them."""
        d, e, xs, ys, bits = self._scaled()
        return d, e, int_rows(xs, ys, bits)(xs)


def rational_product(x_nums, x_dens, y_nums, y_dens):
    """The product of two rational matrices on ints, as (d, e, rows).

    Each factor is given as its rows of int numerators and the matching rows
    of positive int denominators (RatMatrix's layout).  d[i] is the lcm of
    the denominators in row i of x, e[k] the lcm of those in column k of y,
    and S = the int product of d[i] * x's row i by e[k] * y's column k, so
    entry (i, k) of the product is S[i][k] / (d[i] e[k]).  rows(indices)
    gives the rows S[i], i in `indices`, as a list, and rows() all of them:
    x is scaled and y scaled and packed once, for every call (`int_rows`).
    Per-row and per-column scales keep the ints as short as each entry's
    own denominators allow; one global lcm would make every product as
    long as the longest, and the packed slots with it.  A row or column
    whose denominators are all 1 takes no lcm, found by one tuple
    comparison; rows of x over 1, and y when all of it is over 1, are used
    unscaled.
    """
    d, e, xs, ys = _scaled(x_nums, x_dens, y_nums, y_dens)
    product = int_rows(xs, ys)
    return d, e, lambda indices=None: product(xs if indices is None
                                              else map(xs.__getitem__, indices))
