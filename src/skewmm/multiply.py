"""Exact schoolbook matrix kernel.

Every rational matrix product in the package -- the oracle (`naive_mul`),
`RatMatrix.__matmul__` and the evaluation stage of the structured
algorithms -- goes through `rational_product`, which scales each row of the
left factor and each column of the right factor to ints and runs
`cubic_multiply` on them.  No multiplication is counted here: each
algorithm reports its nominal count as a closed form (`MulReport`).
"""

import math
import operator


def cubic_multiply(x_rows, y_rows):
    """Schoolbook product of row-major matrices: (m x n) * (n x k).

    Works on any exact ring elements; `rational_product` feeds it ints.
    Returns a list of tuples.
    """
    n = len(y_rows)
    if any(len(row) != n for row in x_rows):
        raise ValueError("inner dimensions do not match")
    y_cols = list(zip(*y_rows))
    mul = operator.mul
    return [tuple(sum(map(mul, xrow, col)) for col in y_cols) for xrow in x_rows]


def rational_product(x_nums, x_dens, y_nums, y_dens):
    """The product of two rational matrices on ints, as (d, e, S).

    Each factor is given as its rows of int numerators and the matching rows
    of positive int denominators (RatMatrix's layout).  d[i] is the lcm of
    the denominators in row i of x, e[k] the lcm of those in column k of y,
    and S = cubic_multiply of d[i] * x's row i by e[k] * y's column k, so
    entry (i, k) of the product is S[i][k] / (d[i] e[k]).  Per-row and
    per-column scales keep the ints as short as each entry's own
    denominators allow; one global lcm would make every product as long as
    the longest.  Rows of x over 1, and y when all of it is over 1, are
    used unscaled.
    """
    d = [math.lcm(*dens) for dens in x_dens]
    e = [math.lcm(*col) for col in zip(*y_dens)]
    xs = [nums if di == 1 else [x * (di // dx) for x, dx in zip(nums, dens)]
          for nums, dens, di in zip(x_nums, x_dens, d)]
    if max(e, default=1) == 1:
        ys = y_nums
    else:
        ys = [[y * (ek // dy) for y, dy, ek in zip(nums, dens, e)]
              for nums, dens in zip(y_nums, y_dens)]
    return d, e, cubic_multiply(xs, ys)
