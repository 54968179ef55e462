"""Exact schoolbook matrix kernel with nominal multiplication counting.

Both the oracle (`naive_mul`) and the evaluation stage of the structured
algorithms call `cubic_multiply` directly.  It charges the nominal m*n*k
multiplication count to an explicit `OpCounter` argument; that count is the
asserted cost model.
"""


class OpCounter:
    """Accumulates a nominal rational-multiplication count."""

    __slots__ = ("muls",)

    def __init__(self):
        self.muls = 0

    def __repr__(self):
        return f"OpCounter(muls={self.muls})"


def cubic_multiply(x_rows, y_rows, counter=None):
    """Schoolbook product of row-major matrices: (m x n) * (n x k).

    Returns a list of tuples.  Charges m*n*k multiplications to `counter`.
    """
    n = len(y_rows)
    if any(len(row) != n for row in x_rows):
        raise ValueError("inner dimensions do not match")
    y_cols = list(zip(*y_rows))
    out = [tuple(sum(a * b for a, b in zip(xrow, col)) for col in y_cols)
           for xrow in x_rows]
    if counter is not None:
        counter.muls += len(x_rows) * n * len(y_cols)
    return out
