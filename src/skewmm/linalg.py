"""Exact dense Gaussian elimination over any field-like scalar.

Works for anything supporting +, -, *, the reciprocal 1/x, and truthiness
as an exact zero test.  No algorithm of the package calls it: the
interpolation solves exploit the roots-of-unity nodes instead.  It stays
exported as a general exact solver, on rationals, with which the tests check
that basis systems are nonsingular.  Arithmetic is exact, so the first
nonzero entry of a column is always a valid pivot and no numerical
thresholds exist.
"""


class SingularMatrixError(ArithmeticError):
    """Square system has no unique solution."""


def solve_square(matrix, rhs):
    """Solve M x = rhs for square M, returning x as a list.

    Raises SingularMatrixError when M is singular.  One reciprocal is
    taken per pivot (not per eliminated entry), which keeps the number of
    field inversions linear in the dimension.
    """
    n = len(matrix)
    if len(rhs) != n or any(len(row) != n for row in matrix):
        raise ValueError("system dimensions are inconsistent")
    a = [list(matrix[i]) + [rhs[i]] for i in range(n)]

    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        prow = a[col]
        inv = 1 / prow[col]
        for r in range(col + 1, n):
            brow = a[r]
            if not brow[col]:
                continue
            factor = brow[col] * inv
            for c in range(col, n + 1):
                if prow[c]:
                    brow[c] = brow[c] - factor * prow[c]

    x = [None] * n
    for row in range(n - 1, -1, -1):
        arow = a[row]
        acc = arow[n]
        for c in range(row + 1, n):
            if arow[c]:
                acc = acc - arow[c] * x[c]
        x[row] = acc * (1 / arow[row]) if acc else acc
    return x
