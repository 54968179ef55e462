"""Canonical text serialization of rational matrices (format v1).

Layout: a header line "skewmm-matrix v1 p=<prime>", then p-1 lines of p-1
single-space-separated rationals written as "<num>" or "<num>/<den>" in
lowest terms with a positive denominator.  UTF-8, LF line endings, a final
newline, no trailing whitespace, no floats.  The parser is strict enough
that parse -> serialize reproduces the input bytes exactly, which is what
makes generated files safe to diff and hash.

Every numerator and denominator has at most sys.get_int_max_str_digits()
decimal digits (4300 by default), the most CPython converts between int
and str.  Reading refuses a longer one, naming its line, and writing
refuses a matrix with a longer entry before the file is opened.  Reading
also refuses, as malformed, a file that is not UTF-8 and a header prime
with more digits than MAX_P, before converting it.
"""

from __future__ import annotations

import math
import re
import sys

from .cyclotomic import MAX_P, is_odd_prime
from .transform import RatMatrix

HEADER_RE = re.compile(r"skewmm-matrix v1 p=([1-9][0-9]*)\Z")
TOKEN_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


class MatrixFormatError(ValueError):
    """Input text is not a canonical v1 matrix file."""


def _token(num: int, den: int) -> str:
    """Canonical token for the entry num/den in lowest terms ("3", "-7/2", "0")."""
    return str(num) if den == 1 else f"{num}/{den}"


def _too_long(where: str) -> MatrixFormatError:
    """The error for an int past CPython's int/str conversion limit, which
    is the only ValueError int() and str() raise on canonical tokens."""
    return MatrixFormatError(
        f"{where}: an entry has more than {sys.get_int_max_str_digits()} digits")


def serialize_matrix(M: RatMatrix) -> str:
    """The canonical text of M; MatrixFormatError if an entry has more
    digits than CPython converts to str."""
    lines = [f"skewmm-matrix v1 p={M.p}"]
    for lineno, (num, den) in enumerate(zip(M.nums, M.dens), start=2):
        try:
            lines.append(" ".join(map(_token, num, den)))
        except ValueError as exc:
            raise _too_long(f"cannot write line {lineno}") from exc
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> RatMatrix:
    """Parse a canonical v1 file; rejects anything serialize would not emit."""
    if "\r" in text:
        raise MatrixFormatError("carriage returns are not allowed (LF line endings only)")
    if not text.endswith("\n"):
        raise MatrixFormatError("file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise MatrixFormatError("empty file")
    header = HEADER_RE.fullmatch(lines[0])
    if header is None:
        raise MatrixFormatError(f"bad header line: {lines[0]!r}")
    digits = header.group(1)
    # a number longer than MAX_P is above it; checked before int(), which
    # refuses a number past the int/str digit limit
    if len(digits) > len(str(MAX_P)):
        raise MatrixFormatError(f"header prime of {len(digits)} digits is above the "
                                f"supported ceiling {MAX_P}")
    p = int(digits)
    if p > MAX_P:
        raise MatrixFormatError(f"header prime {p} is above the supported ceiling {MAX_P}")
    if not is_odd_prime(p):
        raise MatrixFormatError(f"header prime {p} is not an odd prime")
    n = p - 1
    if len(lines) != 1 + n:
        raise MatrixFormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split(" ")
        if len(tokens) != n or any(tok == "" for tok in tokens):
            raise MatrixFormatError(f"line {lineno}: expected {n} single-space-separated entries")
        row = []
        for tok in tokens:
            if TOKEN_RE.fullmatch(tok) is None:
                raise MatrixFormatError(f"line {lineno}: bad rational token {tok!r}")
            a, _, b = tok.partition("/")
            try:
                x, d = int(a), int(b or 1)
            except ValueError as exc:
                raise _too_long(f"line {lineno}") from exc
            if math.gcd(x, d) != 1 or _token(x, d) != tok:
                raise MatrixFormatError(f"line {lineno}: non-canonical rational {tok!r}")
            row.append((x, d))
        rows.append(tuple(zip(*row)))  # (numerators, denominators)
    nums, dens = zip(*rows)
    return RatMatrix._from_ints(p, nums, dens)


def write_matrix_file(path, M: RatMatrix) -> None:
    """Write M's canonical text; it is built first, so a matrix that cannot
    be written leaves no file behind."""
    text = serialize_matrix(M)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_matrix_file(path) -> RatMatrix:
    """Parse the file at path; MatrixFormatError if it is not UTF-8 text
    or not a canonical v1 matrix."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MatrixFormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_matrix(text)
