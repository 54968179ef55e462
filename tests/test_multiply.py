"""Schoolbook rectangular kernel."""

import pytest

from skewmm import OpCounter, cubic_multiply
from skewmm.rational import Rat


def test_cubic_multiply_values_and_count():
    x = [(1, 2), (3, 4), (5, 6)]
    y = [(1, 0, 2), (0, 1, 3)]
    counter = OpCounter()
    out = cubic_multiply(x, y, counter)
    assert out == [(1, 2, 8), (3, 4, 18), (5, 6, 28)]
    assert counter.muls == 3 * 2 * 3


def test_cubic_multiply_rationals_exact():
    x = [(Rat(1, 2), Rat(1, 3))]
    y = [(Rat(2, 5),), (Rat(3, 7),)]
    assert cubic_multiply(x, y) == [(Rat(1, 5) + Rat(1, 7),)]


def test_cubic_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        cubic_multiply([(1, 2, 3)], [(1,), (2,)])
