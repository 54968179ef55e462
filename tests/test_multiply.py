"""Schoolbook rectangular kernel."""

import pytest

from skewmm import cubic_multiply
from skewmm.rational import Rat


def test_cubic_multiply_values():
    x = [(1, 2), (3, 4), (5, 6)]
    y = [(1, 0, 2), (0, 1, 3)]
    assert cubic_multiply(x, y) == [(1, 2, 8), (3, 4, 18), (5, 6, 28)]


def test_cubic_multiply_rationals_exact():
    x = [(Rat(1, 2), Rat(1, 3))]
    y = [(Rat(2, 5),), (Rat(3, 7),)]
    assert cubic_multiply(x, y) == [(Rat(1, 5) + Rat(1, 7),)]


def test_cubic_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        cubic_multiply([(1, 2, 3)], [(1,), (2,)])
