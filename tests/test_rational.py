"""The scalar layer: every rational is a fractions.Fraction."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from skewmm.rational import SCALAR_TYPES

SRC = Path(__file__).resolve().parents[1] / "src"


def test_rat_is_fraction_even_with_gmpy2_importable(tmp_path):
    assert SCALAR_TYPES == (int, Fraction)
    # a stand-in gmpy2 whose mpq is a Fraction subclass, ahead of src on the path
    (tmp_path / "gmpy2.py").write_text(
        "from fractions import Fraction\n\n\nclass mpq(Fraction):\n    pass\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]))
    check = ("from skewmm.rational import Rat; from fractions import Fraction; "
             "assert Rat is Fraction")
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
