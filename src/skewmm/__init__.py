"""Exact skew-sparse multiplication of (p-1) x (p-1) rational matrices.

The matrix algebra over Q is identified with a twisted polynomial ring in
which sparsity ("skew-sparsity") makes products cheap: a deterministic
algorithm exploits an exponent-sumset bound, and a Monte Carlo variant
guesses the true product sparsity and certifies the result with randomized
verification.  Everything is exact rational arithmetic; nothing here ever
touches floating point.

The generators and layer tools of `skewstructure` are exported too, but
imported on first access (PEP 562), because only `gen`, `bench` and
`selftest` use them: a `mul`, `verify` or `analyze` process never compiles
that module.
"""

import importlib

from .cyclotomic import (CycCtx, CycElem, cyc_add, cyc_mul, cyc_neg, cyc_scale,
                         cyc_sigma, find_primitive_root, from_normal_coords, is_odd_prime,
                         normal_coords, power_of_v1, shared_ctx)
from .matmul import (Algorithm, FreivaldsResult, MulReport, det_mul, freivalds,
                     mc_mul, naive_mul, rounds_for)
from .matrixfile import (MatrixFormatError, parse_matrix, read_matrix_file,
                         serialize_matrix, write_matrix_file)
from .multiply import cubic_multiply
from .skewpoly import (InterpolationError, SkewPoly, SupportSet, interpolate_known_support,
                       power_points, sp_add, sp_evaluate, sp_mul, sp_neg,
                       sparse_interpolate, sumset)
from .transform import (Orientation, RatMatrix, build_V, build_W, mat_to_skew,
                        phi_orientation, skew_to_mat)

__version__ = "1.0.0"

_SKEWSTRUCTURE_NAMES = frozenset((
    "antidiag_perm", "build_AB_perm", "build_P", "build_Q", "build_X", "build_Y",
    "l0_characterization_check", "layer_basis_elem", "random_layered", "shift_rows_up",
    "skew_sparsity", "y_power_row"))


def __getattr__(name):
    # import_module, not `from . import skewstructure`: a from-import would
    # first ask this function for the submodule itself
    if name in _SKEWSTRUCTURE_NAMES:
        return getattr(importlib.import_module(".skewstructure", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted((*globals(), *_SKEWSTRUCTURE_NAMES))
