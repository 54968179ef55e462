"""Spans around calls into skewmm's layers, recorded from outside the package.

`install` wraps each layer function named in LAYERS and rebinds every module
attribute in the skewmm package that still points at the original function.
Wrapping only the defining module would miss most calls, because the package
reaches its layers by several routes:

  * matmul imports mat_to_skew, sumset, ... by name;
  * skewpoly calls linalg.solve_square through the module, and
    interpolate_known_support as its own global;
  * cyclotomic imports solve_square by name, and CycElem's operators reach
    cyc_mul and cyc_inv (1/x goes through __rtruediv__) as module globals;
  * multiply keeps the schoolbook kernel in its hook slot.

Rebinding by identity catches all of these without naming them. A function
that no longer exists is reported as absent rather than failing the run.

Each span records its parent, so self time stays exact where a layer nests
inside itself (solve_square inside cyc_inv inside solve_square). Inclusive
time is charged only to the outermost active span of a name, so recursion is
not counted twice.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

#: module -> functions traced in it; the names the per-layer metrics use
LAYERS = {
    "matmul": ("det_mul", "mc_mul", "naive_mul", "freivalds"),
    "transform": ("mat_to_skew", "skew_to_mat", "phi_orientation"),
    "skewpoly": ("sumset", "batch_evaluate_via_matrices",
                 "interpolate_known_support", "sparse_interpolate"),
    "multiply": ("rect_multiply", "cubic_multiply"),
    "linalg": ("solve_square", "matrix_rank"),
    "cyclotomic": ("shared_ctx", "cyc_mul", "cyc_inv"),
    "matrixfile": ("read_matrix_file", "write_matrix_file"),
    "cli": ("cmd_mul", "cmd_verify", "cmd_analyze"),
}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _counts_solve_square(args):
    return {"dim_sum": len(args[0])}


def _counts_rect_multiply(args):
    x_rows, y_rows = args[0], args[1]
    k = len(y_rows[0]) if y_rows else 0
    return {"rational_mul_count": len(x_rows) * len(y_rows) * k}


def _counts_file(args):
    return {"bytes": _file_bytes(args[0])}


#: extra counts recorded at a layer boundary, from the call's arguments
COUNTS = {
    "linalg.solve_square": _counts_solve_square,
    "multiply.rect_multiply": _counts_rect_multiply,
    "matrixfile.read_matrix_file": _counts_file,
    "matrixfile.write_matrix_file": _counts_file,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []      # (span id, parent id, request, name, start ns, end ns)
        self.stats = {}      # name -> [calls, inclusive ns, self ns, errors]
        self.counts = {}     # "<layer>.<count>" -> total
        self.request = 0     # spans of one product share this identifier
        self._stack = []     # open frames: [span id, child ns]
        self._active = {}    # name -> open frames of that name

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0, 0, 0])
        count_fn = COUNTS.get(name)
        stack = self._stack
        active = self._active
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            spans.append(None)
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                dur = end - start
                stats[0] += 1
                if depth == 0:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if failed:
                    stats[3] += 1
                if stack:
                    stack[-1][1] += dur
                spans[span_id] = (span_id, parent, self.request, name, start, end)
                if count_fn is not None and not failed:
                    for key, value in count_fn(args).items():
                        full = f"{name}.{key}"
                        self.counts[full] = self.counts.get(full, 0) + value

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Aggregates and spans, as another process's `merge` reads them."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts), "spans": self.spans}

    def merge(self, summary):
        """Add a child process's summary; its spans join the current request."""
        for name, values in summary["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(values):
                mine[i] += value
        for name, value in summary["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + value
        offset = len(self.spans)
        for span_id, parent, _request, name, start, end in summary["spans"]:
            self.spans.append((span_id + offset, parent + offset if parent >= 0 else -1,
                               self.request, name, start, end))


def install(tracer):
    """Wrap every layer function at its call sites; returns (undo, absent).

    `undo()` restores the original bindings. `absent` lists the layer
    functions this version of skewmm does not define.
    """
    modules = {}
    for mod_name in LAYERS:
        try:
            modules[mod_name] = importlib.import_module(f"skewmm.{mod_name}")
        except ModuleNotFoundError:
            modules[mod_name] = None
    package = [m for key, m in sys.modules.items()
               if m is not None and (key == "skewmm" or key.startswith("skewmm."))]
    rebound = []
    absent = []
    for mod_name, functions in LAYERS.items():
        for fn_name in functions:
            name = f"{mod_name}.{fn_name}"
            original = getattr(modules[mod_name], fn_name, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))

    def undo():
        for module, attr, original in reversed(rebound):
            setattr(module, attr, original)

    return undo, absent
