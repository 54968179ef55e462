"""pullback against its definition, mat_to_skew.

pullback reads a sparse polynomial off the first 2T rows of its matrix and
certifies it against the rest; whatever route it takes, the result must be
exactly mat_to_skew's.  The sparse route is off below p=61 (T = 0), so
p in {3, 5, 7, 13, 31} checks the plain fallback and p=61 (T = 1) the
sparse route, at sparsities on both sides of its bound.  Two adversarial
inputs must fall back: (a) a matrix whose first 2T rows fit a sparse
candidate that a later row contradicts, and (b) a matrix over a
denominator every support prime divides.  Both run at p=61 and, under a
bound of 5 pinned in place of the fitted 0, at p=31, so that candidates of
several terms meet the certificate too.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_elem, seeded
from skewmm import (InterpolationError, RatMatrix, SkewPoly, det_mul, mat_to_skew,
                    naive_mul, pullback, shared_ctx, skew_to_mat)
from skewmm import skewpoly, transform
from skewmm.cli import main
from skewmm.matrixfile import write_matrix_file
from skewmm.rational import Rat
from skewmm.skewpoly import _moduli
from skewmm.skewstructure import random_layered
from skewmm.transform import _sparse_bound, _value_on_ints

PRIMES = (3, 5, 7, 13, 31, 61)
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 3 ** 40, 2 ** 61 - 1)


def sparsities(p):
    bound = _sparse_bound(p)
    return sorted({0, 1, bound, bound + 1, p - 1})


@st.composite
def layered_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    s = draw(st.sampled_from(sparsities(p)))
    rng = seeded(draw(st.integers(0, 2 ** 32)))
    ctx = shared_ctx(p)
    terms = {e: rand_elem(ctx, rng) * Rat(1, draw(st.sampled_from(DENOMINATORS)))
             for e in rng.sample(range(p - 1), s)}
    return p, s, skew_to_mat(SkewPoly(ctx, terms))


@settings(deadline=None, max_examples=80)
@given(layered_cases())
def test_pullback_equals_mat_to_skew(case):
    p, s, C = case
    ctx = shared_ctx(p)
    bound = _sparse_bound(p)
    route = "sparse" if bound and s <= bound else "dense"
    assert pullback(C, ctx) == (mat_to_skew(C, ctx), route)


@pytest.mark.parametrize("p", PRIMES)
def test_zero_and_identity(p):
    ctx = shared_ctx(p)
    route = "sparse" if _sparse_bound(p) else "dense"
    assert pullback(RatMatrix.zeros(p)) == (SkewPoly.zero(ctx), route)
    assert pullback(RatMatrix.identity(p), ctx) == (SkewPoly.one(ctx), route)


def test_sparse_route_is_off_below_61_and_certifies_above():
    assert [_sparse_bound(p) for p in (3, 5, 7, 11, 13, 17, 31, 53, 59)] == [0] * 9
    for p in (61, 101, 127):
        assert 1 <= _sparse_bound(p) and 2 * _sparse_bound(p) < p - 1


#: bounds pinned in place of the fitted one.  The certificate must reject a
#: changed row under any bound; at p=31, where the fitted T is 0, the bound
#: 5 (p // 6, fitted before the packed mat_to_skew) lets candidates of up
#: to 5 terms reach it, more than the fitted T allows at any prime up to 61
PINNED_BOUNDS = {31: 5}


def sparse_bound(p):
    """The bound the certificate tests run pullback under at p."""
    return PINNED_BOUNDS.get(p, _sparse_bound(p))


def recording_interpolation(monkeypatch, p=None):
    """Wrap the sparse_interpolate pullback calls, and pin the sparse bound
    if PINNED_BOUNDS names p; returns the outcomes."""
    if p in PINNED_BOUNDS:
        monkeypatch.setattr(transform, "_sparse_bound", lambda q: PINNED_BOUNDS[q])
    outcomes = []
    real = transform.sparse_interpolate

    def recording(values, bound, ctx):
        try:
            f = real(values, bound, ctx)
        except InterpolationError:
            outcomes.append("raised")
            raise
        outcomes.append(f.sparsity)
        return f

    monkeypatch.setattr(transform, "sparse_interpolate", recording)
    return outcomes


def assert_products_exact(M, ctx, rng):
    B = random_layered(ctx, [0, 3], rng.getrandbits(32))
    assert det_mul(M, B)[0] == naive_mul(M, B)
    assert det_mul(B, M)[0] == naive_mul(B, M)


@pytest.mark.parametrize("p", (31, 61))
@pytest.mark.parametrize(("s", "change"),
                         [(1, "add"), ("bound", "add"), (1, "halve"), ("bound", "halve")],
                         ids=["1", "bound", "1-halve", "bound-halve"])
def test_certificate_rejects_a_changed_row_past_the_first_2T(monkeypatch, p, s, change):
    # case (a): rows q(1)..q(2T) are those of a sparse matrix, so the
    # interpolation finds its polynomial; one changed later row must make
    # the certificate reject it.  "add" changes one entry; "halve" halves
    # the row, which keeps its lowest-terms numerators and changes only its
    # denominator, so the certificate must compare denominators too
    ctx = shared_ctx(p)
    bound = sparse_bound(p)
    s = bound if s == "bound" else s
    rng = seeded(p * 100 + s)
    for l in (2 * bound + 1, p - 1):
        sparse = random_layered(ctx, rng.sample(range(p - 1), s), rng.getrandbits(32))
        rows = [list(row) for row in sparse.rows]
        if change == "add":
            rows[ctx.q(l) - 1][rng.randrange(p - 1)] += Rat(1, 3)
        else:
            rows[ctx.q(l) - 1] = [x / 2 for x in rows[ctx.q(l) - 1]]
        M = RatMatrix(p, rows)
        if change == "halve":
            (num, den), (old_num, old_den) = (_value_on_ints(X, ctx, l) for X in (M, sparse))
            assert num == old_num and den == 2 * old_den
        outcomes = recording_interpolation(monkeypatch, p)
        assert pullback(M, ctx) == (mat_to_skew(M, ctx), "dense")
        assert outcomes == [s]
        assert mat_to_skew(M, ctx).sparsity > bound
        monkeypatch.undo()
        assert_products_exact(M, ctx, rng)


def test_certificate_stops_at_the_first_mismatch(monkeypatch):
    # a one-term matrix at p=61 (T = 1) with row q(3), the first row the
    # certificate reads, changed: the certificate must build f's value at
    # beta^3 and no other, where building all p-1-2T = 58 first would do
    p = 61
    ctx = shared_ctx(p)
    bound = _sparse_bound(p)
    l = 2 * bound + 1
    rng = seeded(2161)
    sparse = random_layered(ctx, [rng.randrange(p - 1)], rng.getrandbits(32))
    rows = [list(row) for row in sparse.rows]
    rows[ctx.q(l) - 1][0] += 1
    M = RatMatrix(p, rows)
    built = []
    real_agrees, real_rotated_sum = skewpoly._agrees, skewpoly.rotated_sum

    def counting_rotated_sum(p, shifted):
        built.append(1)
        return real_rotated_sum(p, shifted)

    def certificate(f, exponents, expected):
        assert list(exponents) == list(range(l, p))
        monkeypatch.setattr(skewpoly, "rotated_sum", counting_rotated_sum)
        try:
            return real_agrees(f, exponents, expected)
        finally:
            monkeypatch.setattr(skewpoly, "rotated_sum", real_rotated_sum)

    monkeypatch.setattr(transform, "_agrees", certificate)
    assert pullback(M, ctx) == (mat_to_skew(M, ctx), "dense")
    assert len(built) == 1


@pytest.mark.parametrize("p", (31, 61))
def test_every_prime_failing_falls_back_to_the_dense_pullback(monkeypatch, p):
    # case (b): every value's denominator holds every prime the support
    # search uses, so each prime is skipped and the interpolation gives up,
    # though the matrix's T or fewer terms would otherwise be found
    ctx = shared_ctx(p)
    every_q = 1
    for q, _ in _moduli(p):
        every_q *= q
    rng = seeded(p)
    layers = [0, 5][:sparse_bound(p)]
    M = random_layered(ctx, layers, rng.getrandbits(32)).scale(Rat(1, every_q))
    outcomes = recording_interpolation(monkeypatch, p)
    assert pullback(M, ctx) == (mat_to_skew(M, ctx), "dense")
    assert outcomes == ["raised"]
    monkeypatch.undo()
    assert_products_exact(M, ctx, rng)


def test_det_reports_each_factors_route():
    rng = seeded(7)
    ctx = shared_ctx(61)
    sparse = random_layered(ctx, [2], rng.getrandbits(32))
    wide = random_layered(ctx, list(range(_sparse_bound(61) + 1)), rng.getrandbits(32))
    for A, B, routes in ((sparse, wide, ("sparse", "dense")),
                         (wide, sparse, ("dense", "sparse")),
                         (sparse, sparse, ("sparse", "sparse"))):
        product, report = det_mul(A, B)
        assert product == naive_mul(A, B)
        assert report.pullback == routes
    ctx = shared_ctx(13)
    A = random_layered(ctx, [0], rng.getrandbits(32))
    assert det_mul(A, A)[1].pullback == ("dense", "dense")
    assert det_mul(RatMatrix.zeros(61), sparse)[1].pullback == ("sparse", "sparse")


def test_mul_reports_the_route_and_analyze_is_unchanged(tmp_path, capsys):
    ctx = shared_ctx(61)
    rng = seeded(11)
    A = random_layered(ctx, [0], rng.getrandbits(32)).scale(Rat(1, 5))
    a, b, out = tmp_path / "a.mat", tmp_path / "b.mat", tmp_path / "c.mat"
    write_matrix_file(a, A)
    write_matrix_file(b, random_layered(ctx, list(range(8)), rng.getrandbits(32)))
    assert main(["mul", "--algo", "det", str(a), str(b), "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().err)["pullback"] == ["sparse", "dense"]
    for algo, extra in (("naive", []), ("mc", ["--nu", "1/20"])):
        assert main(["mul", "--algo", algo, *extra, str(a), str(b), "-o", str(out)]) == 0
        assert "pullback" not in json.loads(capsys.readouterr().err)
    # analyze takes the sparse route on A; its report is the dense pullback's
    assert pullback(A)[1] == "sparse"
    assert main(["analyze", str(a)]) == 0
    f = mat_to_skew(A)
    expected = ["p: 61", f"skew-sparsity: {f.sparsity}", f"support: {f.support()!r}"]
    expected += [f"norm[{e}]: {sum(abs(c) for c in coeff.coords)}"
                 for e, coeff in f.sorted_terms()]
    assert capsys.readouterr().out.splitlines() == expected


def test_support_primes_are_found_on_demand():
    skewpoly._modulus.cache_clear()
    ctx = shared_ctx(61)
    C = random_layered(ctx, [4], seeded(3).getrandbits(32))
    assert pullback(C, ctx)[1] == "sparse"
    assert skewpoly._modulus.cache_info().currsize == 1
    assert len(list(_moduli(61))) == skewpoly.NUM_MODULI
