"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact (zero tolerance) except the two statistical
bounds, whose thresholds are fixed below and derived from the one-sided
error analysis of the randomized verifier.
"""

import time
from contextlib import contextmanager

from conftest import rand_matrix, rand_poly, rand_rational_matrix, seeded
from skewmm import (FreivaldsResult, RatMatrix, SkewPoly, antidiag_perm,
                    build_AB_perm, build_P, build_Q, build_V, build_W, build_Y,
                    cyc_mul, cyc_scale, det_mul, freivalds,
                    l0_characterization_check, mat_to_skew, mc_mul, naive_mul,
                    parse_matrix, random_layered, read_matrix_file,
                    serialize_matrix, shared_ctx, skew_to_mat, sp_add,
                    sp_evaluate, sp_mul, sparse_interpolate, sumset, power_points,
                    write_matrix_file, y_power_row)
from skewmm.cli import (EXIT_FORMAT, EXIT_IO, EXIT_NOT_EQUAL, EXIT_OK,
                        EXIT_USAGE, main)
from skewmm.rational import Rat


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {label}  ({time.perf_counter() - start:.1f}s)")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "det_mul equals naive_mul on dense and layered inputs"):
        start = time.perf_counter()
        for p in (3, 5, 7, 11, 13):
            ctx = shared_ctx(p)
            rng = seeded(1000 + p)
            for _ in range(50):
                A = rand_matrix(p, rng)
                B = rand_rational_matrix(p, rng)
                got, _ = det_mul(A, B)
                assert got == naive_mul(A, B)
            for _ in range(50):
                layers_a = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
                layers_b = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
                A = random_layered(ctx, layers_a, rng.getrandbits(32))
                B = random_layered(ctx, layers_b, rng.getrandbits(32))
                got, _ = det_mul(A, B)
                assert got == naive_mul(A, B)
        assert time.perf_counter() - start < 120.0


def test_criterion_02_isomorphism_suite():
    with criterion(2, "transform roundtrips, linearity, multiplicativity"):
        from skewmm import Orientation, phi_orientation

        for p in (3, 5, 7, 11):
            ctx = shared_ctx(p)
            ori = phi_orientation(ctx)
            rng = seeded(2000 + p)
            for _ in range(100):
                C = rand_matrix(p, rng)
                assert skew_to_mat(mat_to_skew(C)) == C
                f = rand_poly(ctx, rng, rng.randint(1, p - 1))
                g = rand_poly(ctx, rng, rng.randint(1, p - 1))
                assert mat_to_skew(skew_to_mat(f)) == f
                # linearity in both directions
                assert skew_to_mat(sp_add(f, g)) == skew_to_mat(f) + skew_to_mat(g)
                c = Rat(rng.randint(1, 9), rng.randint(1, 9))
                scaled = SkewPoly(ctx, {e: cyc_scale(v, c) for e, v in f.terms.items()})
                assert skew_to_mat(scaled) == skew_to_mat(f).scale(c)
                # multiplicativity in the probed operand order
                mf, mg = skew_to_mat(f), skew_to_mat(g)
                want = mg @ mf if ori is Orientation.REVERSED else mf @ mg
                assert skew_to_mat(sp_mul(f, g)) == want


def test_criterion_03_basis_matrix_identity():
    with criterion(3, "V W = p I for ten primes"):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            ctx = shared_ctx(p)
            V, W = build_V(ctx), build_W(ctx)
            n = p - 1
            p_one = cyc_scale(ctx.one, p)
            for i in range(n):
                for j in range(n):
                    acc = ctx.zero
                    for k in range(n):
                        acc = acc + cyc_mul(V[i][k], W[k][j])
                    assert acc == (p_one if i == j else ctx.zero)


def test_criterion_04_generator_identities():
    with criterion(4, "sum of Y powers, permutation-pair product, closed row form"):
        for p in (3, 5, 7, 11):
            ctx = shared_ctx(p)
            Y = build_Y(ctx)
            powers = [RatMatrix.identity(p)]
            total = RatMatrix.zeros(p)
            for _ in range(p - 1):
                powers.append(naive_mul(powers[-1], Y))
                total = total + powers[-1]
            assert total == RatMatrix.identity(p).scale(-1)
            A, B = build_AB_perm(ctx)
            product = naive_mul(A, B)
            assert product == antidiag_perm(p)
            for i in range(1, p):
                for j in range(1, p):
                    assert product.rows[i - 1][j - 1] == (1 if (i + j) % p == 0 else 0)
            for j in range(p):
                for i in range(1, p):
                    assert y_power_row(ctx, j, i) == powers[j].rows[ctx.s(i) - 1]


def test_criterion_05_layer_zero_closed_form():
    with criterion(5, "layer-0 identity and the p=7 templates"):
        for p in (3, 5, 7):
            ctx = shared_ctx(p)
            rng = seeded(5000 + p)
            for _ in range(20):
                c = [rng.randint(-9, 9) for _ in range(p - 1)]
                lhs, rhs = l0_characterization_check(ctx, c)
                assert lhs == rhs
        c = [Rat(k) for k in (1, 2, 3, 4, 5, 6)]
        assert build_P(c).rows == (
            (0, 6, 5, 4, 3, 2),
            (1, 0, 6, 5, 4, 3),
            (2, 1, 0, 6, 5, 4),
            (3, 2, 1, 0, 6, 5),
            (4, 3, 2, 1, 0, 6),
            (5, 4, 3, 2, 1, 0),
        )
        assert build_Q(c).rows == tuple((k,) * 6 for k in (1, 2, 3, 4, 5, 6))


def test_criterion_06_sparse_interpolation():
    with criterion(6, "locator-based interpolation recovers every bounded poly"):
        p = 13
        ctx = shared_ctx(p)
        rng = seeded(6000)
        for t in range(1, 7):
            for bound in range(t, 9):
                for case in range(20):
                    if case % 4 == 0:
                        # route the construction through cancelled positions:
                        # build with sparsity t+2, then subtract two terms
                        big = rand_poly(ctx, rng, t + 2)
                        exps = sorted(big.terms)
                        drop = rng.sample(exps, 2)
                        cancel = SkewPoly(ctx, {e: -big.terms[e] for e in drop})
                        f = sp_add(big, cancel)
                    else:
                        f = rand_poly(ctx, rng, t)
                    assert f.sparsity == t
                    values = [sp_evaluate(f, pt) for pt in power_points(ctx, 2 * bound)]
                    assert sparse_interpolate(values, bound, ctx=ctx) == f


def test_criterion_07_verification_error_rates():
    with criterion(7, "single-round rejection rate and zero false rejections"):
        p = 7
        rng = seeded(7000)
        A = rand_matrix(p, rng)
        B = rand_matrix(p, rng)
        M = naive_mul(A, B)
        rows = [list(r) for r in M.rows]
        rows[1][4] += 1  # single-entry corruption
        bad = RatMatrix(p, rows)
        # mu = 1/2 gives exactly one round
        rejections = sum(freivalds(bad, A, B, "1/2", seed) is FreivaldsResult.NOT_EQUAL
                         for seed in range(1000))
        assert rejections / 1000 >= 0.5 - 3 * (0.25 / 1000) ** 0.5  # 0.4526
        accepts = sum(freivalds(M, A, B, "1/2", seed) is FreivaldsResult.EQUAL
                      for seed in range(1000))
        assert accepts == 1000


def test_criterion_08_monte_carlo_correctness():
    with criterion(8, "200 seeded Monte Carlo runs: correct, tight final bound"):
        p = 7
        ctx = shared_ctx(p)
        rng = seeded(8000)
        correct = 0
        for run in range(200):
            if run % 2 == 0:
                A = rand_matrix(p, rng)
                B = rand_matrix(p, rng)
            else:
                layers_a = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
                layers_b = set(rng.sample(range(p - 1), rng.randint(1, p - 1)))
                A = random_layered(ctx, layers_a, rng.getrandbits(32))
                B = random_layered(ctx, layers_b, rng.getrandbits(32))
            product, report = mc_mul(A, B, "1/20", rng.getrandbits(64))
            want = naive_mul(A, B)
            if product == want:
                correct += 1
            if not report.fallback:
                true_t = mat_to_skew(want).sparsity
                assert report.final_T < 2 * max(true_t, 1)
        assert correct / 200 >= 0.95


def test_criterion_09_cancellation_acceleration():
    with criterion(9, "telescoping pair: det needs 11 points, mc stops at bound 2"):
        p = 13
        ctx = shared_ctx(p)
        A = skew_to_mat(SkewPoly(ctx, {0: ctx.one, 1: -ctx.one}))          # 1 - x
        B = skew_to_mat(SkewPoly(ctx, {e: ctx.one for e in range(10)}))    # 1 + ... + x^9
        want = naive_mul(A, B)
        got_det, rep_det = det_mul(A, B)
        assert got_det == want
        assert len(sumset(mat_to_skew(A), mat_to_skew(B))) == 11
        # B's 10 terms are more than the direct stage takes at p=13, so the
        # density guard sends the pair to the rows stage under the full support
        assert rep_det.t_used == p - 1
        got_mc, rep_mc = mc_mul(A, B, "1/20", 99)
        assert got_mc == want
        assert rep_mc.final_T == 2
        assert rep_mc.t_used == 2


def test_criterion_10_evaluation_cost_scaling():
    with criterion(10, "evaluation-stage count is linear in t at p=31"):
        start = time.perf_counter()
        p = 31
        ctx = shared_ctx(p)
        ts = (1, 2, 4, 8, 16)
        counts = {}
        for t in ts:
            A = random_layered(ctx, {0}, 10_000 + t)
            B = random_layered(ctx, set(range(t)), 20_000 + t)
            product, report = det_mul(A, B)
            points = len(sumset(mat_to_skew(A), mat_to_skew(B)))
            assert points == t
            # on one-digit coordinates no direct route beats the packed rows
            # stage at p=31: det is naive's int product, with its count
            assert (report.t_used, report.rational_mul_count) == (p - 1, (p - 1) ** 3)
            assert product == naive_mul(A, B)
            counts[t] = 2 * points * (p - 1) ** 2  # the paper's evaluation count
            # on 2^32 coordinates the rows stage would loop past 64-bit
            # slots, and det goes direct under the sumset, counted as the
            # paper's evaluation at its t points, up to the (p-2)//2 = 14
            # terms a scan can find in p-1 = 30 rows
            A = random_layered(ctx, {0}, 10_000 + t, 2 ** 32)
            B = random_layered(ctx, set(range(t)), 20_000 + t, 2 ** 32)
            product, report = det_mul(A, B)
            if t <= 14:
                assert (report.product, report.t_used) == ("direct", t)
                assert report.rational_mul_count == counts[t]
            else:
                assert (report.product, report.t_used) == ("rows", p - 1)
            assert product == naive_mul(A, B)
        # least-squares slope through the origin, then per-point deviation
        slope = sum(counts[t] * t for t in ts) / sum(t * t for t in ts)
        for t in ts:
            assert abs(counts[t] - slope * t) <= 0.15 * slope * t
        assert time.perf_counter() - start < 300.0


def test_criterion_11_cli_contract(tmp_path, capsys):
    with criterion(11, "file roundtrips, exit codes, selftest"):
        # twenty generated files roundtrip byte-exactly
        specs = [(p, layers, seed)
                 for p in (5, 7, 11, 13)
                 for layers, seed in (("dense", 1), ("0", 2), ("0,1", 3), ("1,3", 4), ("dense", 5))]
        assert len(specs) == 20
        for idx, (p, layers, seed) in enumerate(specs):
            path = tmp_path / f"m{idx}.mat"
            assert main(["gen", "--p", str(p), "--layers", layers, "--seed", str(seed),
                         "-o", str(path)]) == EXIT_OK
            data = path.read_bytes()
            M = parse_matrix(data.decode())
            assert serialize_matrix(M).encode() == data
            assert read_matrix_file(path) == M

        # documented exit codes, each exercised
        a, b = tmp_path / "m0.mat", tmp_path / "m1.mat"       # p=5 pair
        prod = tmp_path / "prod.mat"
        assert main(["mul", "--algo", "det", str(a), str(b), "-o", str(prod)]) == EXIT_OK
        assert main(["gen", "--p", "9", "--layers", "0", "-o", str(tmp_path / "x.mat")]) == EXIT_USAGE
        M = read_matrix_file(prod)
        rows = [list(r) for r in M.rows]
        rows[0][0] += 1
        write_matrix_file(prod, RatMatrix(M.p, rows))
        assert main(["verify", str(prod), str(a), str(b), "--mu", "0.001",
                     "--seed", "1"]) == EXIT_NOT_EQUAL
        assert main(["analyze", str(tmp_path / "missing.mat")]) == EXIT_IO
        bad = tmp_path / "bad.mat"
        bad.write_text("skewmm-matrix v1 p=5\n1 2 3 4\n")
        assert main(["analyze", str(bad)]) == EXIT_FORMAT
        # p mismatch across otherwise-valid files
        c13 = tmp_path / "m15.mat"  # p=13 file from the roundtrip block
        assert main(["mul", "--algo", "det", str(a), str(c13),
                     "-o", str(tmp_path / "y.mat")]) == EXIT_FORMAT

        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "VW = pI verified for p in {3, 5, 7, 11, 13}" in out
