"""CLI contract: commands, reports, exit codes, reproducibility."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skewmm import (MatrixFormatError, RatMatrix, is_odd_prime, parse_matrix,
                    read_matrix_file, serialize_matrix, write_matrix_file)
from skewmm import cli
from skewmm.cli import (EXIT_CHECK_FAILED, EXIT_FORMAT, EXIT_IO, EXIT_NOT_EQUAL,
                        EXIT_OK, EXIT_USAGE, main)
from skewmm.cyclotomic import MAX_P

#: the smallest prime above the ceiling, and one far above it
ABOVE_CEILING = (next(q for q in range(MAX_P + 1, 2 * MAX_P + 2) if is_odd_prime(q)), 10007)


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def gen(workdir, name, *, p=7, layers="0", seed=1, extra=()):
    path = workdir / name
    rc = run_cli("gen", "--p", str(p), "--layers", layers, "--seed", str(seed),
                 "-o", str(path), *extra)
    assert rc == EXIT_OK
    return path


# ---------------------------------------------------------------------------
# gen / analyze
# ---------------------------------------------------------------------------

def test_gen_is_deterministic(workdir):
    a = gen(workdir, "a.mat", seed=5)
    b = gen(workdir, "b.mat", seed=5)
    assert a.read_bytes() == b.read_bytes()
    c = gen(workdir, "c.mat", seed=6)
    assert c.read_bytes() != a.read_bytes()


def test_gen_layered_analyze_roundtrip(workdir, capsys):
    path = gen(workdir, "a.mat", p=7, layers="0", seed=1)
    assert run_cli("analyze", str(path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "p: 7" in out
    assert "skew-sparsity: 1" in out
    assert "support: {0}" in out
    assert "norm[0]:" in out


def test_gen_dense_is_generically_full(workdir, capsys):
    path = gen(workdir, "a.mat", p=7, layers="dense", seed=1)
    run_cli("analyze", str(path))
    assert "skew-sparsity: 6" in capsys.readouterr().out


def test_analyze_zero_matrix(workdir, capsys):
    path = workdir / "z.mat"
    write_matrix_file(path, RatMatrix.zeros(7))
    assert run_cli("analyze", str(path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "skew-sparsity: 0" in out
    assert "support: {}" in out


def test_analyze_output_is_pinned(workdir, capsys):
    # the whole stdout, with each norm[e] computed here from the Fraction
    # coordinates of the polynomial the file encodes
    from fractions import Fraction

    from skewmm import SkewPoly, shared_ctx, skew_to_mat

    p = 7
    ctx = shared_ctx(p)
    coords = {
        1: [Fraction(3, 4), Fraction(-5, 6), 0, Fraction(1, 12), 0, Fraction(-7, 2)],
        3: [Fraction(-2, 9), 0, 0, Fraction(4, 9), 0, 0],
        4: [Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), 0, 0, Fraction(3, 2)],
    }
    M = skew_to_mat(SkewPoly(ctx, {e: ctx.elem(c) for e, c in coords.items()}))
    assert any(x.denominator > 1 for row in M.rows for x in row)
    path = workdir / "r.mat"
    write_matrix_file(path, M)
    assert run_cli("analyze", str(path)) == EXIT_OK
    want = [f"p: {p}", "skew-sparsity: 3", "support: {1, 3, 4}"]
    want += [f"norm[{e}]: {sum(abs(Fraction(x)) for x in c)}" for e, c in sorted(coords.items())]
    assert want[3:] == ["norm[1]: 31/6", "norm[3]: 2/3", "norm[4]: 3"]
    assert capsys.readouterr().out == "\n".join(want) + "\n"


def test_gen_rejects_bad_input(workdir):
    out = workdir / "x.mat"
    assert run_cli("gen", "--p", "9", "--layers", "0", "-o", str(out)) == EXIT_USAGE
    assert run_cli("gen", "--p", "7", "--layers", "8", "-o", str(out)) == EXIT_USAGE
    assert run_cli("gen", "--p", "7", "--layers", "zz", "-o", str(out)) == EXIT_USAGE
    assert run_cli("gen", "--p", "7", "--layers", "0", "--seed", "-1", "-o", str(out)) == EXIT_USAGE
    assert run_cli("gen", "--p", "7", "--layers", "0", "--coeff-range", "0",
                   "-o", str(out)) == EXIT_USAGE


@pytest.fixture
def no_context(monkeypatch):
    """Fail the test if the CLI builds a field context."""
    def refuse(p):
        raise AssertionError(f"a context was built for p={p}")
    monkeypatch.setattr(cli, "shared_ctx", refuse)


@pytest.mark.parametrize("p", ABOVE_CEILING)
def test_gen_rejects_prime_above_ceiling(workdir, no_context, capsys, p):
    out = workdir / "x.mat"
    assert run_cli("gen", "--p", str(p), "--layers", "0", "-o", str(out)) == EXIT_USAGE
    assert "ceiling" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p", ABOVE_CEILING)
def test_bench_rejects_prime_above_ceiling(workdir, no_context, p):
    # the whole list is checked before the context of its first prime is built
    out = workdir / "b.jsonl"
    assert run_cli("bench", "--p-list", f"5,{p}", "--t-list", "1",
                   "--json", str(out)) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("p", ABOVE_CEILING)
def test_header_prime_above_ceiling_is_format_error(workdir, no_context, p):
    text = f"skewmm-matrix v1 p={p}\n"
    with pytest.raises(MatrixFormatError, match="ceiling"):
        parse_matrix(text)
    path = workdir / "big.mat"
    path.write_text(text)
    assert run_cli("analyze", str(path)) == EXIT_FORMAT
    assert run_cli("mul", "--algo", "det", str(path), str(path),
                   "-o", str(workdir / "c.mat")) == EXIT_FORMAT


# ---------------------------------------------------------------------------
# mul
# ---------------------------------------------------------------------------

def test_mul_det_identity_files(workdir, capsys):
    # one term each: direct at p=61
    ident = workdir / "i.mat"
    write_matrix_file(ident, RatMatrix.identity(61))
    out = workdir / "c.mat"
    rc = run_cli("mul", "--algo", "det", str(ident), str(ident), "-o", str(out))
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().err)
    assert report["algorithm"] == "det"
    assert report["t_used"] == 1
    assert read_matrix_file(out) == RatMatrix.identity(61)


def test_mul_all_algorithms_agree(workdir, capsys):
    a = gen(workdir, "a.mat", layers="0,2", seed=3)
    b = gen(workdir, "b.mat", layers="dense", seed=4)
    outputs = {}
    for algo, extra in (("naive", ()), ("det", ()), ("mc", ("--nu", "0.01", "--seed", "7"))):
        out = workdir / f"c_{algo}.mat"
        rc = run_cli("mul", "--algo", algo, str(a), str(b), "-o", str(out), *extra)
        assert rc == EXIT_OK
        outputs[algo] = out.read_bytes()
    assert outputs["naive"] == outputs["det"] == outputs["mc"]
    capsys.readouterr()


def test_mul_check_flag(workdir, capsys):
    a = gen(workdir, "a.mat", layers="1", seed=9)
    b = gen(workdir, "b.mat", layers="0,1", seed=10)
    out = workdir / "c.mat"
    rc = run_cli("mul", "--algo", "det", str(a), str(b), "-o", str(out), "--check")
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().err)["correct"] is True


def test_mul_check_failure_exits_4(workdir, monkeypatch, capsys):
    # force the oracle to disagree so the det --check guard path is exercised
    from skewmm import matmul as matmul_mod

    a = gen(workdir, "a.mat", layers="1", seed=9)
    b = gen(workdir, "b.mat", layers="0,1", seed=10)
    monkeypatch.setattr(matmul_mod, "naive_mul",
                        lambda A, B: RatMatrix.zeros(A.p))
    rc = run_cli("mul", "--algo", "det", str(a), str(b),
                 "-o", str(workdir / "c.mat"), "--check")
    assert rc == EXIT_CHECK_FAILED
    capsys.readouterr()


@pytest.mark.parametrize("algo", ["naive", "det"])
def test_check_runs_the_oracle_once(workdir, monkeypatch, capsys, algo):
    # naive's product is the oracle's answer, so --check must not recompute it
    from skewmm import matmul as matmul_mod

    calls = []
    real = matmul_mod.naive_mul

    def counting(*args, **kwargs):
        calls.append(algo)
        return real(*args, **kwargs)

    monkeypatch.setattr(matmul_mod, "naive_mul", counting)
    a = gen(workdir, "a.mat", layers="1", seed=9)
    b = gen(workdir, "b.mat", layers="0,1", seed=10)
    rc = run_cli("mul", "--algo", algo, str(a), str(b), "-o", str(workdir / "c.mat"), "--check")
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().err)["correct"] is True
    assert len(calls) == 1
    calls.clear()
    rc = run_cli("bench", "--p-list", "7", "--t-list", "2", "--algos", algo, "--check",
                 "--json", str(workdir / "bench.jsonl"))
    assert rc == EXIT_OK
    assert json.loads((workdir / "bench.jsonl").read_text())["correct"] is True
    assert len(calls) == 1


def test_mul_flag_validation(workdir):
    a = gen(workdir, "a.mat")
    b = gen(workdir, "b.mat", seed=2)
    out = workdir / "c.mat"
    # mc needs --nu; det must not get mc-only flags
    assert run_cli("mul", "--algo", "mc", str(a), str(b), "-o", str(out)) == EXIT_USAGE
    assert run_cli("mul", "--algo", "mc", "--nu", "2", str(a), str(b), "-o", str(out)) == EXIT_USAGE
    assert run_cli("mul", "--algo", "det", "--nu", "0.5", str(a), str(b), "-o", str(out)) == EXIT_USAGE
    assert run_cli("mul", "--algo", "bogus", str(a), str(b), "-o", str(out)) == EXIT_USAGE


def test_mul_p_mismatch_is_format_error(workdir):
    a = gen(workdir, "a.mat", p=7)
    b = gen(workdir, "b.mat", p=5)
    assert run_cli("mul", "--algo", "det", str(a), str(b),
                   "-o", str(workdir / "c.mat")) == EXIT_FORMAT


def test_missing_file_is_io_error(workdir):
    a = gen(workdir, "a.mat")
    assert run_cli("mul", "--algo", "det", str(a), str(workdir / "nope.mat"),
                   "-o", str(workdir / "c.mat")) == EXIT_IO


def test_corrupt_file_is_format_error(workdir):
    bad = workdir / "bad.mat"
    bad.write_text("skewmm-matrix v1 p=7\nnot a matrix\n")
    a = gen(workdir, "a.mat")
    assert run_cli("mul", "--algo", "det", str(a), str(bad),
                   "-o", str(workdir / "c.mat")) == EXIT_FORMAT


def long_entry_file(path, digits):
    """A p=3 file whose first entry has the given number of digits."""
    path.write_text(f"skewmm-matrix v1 p=3\n{'7' * digits} 1\n0 -1\n")
    return path


#: the most digits CPython converts between int and str (4300 by default;
#: 0 = no limit, as before Python 3.10.7)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(DIGIT_LIMIT == 0, reason="int/str conversion unlimited")


@needs_digit_limit
def test_entry_above_the_digit_limit_is_format_error(workdir, capsys):
    big = long_entry_file(workdir / "big.mat", DIGIT_LIMIT + 1)
    out = workdir / "c.mat"
    assert run_cli("mul", "--algo", "naive", str(big), str(big), "-o", str(out)) == EXIT_FORMAT
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


@needs_digit_limit
def test_product_above_the_digit_limit_leaves_no_file(workdir, capsys):
    # each input entry is within the limit; the product's entry 7...7^2 has
    # twice as many digits, which is past it
    a = long_entry_file(workdir / "a.mat", DIGIT_LIMIT // 2 + 1)
    out = workdir / "c.mat"
    assert run_cli("mul", "--algo", "naive", str(a), str(a), "-o", str(out)) == EXIT_FORMAT
    assert "more than" in capsys.readouterr().err
    assert not out.exists()


@needs_digit_limit
def test_analyze_norm_above_the_digit_limit_is_format_error(workdir, capsys):
    # each entry parses, but a coefficient of the pullback lies over the
    # product of the two coprime denominators 10^k and 10^k + 1, whose
    # digits add up past the limit; nothing of the report is printed
    k = DIGIT_LIMIT // 2 + 100
    path = workdir / "big.mat"
    path.write_text(f"skewmm-matrix v1 p=3\n1/{10 ** k} 1/{10 ** k + 1}\n0 1\n")
    assert run_cli("analyze", str(path)) == EXIT_FORMAT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than" in captured.err


#: two malformed files that once escaped as tracebacks with exit 1: bytes
#: that are not UTF-8 (a UTF-16 byte-order mark), and a header prime with
#: more digits than CPython converts to int
MALFORMED = {
    "not-utf8": b"\xff\xfeskewmm-matrix v1 p=7\n",
    "header-prime-past-the-digit-limit":
        f"skewmm-matrix v1 p={'7' * ((DIGIT_LIMIT or 4300) + 1)}\n".encode(),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_exits_6_with_no_output(workdir, capsys, case):
    bad = workdir / "bad.mat"
    bad.write_bytes(MALFORMED[case])
    a = gen(workdir, "a.mat")
    out = workdir / "c.mat"
    capsys.readouterr()
    for argv in (["analyze", bad],
                 ["mul", "--algo", "det", bad, a, "-o", out],
                 ["mul", "--algo", "naive", a, bad, "-o", out],
                 ["verify", bad, a, a, "--mu", "1/2"]):
        assert run_cli(*map(str, argv)) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("format error: ")
    assert not out.exists()
    # the same through the console entry point, in a fresh process
    proc = subprocess.run([sys.executable, "-m", "skewmm.cli", "analyze", str(bad)],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout) == (EXIT_FORMAT, "")
    assert "Traceback" not in proc.stderr


def test_mul_reports_det_product_stage_and_bench_omits_it(workdir, capsys):
    for p, layers_a, layers_b, stage in (
            # one term each, at the ceiling p=61
            (61, "0", "2", "direct"),
            # 12 random layers each at p=61: the sumset (t = 56) nearly fills Z_60
            (61, "3,4,6,9,20,23,25,34,37,41,52,55", "2,4,5,13,15,26,27,32,35,54,55,58",
             "rows"),
            # one term times layers 0..2 and 0..3 at p=61: the last direct
            # and the first rows cell of bench's pairs on packed slots
            (61, "0", "0,1,2", "direct"),
            (61, "0", "0,1,2,3", "rows"),
            (13, "dense", "dense", "rows")):
        a = gen(workdir, "a.mat", p=p, layers=layers_a, seed=1)
        b = gen(workdir, "b.mat", p=p, layers=layers_b, seed=2)
        c, d = workdir / "c.mat", workdir / "d.mat"
        assert run_cli("mul", "--algo", "det", str(a), str(b), "-o", str(c)) == EXIT_OK
        report = json.loads(capsys.readouterr().err)
        assert report["product"] == stage
        assert run_cli("mul", "--algo", "naive", str(a), str(b), "-o", str(d)) == EXIT_OK
        assert "product" not in json.loads(capsys.readouterr().err)
        assert c.read_bytes() == d.read_bytes()
    out = workdir / "bench.jsonl"
    assert run_cli("bench", "--p-list", "31", "--t-list", "3", "--json", str(out)) == EXIT_OK
    assert "product" not in json.loads(out.read_text())


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_true_product(workdir, capsys):
    a = gen(workdir, "a.mat", layers="dense", seed=11)
    b = gen(workdir, "b.mat", layers="dense", seed=12)
    c = workdir / "c.mat"
    run_cli("mul", "--algo", "naive", str(a), str(b), "-o", str(c))
    capsys.readouterr()
    rc = run_cli("verify", str(c), str(a), str(b), "--mu", "0.01", "--seed", "3")
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "rounds: 7" in out
    assert "equal" in out


def test_verify_detects_corruption(workdir, capsys):
    a = gen(workdir, "a.mat", layers="dense", seed=11)
    b = gen(workdir, "b.mat", layers="dense", seed=12)
    c = workdir / "c.mat"
    run_cli("mul", "--algo", "naive", str(a), str(b), "-o", str(c))
    M = read_matrix_file(c)
    rows = [list(r) for r in M.rows]
    rows[0][0] += 1
    write_matrix_file(c, RatMatrix(M.p, rows))
    rc = run_cli("verify", str(c), str(a), str(b), "--mu", "0.001", "--seed", "3")
    assert rc == EXIT_NOT_EQUAL
    assert "not equal" in capsys.readouterr().out


def test_verify_validation(workdir):
    a = gen(workdir, "a.mat")
    assert run_cli("verify", str(a), str(a), str(a), "--mu", "1") == EXIT_USAGE


#: the smallest error budget --mu and --nu accept, and a value just below it
AT_FLOOR = f"1/{2 ** 128}"
BELOW_FLOOR = f"1/{2 ** 128 + 1}"


@pytest.fixture
def no_product(monkeypatch):
    """Fail the test if the CLI runs a product or a verification."""
    def refuse(*args):
        raise AssertionError("a product or a verification ran")
    for name in ("naive_mul", "det_mul", "mc_mul", "freivalds"):
        monkeypatch.setattr(cli.matmul, name, refuse)


def test_error_budget_below_the_floor_is_a_usage_error(workdir, no_product, capsys):
    a = gen(workdir, "a.mat")
    out, records = workdir / "c.mat", workdir / "b.jsonl"
    capsys.readouterr()
    for argv in (("verify", str(a), str(a), str(a), "--mu", BELOW_FLOOR),
                 ("mul", "--algo", "mc", "--nu", BELOW_FLOOR, str(a), str(a), "-o", str(out)),
                 ("bench", "--p-list", "7", "--t-list", "1", "--algos", "mc",
                  "--nu", BELOW_FLOOR, "--json", str(records))):
        assert run_cli(*argv) == EXIT_USAGE
        assert "at least 2^-128" in capsys.readouterr().err
    assert not out.exists() and not records.exists()


def test_error_budget_at_the_floor_is_accepted(workdir, capsys):
    a = gen(workdir, "a.mat", layers="dense", seed=11)
    b = gen(workdir, "b.mat", layers="dense", seed=12)
    c, d = workdir / "c.mat", workdir / "d.mat"
    assert run_cli("mul", "--algo", "naive", str(a), str(b), "-o", str(c)) == EXIT_OK
    assert run_cli("mul", "--algo", "mc", "--nu", AT_FLOOR, "--seed", "7",
                   str(a), str(b), "-o", str(d)) == EXIT_OK
    assert d.read_bytes() == c.read_bytes()
    capsys.readouterr()
    assert run_cli("verify", str(c), str(a), str(b), "--mu", AT_FLOOR) == EXIT_OK
    assert capsys.readouterr().out == "rounds: 128\nequal\n"
    assert run_cli("bench", "--p-list", "7", "--t-list", "1", "--algos", "mc",
                   "--nu", AT_FLOOR, "--json", str(workdir / "b.jsonl")) == EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_records(workdir):
    out = workdir / "bench.jsonl"
    rc = run_cli("bench", "--p-list", "13", "--t-list", "1,2", "--algos", "naive,det,mc",
                 "--seeds", "1..2", "--check", "--json", str(out))
    assert rc == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2 * 3 * 2
    for rec in records:
        assert rec["p"] == 13
        assert rec["correct"] is True
        assert rec["I"] == [0]
    # at p=13 det takes the rows stage on every pair, naive's int product,
    # and reports naive's count for it
    det = {(rec["t_used"], rec["rational_mul_count"])
           for rec in records if rec["algorithm"] == "det"}
    assert det == {(12, 1728)}
    naive_counts = {rec["rational_mul_count"] for rec in records if rec["algorithm"] == "naive"}
    assert naive_counts == {1728}   # t-independent baseline


def test_mul_and_bench_report_final_T_fallback_and_backend(workdir, capsys):
    # both commands build their JSON through one helper, so bench carries
    # what mul reports, and both name the scalar type in use
    from skewmm.rational import Rat

    backend = type(Rat(0)).__name__
    a = gen(workdir, "a.mat", layers="0", seed=1)
    b = gen(workdir, "b.mat", layers="0,1,2", seed=2)
    assert run_cli("mul", "--algo", "mc", "--nu", "1/20", str(a), str(b),
                   "-o", str(workdir / "c.mat")) == EXIT_OK
    report = json.loads(capsys.readouterr().err)
    # the product's three terms pass the scan's bound (p-2)//2 = 2 at p=7:
    # length 3, and the product assembled from all six rows, checked once
    assert (report["final_T"], report["fallback"], report["backend"]) == (3, False, backend)
    assert (report["t_used"], report["iterations"]) == (6, 1)
    out = workdir / "bench.jsonl"
    assert run_cli("bench", "--p-list", "7", "--t-list", "1,4", "--algos", "naive,det,mc",
                   "--json", str(out)) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {rec["backend"] for rec in records} == {backend}
    assert not any(rec["fallback"] for rec in records)
    assert [(rec["algorithm"], rec["final_T"]) for rec in records] == [
        ("naive", 0), ("det", 0), ("mc", 1), ("naive", 0), ("det", 0), ("mc", 3)]


def test_bench_deterministic_counts(workdir):
    out1, out2 = workdir / "b1.jsonl", workdir / "b2.jsonl"
    for out in (out1, out2):
        assert run_cli("bench", "--p-list", "5", "--t-list", "1,2", "--algos", "det,mc",
                       "--seeds", "1,2,3", "--json", str(out)) == EXIT_OK
    strip = lambda rec: {k: v for k, v in rec.items() if k != "wall_time_ms"}
    r1 = [strip(json.loads(line)) for line in out1.read_text().splitlines()]
    r2 = [strip(json.loads(line)) for line in out2.read_text().splitlines()]
    assert r1 == r2


def test_bench_validation(workdir):
    out = str(workdir / "b.jsonl")
    assert run_cli("bench", "--p-list", "7", "--t-list", "9", "--json", out) == EXIT_USAGE
    assert run_cli("bench", "--p-list", "8", "--t-list", "1", "--json", out) == EXIT_USAGE
    assert run_cli("bench", "--p-list", "7", "--t-list", "1", "--algos", "fast",
                   "--json", out) == EXIT_USAGE
    assert run_cli("bench", "--p-list", "7", "--t-list", "1", "--seeds", "5..1",
                   "--json", out) == EXIT_USAGE


@pytest.mark.parametrize("seeds", ["0..18446744073709551616", "-1..3", "18446744073709551616",
                                   "1,-2"])
def test_bench_seed_out_of_range_is_a_usage_error(workdir, seeds, capsys):
    out = workdir / "b.jsonl"
    assert run_cli("bench", "--p-list", "3", "--t-list", "1", "--algos", "det",
                   f"--seeds={seeds}", "--json", str(out)) == EXIT_USAGE
    assert "--seeds must be a 64-bit unsigned integer" in capsys.readouterr().err


def test_bench_seed_range_is_lazy_up_to_the_last_seed(workdir):
    # the widest range is accepted without being built
    seeds = cli._parse_seed_list("0..18446744073709551615")
    assert (seeds[0], seeds[-1]) == (0, 2 ** 64 - 1)
    out = workdir / "b.jsonl"
    assert run_cli("bench", "--p-list", "3", "--t-list", "1", "--algos", "det",
                   "--seeds", "18446744073709551614..18446744073709551615",
                   "--check", "--json", str(out)) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["seed"] for rec in records] == [2 ** 64 - 2, 2 ** 64 - 1]
    assert all(rec["correct"] for rec in records)


def test_bench_runs_one_untimed_product_first(workdir, monkeypatch):
    # the warm-up is det on the first cell's pair, unrecorded: every record
    # is the one a run with no warm-up writes, apart from wall_time_ms
    cells = []
    real = cli._bench_cell

    def recording(*args):
        cells.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_bench_cell", recording)
    out = workdir / "b.jsonl"
    assert run_cli("bench", "--p-list", "5,7", "--t-list", "1", "--algos", "naive,det",
                   "--seeds", "3", "--check", "--json", str(out)) == EXIT_OK
    assert cells[0] == (5, 1, "det", 3, cells[0][4], False)
    assert cells[1:] == [(p, 1, algo, 3, cells[0][4], True)
                         for p in (5, 7) for algo in ("naive", "det")]
    untimed = lambda rec: {**rec, "wall_time_ms": 0}
    records = [untimed(json.loads(line)) for line in out.read_text().splitlines()]
    assert records == [untimed(json.loads(json.dumps(real(*args)))) for args in cells[1:]]


def test_bench_jsonl_matches_the_committed_records(workdir, capsys):
    # bench --p-list 5,7 --t-list 1,2 --algos naive,det,mc --seeds 1..2 --check,
    # saved with wall_time_ms set to 0: every other byte must stay the same,
    # on stdout and in the --json file alike
    from skewmm.rational import Rat

    golden = (Path(__file__).parent / "data" / "bench_p5_p7.jsonl").read_text()
    golden = golden.replace('"backend": "Fraction"', f'"backend": "{type(Rat(0)).__name__}"')
    argv = ("bench", "--p-list", "5,7", "--t-list", "1,2", "--algos", "naive,det,mc",
            "--seeds", "1..2", "--check")
    out = workdir / "b.jsonl"
    assert run_cli(*argv, "--json", str(out)) == EXIT_OK
    assert run_cli(*argv) == EXIT_OK
    untimed = lambda text: re.sub(r'"wall_time_ms": [^,]+', '"wall_time_ms": 0', text)
    assert untimed(out.read_text()) == golden
    assert untimed(capsys.readouterr().out) == golden


# ---------------------------------------------------------------------------
# selftest and entry points
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    rc = run_cli("selftest")
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "VW = pI verified for p in {3, 5, 7, 11, 13}" in out
    assert "phi orientation: reversed" in out
    assert "layer-0 conjugation side: A^-1 (P - Q) A" in out
    assert "selftest: all properties hold" in out
    assert "routes taken: det direct, det rows, mc candidate, mc assembled" in out


#: the modules whose private names selftest must not read
PRIVATE_TO = ("matmul", "skewpoly", "transform", "multiply", "cyclotomic")


def test_selftest_reads_the_public_api_only():
    # selftest checks an install as a user sees it: no private name imported
    # from another skewmm module, no RationalProduct (the row kernel's
    # class), and no private attribute read off a package module, however
    # it was imported
    from skewmm import selftest

    tree = ast.parse(Path(selftest.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = set(PRIVATE_TO) | {f"skewmm.{name}" for name in PRIVATE_TO}
    found = []
    for node in imports:
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names if alias.asname
                           and alias.name.split(".")[-1] in PRIVATE_TO)
        elif node.level or node.module.startswith("skewmm"):
            for alias in node.names:
                if alias.name in PRIVATE_TO:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") or alias.name == "RationalProduct":
                    found.append(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "RationalProduct":
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and (
                node.attr == "RationalProduct"
                or node.attr.startswith("_") and ast.unparse(node.value) in modules):
            found.append(ast.unparse(node))
    assert found == []


def test_usage_error_exit_code():
    assert run_cli("no-such-command") == EXIT_USAGE
    assert run_cli() == EXIT_USAGE


def child_env():
    """The environment for a child process that imports the same skewmm as
    this process, installed or not."""
    import skewmm

    src = os.path.dirname(os.path.dirname(skewmm.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point(workdir):
    out = workdir / "a.mat"
    proc = subprocess.run(
        [sys.executable, "-m", "skewmm.cli", "gen", "--p", "5", "--layers", "0,1",
         "--seed", "2", "-o", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    M = read_matrix_file(out)
    assert M.p == 5
    assert serialize_matrix(M).encode() == out.read_bytes()


#: every name `skewmm` exports; the twelve from `skewmm.skewstructure` are
#: imported on first access
EXPORTED = (
    "Algorithm", "CycCtx", "CycElem", "FreivaldsResult", "InterpolationError",
    "MatrixFormatError", "MulReport", "Orientation", "RatMatrix", "SkewPoly", "SupportSet",
    "antidiag_perm", "build_AB_perm", "build_P", "build_Q",
    "build_V", "build_W", "build_X", "build_Y", "cubic_multiply", "cyc_add", "cyc_mul",
    "cyc_neg", "cyc_scale", "cyc_sigma", "det_mul",
    "find_primitive_root", "freivalds", "from_normal_coords", "interpolate_known_support",
    "is_odd_prime", "l0_characterization_check", "layer_basis_elem", "mat_to_skew", "mc_mul",
    "naive_mul", "normal_coords", "parse_matrix", "phi_orientation",
    "power_of_v1", "power_points", "random_layered", "read_matrix_file", "rounds_for",
    "serialize_matrix", "shared_ctx", "shift_rows_up", "skew_sparsity", "skew_to_mat",
    "sp_add", "sp_evaluate", "sp_mul", "sp_neg", "sparse_interpolate", "sumset",
    "write_matrix_file", "y_power_row")

#: modules that a mul, verify or analyze process does not use
OFF_THE_CLI_PATH = ("dataclasses", "inspect", "skewmm.selftest", "skewmm.skewstructure")

_FOOTPRINT_SCRIPT = f"""
import json, sys
import skewmm.cli
loaded = sorted(set({OFF_THE_CLI_PATH!r}) & set(sys.modules))
from skewmm import random_layered, skew_sparsity
import skewmm
missing = [name for name in {EXPORTED!r} if not hasattr(skewmm, name)]
try:
    skewmm.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({{"loaded": loaded, "missing": missing, "unknown": unknown}}))
"""


def test_cli_import_footprint():
    # -S: a site hook that imports one of these modules would hide a
    # regression; the check counts modules, so it needs no timing
    proc = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT_SCRIPT],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["loaded"] == []
    assert found["missing"] == []
    assert found["unknown"] == "module 'skewmm' has no attribute 'no_such_name'"


def test_bench_in_a_fresh_process_matches_the_committed_records():
    # in-process tests run after pytest has imported every module, so only a
    # child process exercises the imports that cli defers to its commands
    proc = subprocess.run(
        [sys.executable, "-m", "skewmm.cli", "bench", "--p-list", "5", "--t-list", "1,2",
         "--algos", "naive,det,mc", "--seeds", "1", "--check"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    golden = [line for line in
              (Path(__file__).parent / "data" / "bench_p5_p7.jsonl").read_text().splitlines()
              if json.loads(line)["p"] == 5 and json.loads(line)["seed"] == 1]
    assert len(golden) == 6
    untimed = lambda text: re.sub(r'"wall_time_ms": [^,]+', '"wall_time_ms": 0', text)
    assert untimed(proc.stdout).splitlines() == golden
