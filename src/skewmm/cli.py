"""Command-line front end: generate, multiply, analyze, verify, bench, selftest.

Exit codes are a stable contract:
  0  success (and "equal" for verify)
  2  usage error (bad flags, bad prime, bad layer list)
  3  verification answered "not equal"
  4  a property check failed (selftest, or --check on the deterministic path)
  5  I/O failure
  6  file-content error (malformed matrix file, inputs whose primes differ,
     or a number past sys.get_int_max_str_digits() digits in an input, in
     the product to be written or in analyze's report)

Randomized commands are reproducible from their flags plus --seed; every
matrix file written is canonical, so identical invocations produce
byte-identical files.

Modules that one command alone needs are imported inside that command:
selftest by cmd_selftest, skewstructure (the seeded generator) by
cmd_gen and the bench cells, and json by cmd_mul and cmd_bench, the two
commands that print JSON.  So a verify or analyze process, which start-up
dominates at the primes the CLI accepts, loads none of them, and a mul
process json alone (README, "CLI start-up").
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from fractions import Fraction

from . import matmul
from .cyclotomic import MAX_P, shared_ctx
from .matrixfile import MatrixFormatError, read_matrix_file, write_matrix_file
from .rational import Rat
from .transform import mat_to_skew

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_EQUAL = 3
EXIT_CHECK_FAILED = 4
EXIT_IO = 5
EXIT_FORMAT = 6


class UsageError(Exception):
    pass


#: Smallest error probability --mu and --nu accept.  Freivalds runs
#: ceil(log2(1/mu)) rounds, so without a floor the run time grows with the
#: digits of the value's denominator; at 2^-128 it is 128 rounds for verify
#: (README, "Error budgets").
MIN_PROBABILITY = Fraction(1, 2 ** 128)


def _parse_probability(text, name):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--{name} must be a rational in [2^-128, 1), got {text!r}") from exc
    if not 0 < value < 1:
        raise UsageError(f"--{name} must lie strictly between 0 and 1, got {text}")
    if value < MIN_PROBABILITY:
        raise UsageError(f"--{name} must be at least 2^-128, got {text}")
    return value


def _parse_seed(value, flag="--seed"):
    if not 0 <= value < matmul.MAX_SEED:
        raise UsageError(f"{flag} must be a 64-bit unsigned integer, got {value}")
    return value


def _parse_layers(text, p):
    if text == "dense":
        return sorted(range(p - 1))
    try:
        layers = sorted({int(tok) for tok in text.split(",")})
    except ValueError as exc:
        raise UsageError(f"--layers must be 'dense' or comma-separated integers, got {text!r}") from exc
    if not layers or any(not 0 <= e <= p - 2 for e in layers):
        raise UsageError(f"layer indices must lie in 0..{p - 2}")
    return layers


def _parse_int_list(text, name):
    try:
        values = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--{name} must be comma-separated integers, got {text!r}") from exc
    if not values:
        raise UsageError(f"--{name} must not be empty")
    return values


def _parse_seed_list(text):
    """Either "1,2,3" or an inclusive range "1..5" of 64-bit unsigned seeds.

    A range is checked at both ends and returned as a `range`, so it is
    iterated lazily however wide it is.
    """
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"--seeds range must be <int>..<int>, got {text!r}") from exc
        lo, hi = _parse_seed(lo, "--seeds"), _parse_seed(hi, "--seeds")
        if hi < lo:
            raise UsageError("--seeds range is empty")
        return range(lo, hi + 1)
    return [_parse_seed(s, "--seeds") for s in _parse_int_list(text, "seeds")]


def _load_pair(path_a, path_b):
    A = read_matrix_file(path_a)
    B = read_matrix_file(path_b)
    if A.p != B.p:
        raise MatrixFormatError(f"matrix primes differ: {path_a} has p={A.p}, {path_b} has p={B.p}")
    return A, B


def _check_prime_ceiling(p, flag):
    """Refuse p above MAX_P before anything is built for it."""
    if p > MAX_P:
        raise UsageError(f"{flag} {p} is above the supported ceiling {MAX_P}")


def _shared_ctx_checked(p):
    try:
        return shared_ctx(p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


#: name of the scalar type every rational runs on, reported as `backend`
_BACKEND = type(Rat(0)).__name__


def _report_json(report, extra=None):
    payload = {
        "algorithm": report.algorithm.value,
        "t_used": report.t_used,
        "iterations": report.iterations,
        "rational_mul_count": report.rational_mul_count,
        "wall_time_ms": report.wall_time * 1000.0,
        "final_T": report.final_T,
        "fallback": report.fallback,
        "backend": _BACKEND,
    }
    if extra:
        payload.update(extra)
    return payload


def _multiply(algo, A, B, nu, seed):
    """Multiply A by B with one algorithm; returns (product, MulReport)."""
    if algo == "naive":
        start = time.perf_counter()
        product = matmul.naive_mul(A, B)
        return product, matmul.MulReport(matmul.Algorithm.NAIVE,
                                         rational_mul_count=(A.p - 1) ** 3,
                                         wall_time=time.perf_counter() - start)
    if algo == "det":
        return matmul.det_mul(A, B)
    return matmul.mc_mul(A, B, nu, seed)


# --- commands ---------------------------------------------------------------

def cmd_gen(args):
    from .skewstructure import random_layered

    _check_prime_ceiling(args.p, "--p")
    ctx = _shared_ctx_checked(args.p)
    layers = _parse_layers(args.layers, args.p)
    seed = _parse_seed(args.seed)
    if args.coeff_range < 1:
        raise UsageError("--coeff-range must be at least 1")
    M = random_layered(ctx, layers, seed, coeff_bound=args.coeff_range)
    write_matrix_file(args.output, M)
    return EXIT_OK


def cmd_mul(args):
    import json

    A, B = _load_pair(args.a, args.b)
    if args.algo != "mc" and (args.nu is not None or args.seed is not None):
        raise UsageError("--nu and --seed apply only to --algo mc")
    extra = {"p": A.p}
    nu = seed = None
    if args.algo == "mc":
        if args.nu is None:
            raise UsageError("--algo mc requires --nu")
        nu = _parse_probability(args.nu, "nu")
        seed = _parse_seed(args.seed if args.seed is not None else 0)
        extra["nu"] = str(nu)
        extra["seed"] = seed
    product, report = _multiply(args.algo, A, B, nu, seed)
    if args.check:
        # naive's product is the oracle's answer; do not compute it twice
        correct = args.algo == "naive" or product == matmul.naive_mul(A, B)
        extra["correct"] = correct
        if not correct and args.algo != "mc":
            print("check failed: product differs from the schoolbook oracle", file=sys.stderr)
            return EXIT_CHECK_FAILED
    if report.product:  # det's stage; mul's report only, bench records omit it
        extra["product"] = report.product
    write_matrix_file(args.output, product)
    print(json.dumps(_report_json(report, extra)), file=sys.stderr)
    return EXIT_OK


def cmd_analyze(args):
    M = read_matrix_file(args.matrix)
    f = mat_to_skew(M)
    # the whole report is built before any of it is printed, so a norm past
    # CPython's int/str digit limit leaves stdout empty
    try:
        lines = [f"p: {M.p}", f"skew-sparsity: {f.sparsity}", f"support: {f.support()!r}",
                 *(f"norm[{e}]: {Rat(sum(map(abs, coeff.num)), coeff.den)}"
                   for e, coeff in f.sorted_terms())]
    except ValueError as exc:
        raise MatrixFormatError(f"{args.matrix}: a norm has more than "
                                f"{sys.get_int_max_str_digits()} digits") from exc
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify(args):
    M = read_matrix_file(args.m)
    A, B = _load_pair(args.a, args.b)
    if M.p != A.p:
        raise MatrixFormatError(f"matrix primes differ: {args.m} has p={M.p}, {args.a} has p={A.p}")
    mu = _parse_probability(args.mu, "mu")
    seed = _parse_seed(args.seed)
    k = matmul.rounds_for(mu)
    print(f"rounds: {k}")
    result = matmul._freivalds_on_ints(M, A, B, mu, seed)
    print(result.value)
    return EXIT_OK if result is matmul.FreivaldsResult.EQUAL else EXIT_NOT_EQUAL


def _bench_cell(p, t, algo, seed, nu, check):
    from .skewstructure import random_layered

    ctx = shared_ctx(p)
    # fold (seed, p, t) into one master seed so cells never share streams
    master = random.Random((seed * 2 ** 32 + p * 1024 + t * 8) % matmul.MAX_SEED)
    layers_i = [0]
    layers_k = list(range(t))
    A = random_layered(ctx, layers_i, master.getrandbits(64))
    B = random_layered(ctx, layers_k, master.getrandbits(64))
    # the mc seed is the last draw from the cell's stream, so drawing it for
    # every algorithm leaves A and B unchanged
    product, report = _multiply(algo, A, B, nu, master.getrandbits(64))
    correct = (algo == "naive" or product == matmul.naive_mul(A, B)) if check else None
    return _report_json(report, {"p": p, "I": layers_i, "K": layers_k,
                                 "seed": seed, "correct": correct})


def cmd_bench(args):
    import json

    p_list = _parse_int_list(args.p_list, "p-list")
    t_list = _parse_int_list(args.t_list, "t-list")
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in ("naive", "det", "mc"):
            raise UsageError(f"unknown algorithm {algo!r} in --algos")
    seeds = _parse_seed_list(args.seeds)
    nu = _parse_probability(args.nu, "nu")
    for p in p_list:
        _check_prime_ceiling(p, "--p-list entry")
    for p in p_list:
        _shared_ctx_checked(p)
        if any(not 1 <= t <= p - 1 for t in t_list):
            raise UsageError(f"every t must lie in 1..{p - 1} for p={p}")

    # one untimed product first, so that the first timed one does not pay
    # the process's cold start (lazily built tables, first-call caches).
    # It is det's, whatever the algorithms: its path reaches most of the
    # others' kernels, and it leaves naive_mul to run once per record.
    # Every cell's inputs come from its own seed, so no record changes
    _bench_cell(p_list[0], t_list[0], "det", seeds[0], nu, False)
    # each record is written as soon as it is made, and the seed range is
    # walked lazily (itertools.product would build it as a tuple), so memory
    # stays flat however many cells the grid holds
    out = open(args.json, "w", encoding="utf-8") if args.json else sys.stdout
    try:
        for p in p_list:
            for t in t_list:
                for algo in algos:
                    for seed in seeds:
                        record = _bench_cell(p, t, algo, seed, nu, args.check)
                        out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_selftest(_args):
    from . import selftest

    ok, failed = selftest.run_selftest(stream=sys.stdout)
    if ok:
        print("selftest: all properties hold")
        return EXIT_OK
    print(f"selftest: FAILED at property: {failed}")
    return EXIT_CHECK_FAILED


# --- parser / dispatch ------------------------------------------------------

_CEILING_NOTE = ("; gen and mul with each of det, naive and mc on dense matrices at "
                 "that p fit a 60 s budget (see the README)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewmm",
        description="Exact (p-1)x(p-1) rational matrix multiplication "
                    "accelerated by skew-sparsity.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random layered matrix file")
    gen.add_argument("--p", type=int, required=True,
                     help=f"odd prime dimension parameter, at most {MAX_P}{_CEILING_NOTE}")
    gen.add_argument("--layers", default="dense",
                     help="comma-separated layer indices in 0..p-2, or 'dense'")
    gen.add_argument("--seed", type=int, default=0, help="64-bit unsigned seed")
    gen.add_argument("--coeff-range", type=int, default=9,
                     help="coefficient coordinates are drawn from [-range, range]")
    gen.add_argument("-o", "--output", required=True, help="output matrix file")
    gen.set_defaults(handler=cmd_gen)

    mul = sub.add_parser("mul", help="multiply two matrix files")
    mul.add_argument("--algo", choices=("naive", "det", "mc"), required=True)
    mul.add_argument("a", help="left operand file")
    mul.add_argument("b", help="right operand file")
    mul.add_argument("--nu", help="error probability for mc, in [2^-128, 1)")
    mul.add_argument("--seed", type=int, help="seed for mc")
    mul.add_argument("--check", action="store_true",
                     help="also run the schoolbook oracle and compare")
    mul.add_argument("-o", "--output", required=True, help="output matrix file")
    mul.set_defaults(handler=cmd_mul)

    analyze = sub.add_parser("analyze", help="report skew-sparsity of a matrix file")
    analyze.add_argument("matrix")
    analyze.set_defaults(handler=cmd_analyze)

    verify = sub.add_parser("verify", help="randomized check that M = A*B")
    verify.add_argument("m", help="claimed product file")
    verify.add_argument("a")
    verify.add_argument("b")
    verify.add_argument("--mu", required=True, help="error probability in [2^-128, 1)")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=cmd_verify)

    bench = sub.add_parser("bench", help="seeded scaling benchmark, JSONL records")
    bench.add_argument("--p-list", required=True,
                       help=f"comma-separated primes, each at most {MAX_P}{_CEILING_NOTE}")
    bench.add_argument("--t-list", required=True,
                       help="target sumset sizes (layer sets are {0} and {0..t-1})")
    bench.add_argument("--algos", default="det", help="subset of naive,det,mc")
    bench.add_argument("--seeds", default="1", help="'1,2,3' or '1..5'")
    bench.add_argument("--nu", default="1/20", help="error probability for mc cells, in [2^-128, 1)")
    bench.add_argument("--check", action="store_true", help="record agreement with naive")
    bench.add_argument("--json", help="write records to this file instead of stdout")
    bench.set_defaults(handler=cmd_bench)

    st = sub.add_parser("selftest", help="run the built-in invariant suite")
    st.set_defaults(handler=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MatrixFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
