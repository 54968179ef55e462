"""The four benchmark workloads and their oracle checks.

Each workload is a closed loop with one client: a cycle runs one product
per sparsity in the workload's list, and the next product starts only when
the previous one, with its checks, has finished. Inputs come from the seed
alone, through the same (seed, p, t) fold as `skewmm bench`, so a cycle's
pairs are the ones `skewmm bench --seeds <seed * POOL_CYCLES + cycle>` uses.

  det-sparse    det at p=31, t in {1,2,4}: the pullback dominates det_mul.
  det-wide      det at p=31, t in {8,12,16}: known-support interpolation
                (dense solve over Q(beta), many cyc_inv) dominates.
  mc-doubling   mc at p=13, nu=1/20, t in {2,4,8,12}: sparse interpolation
                dominates; mc never pulls back, so transform is bypassed.
  cli-rational  the CLI, one fresh process per command, on p=31 files whose
                entries have denominators up to 7.

Every product is compared exactly with naive_mul (on cli-rational: the det
output file must be byte-identical to the naive one), verified with
Freivalds at mu = 1/10^6, and analyzed: its skew-sparsity must not exceed t.
A failed check marks the product failed; its time stays in the samples.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from skewmm import cyclotomic, matmul, transform
from skewmm.matrixfile import read_matrix_file, write_matrix_file
from skewmm.skewstructure import random_layered

MAX_SEED = 2 ** 64
#: distinct input cycles generated per set-up; longer runs reuse them in turn
POOL_CYCLES = 2
VERIFY_MU = Fraction(1, 10 ** 6)
COMMAND_TIMEOUT_S = 120
PERFBENCH_DIR = Path(__file__).resolve().parent

# the memoized original, kept so set-up can clear it even while traced
_SHARED_CTX = cyclotomic.shared_ctx


def fold_seed(seed, p, t):
    """`skewmm bench`'s fold of (seed, p, t) into one master seed."""
    return (seed * 2 ** 32 + p * 1024 + t * 8) % MAX_SEED


def fresh_context(p):
    """A context with empty caches, as a new process would build it."""
    clear = getattr(_SHARED_CTX, "cache_clear", None)
    if clear is not None:
        clear()
    return cyclotomic.shared_ctx(p)


@dataclass
class Record:
    """One product (on cli-rational, one cycle of the four commands)."""

    mul_s: float = 0.0
    naive_s: float | None = None
    verify_s: float | None = None
    analyze_s: float | None = None
    rounds: int = 0
    error: str | None = None
    #: timed step ("mul_s", ...) -> the run's clock when it started
    at: dict = field(default_factory=dict)


@dataclass
class Pair:
    t: int
    a: object
    b: object
    mc_seed: int
    verify_seed: int


class ProductWorkload:
    """det or mc products in-process, each checked against the oracle."""

    def __init__(self, seed, sampler, p, ts, algo, nu=None):
        self.seed = seed
        self.clock = sampler.clock
        self.p = p
        self.ts = ts
        self.algo = algo
        self.nu = nu
        self.pool = []

    def setup(self, tracer=None):
        """Context, orientation probe, inputs and one warm-up product."""
        ctx = fresh_context(self.p)
        transform.phi_orientation(ctx)
        self.pool = [[self._pair(ctx, cycle, t) for t in self.ts]
                     for cycle in range(POOL_CYCLES)]
        return self.product(self.pool[0][0])

    def _pair(self, ctx, cycle, t):
        master = random.Random(fold_seed(self.seed * POOL_CYCLES + cycle, self.p, t))
        a = random_layered(ctx, [0], master.getrandbits(64))
        b = random_layered(ctx, list(range(t)), master.getrandbits(64))
        return Pair(t, a, b, master.getrandbits(64), master.getrandbits(64))

    def cycle(self, index, tracer=None):
        records = []
        for number, pair in enumerate(self.pool[index % POOL_CYCLES]):
            if tracer is not None:
                tracer.request = index * len(self.ts) + number
            records.append(self.product(pair))
        return records

    def _multiply(self, pair):
        if self.algo == "det":
            return matmul.det_mul(pair.a, pair.b)
        return matmul.mc_mul(pair.a, pair.b, self.nu, pair.mc_seed)

    def product(self, pair):
        rec = Record()
        self._measure(rec, pair)
        return rec

    def _measure(self, rec, pair):
        clock = self.clock
        rec.at["mul_s"] = start = clock()
        try:
            result, report = self._multiply(pair)
        except Exception as exc:  # a failed product is counted, not fatal
            rec.mul_s = clock() - start
            rec.error = f"{self.algo} raised {exc!r}"
            return
        rec.mul_s = clock() - start
        rec.rounds = report.iterations
        try:
            rec.at["naive_s"] = start = clock()
            expected = matmul.naive_mul(pair.a, pair.b)
            rec.naive_s = clock() - start
            rec.at["verify_s"] = start = clock()
            verdict = matmul.freivalds(result, pair.a, pair.b, VERIFY_MU, pair.verify_seed)
            rec.verify_s = clock() - start
            rec.at["analyze_s"] = start = clock()
            sparsity = transform.mat_to_skew(result).sparsity
            rec.analyze_s = clock() - start
        except Exception as exc:
            rec.error = f"check raised {exc!r}"
            return
        if result != expected:
            rec.error = f"{self.algo} product differs from naive_mul at t={pair.t}"
        elif getattr(report, "fallback", False):
            rec.error = f"mc fell back to naive_mul at t={pair.t}"
        elif verdict is not matmul.FreivaldsResult.EQUAL:
            rec.error = f"freivalds rejected the product at t={pair.t}"
        elif sparsity > pair.t:
            rec.error = f"product sparsity {sparsity} exceeds t={pair.t}"


@dataclass
class CliPair:
    a: Path
    b: Path
    verify_seed: int


class CliWorkload:
    """mul det, mul naive, verify and analyze, each a fresh CLI process."""

    p = 31
    t = 2  # I = {0}, K = {0, 1}
    def __init__(self, seed, sampler, src, workdir):
        self.seed = seed
        self.sampler = sampler
        self.clock = sampler.clock
        self.workdir = Path(workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.pool = []

    def setup(self, tracer=None):
        """Context, rational inputs written by the serializer, one warm-up mul."""
        ctx = fresh_context(self.p)
        self.pool = []
        for cycle in range(POOL_CYCLES):
            master = random.Random(fold_seed(self.seed * POOL_CYCLES + cycle, self.p, self.t))
            a = random_layered(ctx, [0], master.getrandbits(64))
            b = random_layered(ctx, list(range(self.t)), master.getrandbits(64))
            a = a.scale(Fraction(1, master.randint(2, 7)))
            b = b.scale(Fraction(1, master.randint(2, 7)))
            pair = CliPair(self.workdir / f"a{cycle}.txt", self.workdir / f"b{cycle}.txt",
                           master.getrandbits(64))
            write_matrix_file(pair.a, a)
            write_matrix_file(pair.b, b)
            self.pool.append(pair)
            if cycle == 0:
                expected = matmul.naive_mul(a, b)
        rec = Record()
        out = self.workdir / "warmup.txt"
        rec.mul_s, done = self._run(["mul", "--algo", "det", str(self.pool[0].a),
                                     str(self.pool[0].b), "-o", str(out)], tracer)
        if done.returncode != 0:
            rec.error = f"warm-up mul --algo det exited {done.returncode}: {done.stderr.strip()}"
        elif read_matrix_file(out) != expected:
            rec.error = "warm-up det product differs from naive_mul"
        return rec

    def _run(self, argv, tracer):
        """Run one CLI command; returns (seconds, CompletedProcess)."""
        if tracer is None:
            cmd = [sys.executable, "-m", "skewmm.cli", *argv]
        else:
            summary_path = self.workdir / "child-trace.json"
            cmd = [sys.executable, str(PERFBENCH_DIR / "cli_child.py"), str(summary_path), *argv]
        with self.sampler.child():
            start = self.clock()
            done = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
            wall = self.clock() - start
        if tracer is not None and summary_path.exists():
            child = json.loads(summary_path.read_text(encoding="utf-8"))
            summary_path.unlink()
            tracer.merge(child)
            key = "cli.startup_ns"
            tracer.counts[key] = tracer.counts.get(key, 0) + int(wall * 1e9) - child["main_ns"]
        return wall, done

    def cycle(self, index, tracer=None):
        pair = self.pool[index % POOL_CYCLES]
        if tracer is not None:
            tracer.request = index
        det_out = self.workdir / "det.txt"
        naive_out = self.workdir / "naive.txt"
        for stale in (det_out, naive_out):
            stale.unlink(missing_ok=True)
        a, b = str(pair.a), str(pair.b)
        commands = {
            "mul_s": ["mul", "--algo", "det", a, b, "-o", str(det_out)],
            "naive_s": ["mul", "--algo", "naive", a, b, "-o", str(naive_out)],
            "verify_s": ["verify", str(det_out), a, b, "--mu", str(VERIFY_MU),
                         "--seed", str(pair.verify_seed)],
            "analyze_s": ["analyze", str(det_out)],
        }
        rec = Record()
        done = {}
        try:
            for step, argv in commands.items():
                rec.at[step] = self.clock()  # the probes before it stop this clock
                wall, done[step] = self._run(argv, tracer)
                setattr(rec, step, wall)
        except subprocess.TimeoutExpired as exc:
            rec.error = f"command timed out: {exc.cmd}"
        else:
            rec.error = self._check(commands, done, det_out, naive_out)
        return [rec]

    def _check(self, commands, done, det_out, naive_out):
        for step, proc in done.items():
            if proc.returncode != 0:
                return f"{commands[step][0]} ({step}) exited {proc.returncode}: " \
                       f"{proc.stderr.strip()}"
        if det_out.read_bytes() != naive_out.read_bytes():
            return "det output file differs from the naive output file"
        if done["verify_s"].stdout.split()[-1:] != ["equal"]:
            return f"verify did not answer equal: {done['verify_s'].stdout!r}"
        analyze = done["analyze_s"].stdout
        found = re.search(r"^skew-sparsity: (\d+)$", analyze, re.MULTILINE)
        if found is None or int(found.group(1)) > self.t:
            return f"analyze reports sparsity above t={self.t}: {analyze!r}"
        return None


def make_workload(name, seed, src, workdir, sampler):
    """The named workload; `sampler.clock` times products and stamps records."""
    if name == "det-sparse":
        return ProductWorkload(seed, sampler, 31, (1, 2, 4), "det")
    if name == "det-wide":
        return ProductWorkload(seed, sampler, 31, (8, 12, 16), "det")
    if name == "mc-doubling":
        return ProductWorkload(seed, sampler, 13, (2, 4, 8, 12), "mc", nu=Fraction(1, 20))
    if name == "cli-rational":
        return CliWorkload(seed, sampler, src, workdir)
    raise ValueError(f"unknown workload {name!r}")
