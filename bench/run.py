"""chainscope benchmark: three workloads of CLI ops, timed in-process.

    python3 bench/run.py --workload exact-geometry --seed 0 --seconds 30 --trace 0

One client runs one op at a time (a closed loop) through the public CLI,
``chainscope.cli.main(argv)``, on instances generated from ``--seed``.  A
run cycles through the workload's main ops and one round of its probe ops
while the projected end stays within ``--seconds``, so the samples of every
op are spread over the whole run; each cycle runs the main ops on the next
of the recorded instance sets.  Every op's time is scaled by the host
speed a calibration kernel measures around it, and its outputs are
checked against the reference reports recorded at the parent commit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass over the main ops and prints the per-layer
metrics from spans recorded around each module's public functions.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the
same numbers as a table, the op list with instance hashes, the error rate
and the host calibration time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

# One BLAS thread: the benchmark runs no more threads than the host's two
# cores, and the CLI's own --threads is then the only parallelism measured.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import check
import workloads as W

SETUP_REPEATS = 7

# (name, unit); every workload reports all of them
END_TO_END = [
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("bounds_s", "s"),
    ("duality_s", "s"),
    ("partition_s", "s"),
    ("ellipsoid_s", "s"),
    ("modulus_s", "s"),
    ("modulus_t2_s", "s"),
    ("workload_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_unit(name: str) -> str:
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("evals_per_iter"):
        return "evals/iter"
    if name.endswith("overhead_frac"):
        return "frac"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# set-up and host calibration


def fresh_import_seconds() -> float:
    """Seconds a fresh interpreter spends importing ``chainscope.cli``."""
    code = ("import time; t = time.perf_counter(); import chainscope.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def setup_seconds() -> float:
    """Median over fresh interpreters of the import time, host-scaled."""
    fresh_import_seconds()  # the first import also writes the bytecode cache
    before = calib_kernel()
    values = []
    for _ in range(SETUP_REPEATS):
        seconds = fresh_import_seconds()
        after = calib_kernel()
        values.append(scaled(seconds, before, after))
        before = after
    return statistics.median(values)


# Seconds the pure-Python part and the whole of calib_kernel() take in the
# fast mode of the host the benchmark was built on (a 2-core Intel Xeon VM
# at 2.1 GHz, Python 3.11, numpy 2.4; lower deciles of 700 kernels):
# scaled times are about wall-clock seconds there.  The values only set the
# scale; both sides of a comparison use them.
REF_PYTHON_S = 0.0075
REF_KERNEL_S = 0.027

# Commands whose ops are mostly interpreted Python.  When the host slows
# down, their time follows the kernel's pure-Python part (log-log slope
# 1.0-1.2) and outruns the whole kernel (slope 1.3-1.8), whose numpy part
# slows less; the numpy-bound modulus and partition follow the whole kernel
# or less.  Each op is scaled by the part it follows.
PYTHON_BOUND = {"analyze", "bounds", "duality", "ellipsoid"}

_CALIB_INPUT = np.random.default_rng(0).standard_normal(200_000)


def calib_kernel() -> tuple[float, float]:
    """Seconds of a fixed kernel, as (its pure-Python loop, the whole kernel):
    the loop, then memory-bound numpy work (Philox draws and pairwise
    differences, as in the Monte Carlo estimators).  It measures the host's
    speed, not the program's."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    loop_end = time.perf_counter()
    g = np.random.Generator(np.random.Philox(7)).standard_normal((32768, 8))
    np.abs(g[:, :, None] - g[:, None, :]).max(axis=0)
    np.sort(np.tanh(_CALIB_INPUT) * _CALIB_INPUT)
    return loop_end - start, time.perf_counter() - start


def scaled(seconds: float, before, after, python_bound: bool = False) -> float:
    """``seconds`` at the reference host speed, from the calibration kernel
    timed right before and right after them.

    The shared host runs the same op up to twice as slow for minutes at a
    time, for the calibration kernel as much as for the program; the
    ratio of the two follows the program and cancels most of that."""
    part, ref = (0, REF_PYTHON_S) if python_bound else (1, REF_KERNEL_S)
    return seconds * ref / ((before[part] + after[part]) / 2)


def calibrate() -> float:
    calib_kernel()
    return statistics.median(calib_kernel()[1] for _ in range(3))


# ---------------------------------------------------------------------------
# running and checking ops


class Runner:
    """Runs ops through ``cli.main``, times them and checks their outputs."""

    def __init__(self, cli, workload: str, work_dir: str):
        self.cli = cli
        self.work_dir = work_dir
        self.instances = W.write_instances(workload, os.path.join(work_dir, "instances"))
        self.refs = {pool: check.load_references(BENCH_DIR, pool)
                     for pool in range(W.POOL_SIZE)}
        self.attempted = 0
        self.failures = []

    def run(self, op, pool: int, tracer=None) -> float:
        """Seconds of ``op`` on the instance set ``pool`` (probes: PROBE_POOL)."""
        pool = W.op_pool(op, pool)
        out = os.path.join(self.work_dir, "out", op.name)
        shutil.rmtree(out, ignore_errors=True)
        instance = self.instances[(pool, op.instance)] if op.instance else None
        argv = op.full_argv(instance, out, W.cli_seed(pool))
        err = io.StringIO()
        gc.collect()  # garbage left by the previous op is not this op's cost
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call("cli.main", self.cli.main, argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that crashes is counted as failed, never dropped
            code = "uncaught " + traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        self._check(op, pool, code, out, err.getvalue())
        return elapsed

    def _check(self, op, pool, code, out, stderr):
        self.attempted += 1
        ref = self.refs[pool].get(op.name)
        problems = []
        if ref is not None and op.instance and \
                ref["instance_sha256"] != self.instances[(pool, op.instance)].sha256:
            problems.append("instance differs from the one the reference was recorded on")
        problems += check.check_op(op.command, code if isinstance(code, int) else 1, out,
                                   ref["payload"] if ref else None)
        if not isinstance(code, int):
            problems.insert(0, code)
        elif code != 0 and stderr.strip():
            problems.append(stderr.strip().splitlines()[-1])
        if op.twin:
            names = [f"{op.command}_report.json", f"{op.command}_delta.csv"]
            for name in check.same_bytes(out, os.path.join(self.work_dir, "out", op.twin),
                                         names):
                problems.append(f"{name} differs from {op.twin}'s")
        if problems:
            self.failures.append((op.name, pool, problems[:3]))


def time_ops(runner, ops, seed, seconds) -> list:
    """Cycle through ``ops`` (the main ops, then one round of the probes)
    while the projected end stays within ``seconds``; every op runs at least
    once, and cycle ``c`` runs on instance set ``pool_of(seed, c)``.
    Returns (op, pool, seconds, host-scaled seconds, kernel before, kernel
    after) per timed op."""
    log = []
    start = time.perf_counter()
    before = calib_kernel()
    step = {}
    i = 0
    while True:
        op = ops[i % len(ops)]
        pool = W.op_pool(op, W.pool_of(seed, i // len(ops)))
        t0 = time.perf_counter()
        elapsed = runner.run(op, pool)
        after = calib_kernel()
        log.append((op, pool, elapsed,
                    scaled(elapsed, before, after, op.command in PYTHON_BOUND),
                    before, after))
        before = after
        step[op.name] = time.perf_counter() - t0
        i += 1
        nxt = ops[i % len(ops)].name
        if i >= len(ops) and time.perf_counter() - start + step[nxt] > seconds:
            return log


def end_to_end(log, main, probes, setup_s) -> dict:
    """Per command metric, the mean host-scaled time of its ops; probes stand
    in for commands the main ops do not run.  The mean, not the median: a
    run's samples fall into two host speed modes, and a median jumps
    between them."""
    times = defaultdict(list)
    for op, _, _, t, _, _ in log:
        times[op.name].append(t)
    mean = {op.name: statistics.mean(times[op.name]) for op in main + probes}
    values = {}
    for metric in {op.metric for op in main + probes}:
        ops = [op for op in main if op.metric == metric] or \
              [op for op in probes if op.metric == metric]
        values[metric] = statistics.mean(mean[op.name] for op in ops)
    values["setup_s"] = setup_s
    values["workload_s"] = sum(mean[op.name] for op in main)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def traced_metrics(runner, main, pool) -> dict:
    """Per-layer metrics of one traced pass over the main ops on ``pool``."""
    from tracer import Tracer, layer_metrics

    untraced = sum(runner.run(op, pool) for op in main)
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(runner.run(op, pool, tracer) for op in main)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer.spans)
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return values


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "chainscope", "cli.py")):
        print(f"error: no chainscope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from chainscope import cli

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    setup_s = None if args.trace else setup_seconds()
    runner = Runner(cli, args.workload, work_dir)
    main_ops, probes = W.workload_ops(args.workload)
    calib = [calibrate()]
    for op in W.all_probes():  # warm-up: lazy imports of every command
        runner.run(op, W.PROBE_POOL)
    if args.trace:
        values = traced_metrics(runner, main_ops, W.pool_of(args.seed))
        log = []
    else:
        log = time_ops(runner, main_ops + probes, args.seed, args.seconds)
        values = end_to_end(log, main_ops, probes, setup_s)
    calib.append(calibrate())
    if args.trace:
        values["host.calib_s"] = statistics.mean(calib)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": values[k], "unit": units[k]} for k, _ in END_TO_END}

    failed = len(runner.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host_calib_s": calib,
        "ops": [{"name": op.name, "command": op.command, "n": op.n, "samples": op.samples,
                 "threads": op.threads, "probe": op.probe} for op in main_ops + probes],
        "timed": [{"op": op.name, "pool": pool, "seconds": t, "scaled_seconds": st,
                   "kernel_before": kb, "kernel_after": ka,
                   "instance_sha256": runner.instances[(pool, op.instance)].sha256
                   if op.instance else None}
                  for op, pool, t, st, kb, ka in log],
        "failures": runner.failures, "metrics": metrics,
    }
    with open(os.path.join(work_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  ops timed {len(log)}  "
          f"host.calib_s start {calib[0]:.4f} end {calib[1]:.4f}")
    for op in main_ops + probes:
        mine = [(pool, t, st) for o, pool, t, st, _, _ in log if o is op]
        if mine:
            print(f"  {op.name:<20} {op.command:<9} n={op.n:<3} "
                  f"samples={op.samples or '-':<6} threads={op.threads} "
                  f"pools={''.join(str(p) for p, _, _ in mine):<10} "
                  f"mean={statistics.mean(t for _, t, _ in mine):.4f}s "
                  f"scaled={statistics.mean(st for _, _, st in mine):.4f}s x{len(mine)}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  error_rate {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    for name, pool, problems in runner.failures:
        print(f"  FAILED {name} (pool {pool}): {'; '.join(problems)}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
