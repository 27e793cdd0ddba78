"""Record the reference payloads that ``run.py`` checks every op against.

    python3 bench/record.py            # every pool entry
    python3 bench/record.py 0 3        # selected pool entries

Run it at the commit whose outputs are the reference, and only when the
workload definitions in ``workloads.py`` change: each main op of every
workload is run once per pool entry, and each probe op once for
``PROBE_POOL``; its payload is stored in ``reference/pool<k>.json.gz`` with
the SHA-256 of its instance file.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import workloads as W  # noqa: E402
from chainscope import __version__, cli  # noqa: E402


def record_pool(pool: int, work: str) -> dict:
    ops = {}
    for workload in W.WORKLOADS:
        instances = W.write_instances(workload, os.path.join(work, "instances"), [pool])
        for op in W.all_ops(workload):
            if op.name in ops or W.op_pool(op, pool) != pool:
                continue
            out = os.path.join(work, "out", op.name)
            instance = instances[(pool, op.instance)] if op.instance else None
            code = cli.main(op.full_argv(instance, out, W.cli_seed(pool)))
            problems = check.check_op(op.command, code, out, reference={})
            if problems:
                raise SystemExit(f"pool {pool} op {op.name}: {problems}")
            with open(os.path.join(out, f"{op.command}_report.json"), encoding="utf-8") as fh:
                payload = json.load(fh)["payload"]
            ops[op.name] = {"instance_sha256": instance.sha256 if instance else None,
                            "payload": check.compact(payload)}
            print(f"pool {pool} {op.name}", flush=True)
    return ops


def main(argv) -> int:
    pools = [int(a) for a in argv] or range(W.POOL_SIZE)
    work = os.path.join(ROOT, ".bench_work", "record")
    os.makedirs(os.path.join(BENCH_DIR, "reference"), exist_ok=True)
    for pool in pools:
        shutil.rmtree(work, ignore_errors=True)
        doc = {"pool": pool, "chainscope_version": __version__, "ops": record_pool(pool, work)}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with open(check.reference_path(BENCH_DIR, pool), "wb") as fh:
            fh.write(gzip.compress(text.encode(), mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
