"""Seeded instances and the op lists of the three benchmark workloads.

An op is one CLI command on one generated instance.  There are
``POOL_SIZE`` instance sets, each generated from its own pool index, and
the reference reports of every set were recorded once at the parent commit
(see ``record.py``), so every op's output can be checked.  A run cycles
through its workload's op list, and cycle ``c`` runs the main ops on
instance set ``(seed + c) % POOL_SIZE``: the seed picks where the rotation
starts, and each per-command time is a mean over several instances, so the
cost of one instance does not become the run's number.  The program sees
only the instance files and argv.

Besides its main ops, every workload carries *probe* ops: one small op of
each command it does not otherwise run, so that every per-command metric
has a measured value on every workload.  Probes are timed on their own and
left out of ``workload_s`` and of the traced pass.  They run on the
instances and CLI seed of pool entry ``PROBE_POOL`` in every cycle: a small
op's cost swings with its instance, and probes only stand in for commands
the workload does not exercise.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

POOL_SIZE = 8
PROBE_POOL = 0

WORKLOADS = ("exact-geometry", "extremal-search", "monte-carlo")
COMMANDS = ("analyze", "bounds", "duality", "partition", "ellipsoid", "modulus")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` excludes ``--instance``, ``--seed``, ``--out``
    and the ``--delta-grid`` that ``pair_fractions`` sets."""

    name: str
    command: str
    argv: tuple
    instance: str | None  # key into the workload's instance table
    n: int
    samples: int | None
    threads: int
    probe: bool = False
    metric: str = ""  # end-to-end metric this op's time feeds
    twin: str | None = None  # op whose report this one must repeat byte for byte
    pair_fractions: tuple = ()  # modulus: a delta grid keeping these shares of the pairs

    def full_argv(self, instance: Instance | None, out_dir: str, seed: int) -> list:
        argv = [self.command, *self.argv]
        if self.pair_fractions:
            argv += ["--delta-grid", pair_fraction_grid(instance.data, self.pair_fractions)]
        argv += ["--seed", str(seed), "--out", out_dir]
        if instance is not None:
            argv += ["--instance", instance.path]
        return argv


class Instance(NamedTuple):
    """A written instance file: its path, the SHA-256 of its text, its data."""

    path: str
    sha256: str
    data: dict


# ---------------------------------------------------------------------------
# instance families


def random_covariance(rng, n):
    """PSD covariance A A^T / n, the family the unit tests draw from."""
    A = rng.standard_normal((n, n))
    return A @ A.T / n


def gaussian_cloud(rng, n, dim):
    return rng.standard_normal((n, dim))


def clustered_cloud(rng, n, dim=2):
    """Separated groups: multi-scale structure for the covering tables."""
    centers = 5.0 * rng.standard_normal((max(2, n // 4), dim))
    return centers[rng.integers(len(centers), size=n)] + 0.2 * rng.standard_normal((n, dim))


def l1_distance_matrix(rng, n, dim=3):
    """A raw, non-Euclidean metric, so the CLI runs its triangle check."""
    P = rng.standard_normal((n, dim))
    return np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2)


def pair_fraction_grid(instance: dict, fractions) -> str:
    """``--delta-grid`` for a covariance instance whose k-th delta keeps the
    share ``fractions[k]`` of the pairs within delta in the canonical
    distance ``sqrt(C_ss + C_tt - 2 C_st)``.

    The modulus estimator samples once per delta and reduces over the pairs
    it keeps, so this grid gives every instance of a size the same work;
    the default grid (fractions of the diameter) keeps between none and all
    of the pairs at a delta, depending on the instance.  Each delta lies
    halfway between two consecutive pair distances, far from either.
    """
    C = np.asarray(instance["metric"]["data"], dtype=float)
    d = np.diag(C)
    dist = np.sort(np.sqrt(np.maximum(d[:, None] + d[None, :] - 2.0 * C, 0.0))
                   [np.triu_indices(len(C), k=1)])
    deltas = []
    for f in fractions:
        k = round(f * len(dist))
        deltas.append((dist[k - 1] + dist[k]) / 2 if k < len(dist) else 1.25 * dist[-1])
    return ",".join(repr(float(v)) for v in deltas)


def _instance(name, mtype, data, weights=None):
    obj = {"name": name, "metric": {"type": mtype, "data": np.asarray(data).tolist()}}
    if weights is not None:
        obj["weights"] = np.asarray(weights).tolist()
    return obj


def _rng(pool: int, key: str):
    """Independent stream per (pool index, instance key)."""
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng([pool, int.from_bytes(digest[:8], "little")])


def make_instance(pool: int, key: str) -> dict:
    """Instance ``key`` of pool entry ``pool``; keys read ``<family>_<n>[_tag]``."""
    rng = _rng(pool, key)
    family, n = key.split("_")[:2]
    n = int(n)
    weights = rng.dirichlet(np.ones(n))
    if family == "cloud3d":
        return _instance(key, "points", gaussian_cloud(rng, n, 3), weights)
    if family == "cluster2d":
        return _instance(key, "points", clustered_cloud(rng, n), weights)
    if family == "l1matrix":
        return _instance(key, "matrix", l1_distance_matrix(rng, n), weights)
    if family == "cov":
        return _instance(key, "covariance", random_covariance(rng, n), weights)
    raise ValueError(f"unknown instance family {family!r}")


# ---------------------------------------------------------------------------
# op lists


def _op(name, command, instance, n, samples=None, threads=1, extra=(), probe=False,
        metric=None, twin=None, pair_fractions=()):
    argv = list(extra)
    if samples is not None:
        argv += ["--samples", str(samples)]
    argv += ["--threads", str(threads)]
    return Op(name=name, command=command, argv=tuple(argv), instance=instance, n=n,
              samples=samples, threads=threads, probe=probe,
              metric=metric or f"{command}_s", twin=twin, pair_fractions=pair_fractions)


ELLIPSOID_AXES = "1,0.5,0.25,0.125"
MODULUS_PAIRS = (0.25, 0.5, 1.0)

# Main ops take about 0.5-2 s each on 2 cores, so a run times each of them
# five to eight times, on as many instance sets; each size still leaves the
# targeted layer most of the op.
MAIN_OPS = {
    "exact-geometry": [
        _op("analyze-cloud3d", "analyze", "cloud3d_40", 40),
        _op("analyze-cluster2d", "analyze", "cluster2d_40", 40),
        _op("analyze-cov", "analyze", "cov_40_a", 40),
        _op("analyze-l1matrix", "analyze", "l1matrix_40", 40),
    ],
    "extremal-search": [
        # no random restarts: the search work of an instance then varies
        # least with the CLI seed (about 8% over the pool at n=16)
        _op("duality-a", "duality", "cov_16_c", 16, samples=20000, extra=("--restarts", "0")),
        _op("duality-b", "duality", "cov_16_d", 16, samples=20000, extra=("--restarts", "0")),
        _op("bounds-a", "bounds", "cov_16_a", 16, samples=20000),
        _op("bounds-b", "bounds", "cov_16_b", 16, samples=20000),
    ],
    "monte-carlo": [
        # two shards of 131072 samples at n=16, so --threads 2 runs them in
        # parallel; deltas at fixed shares of the pairs, so every instance
        # set costs the same
        _op("modulus-t1", "modulus", "cov_16_a", 16, samples=262144, threads=1,
            pair_fractions=MODULUS_PAIRS),
        _op("modulus-t2", "modulus", "cov_16_a", 16, samples=262144, threads=2,
            metric="modulus_t2_s", twin="modulus-t1", pair_fractions=MODULUS_PAIRS),
        _op("partition", "partition", "cov_64_a", 64, samples=25000),
        _op("ellipsoid", "ellipsoid", None, len(ELLIPSOID_AXES.split(",")),
            samples=3000, extra=("--axes", ELLIPSOID_AXES)),
    ],
}

PROBE_OPS = {
    "analyze": [_op("probe-analyze", "analyze", "cloud3d_24", 24, probe=True)],
    "bounds": [_op("probe-bounds", "bounds", "cov_6_p", 6, samples=2000, probe=True)],
    "duality": [_op("probe-duality", "duality", "cov_6_p", 6, samples=2000, probe=True,
                    extra=("--restarts", "0"))],
    "partition": [_op("probe-partition", "partition", "cov_32_p", 32, samples=20000,
                      probe=True)],
    "ellipsoid": [_op("probe-ellipsoid", "ellipsoid", None, 3, samples=2000, probe=True,
                      extra=("--axes", "1,0.5,0.25"))],
    "modulus": [
        _op("probe-modulus-t1", "modulus", "cov_16_p", 16, samples=20000, threads=1,
            probe=True),
        _op("probe-modulus-t2", "modulus", "cov_16_p", 16, samples=20000, threads=2,
            probe=True, metric="modulus_t2_s", twin="probe-modulus-t1"),
    ],
}


def workload_ops(workload: str) -> tuple[list, list]:
    """(main ops, probe ops) of a workload."""
    main = MAIN_OPS[workload]
    ran = {op.command for op in main}
    probes = [op for cmd in COMMANDS if cmd not in ran for op in PROBE_OPS[cmd]]
    return main, probes


def all_probes() -> list:
    """Every probe op; one round of them warms the lazy imports of each command."""
    return [op for cmd in COMMANDS for op in PROBE_OPS[cmd]]


def all_ops(workload: str) -> list:
    return MAIN_OPS[workload] + all_probes()


def pool_of(seed: int, cycle: int = 0) -> int:
    """Instance set of the main ops in cycle ``cycle`` of a run of ``seed``."""
    return (seed + cycle) % POOL_SIZE


def op_pool(op: Op, pool: int) -> int:
    """Pool entry whose instance and CLI seed ``op`` uses in a cycle on ``pool``."""
    return PROBE_POOL if op.probe else pool


def write_instances(workload: str, directory: str, pools=range(POOL_SIZE)) -> dict:
    """Write the instance files of a workload's main ops on each of ``pools``
    and of every probe; returns (pool, key) -> Instance."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for pool in pools:
        for op in all_ops(workload):
            key = (op_pool(op, pool), op.instance)
            if op.instance is None or key in out:
                continue
            data = make_instance(*key)
            text = json.dumps(data, sort_keys=True)
            path = os.path.join(directory, f"{op.instance}_pool{key[0]}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            out[key] = Instance(path, hashlib.sha256(text.encode()).hexdigest(), data)
    return out


def cli_seed(pool: int) -> int:
    """The ``--seed`` every op of a pool entry passes to the CLI."""
    return 1000 + pool
