"""Spans around the public functions of each chainscope module, from outside.

:class:`Tracer` replaces a function with a timing wrapper in *every*
namespace that holds it (the defining module, modules that imported it by
name, the package ``__init__``), and replaces methods on their class.  A
span records (id, name, start, end, parent, thread, info).  The parent
comes from a ``contextvars`` variable, so spans opened in worker threads of
a thread pool, which do not inherit the context, stand alone with their
thread id.  Spans stay in memory; :func:`layer_metrics` reduces them once
the run ends.  No file of the program is changed.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

_current = contextvars.ContextVar("bench_span", default=None)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: object = None


def _rows(args, kwargs, result):
    return len(result)  # one row per sample


def _search_result(args, kwargs, result):
    return (result.iterations, result.converged)


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    # manifests carry wall time, whose digit count varies from run to run
    if path.endswith("_manifest.json"):
        return 0
    return os.path.getsize(path)


# (module, attribute, span name, info(args, kwargs, result) or None)
TARGETS = [
    ("metric_core", "build_from_distance_matrix", "metric_core.build", None),
    ("metric_core", "build_from_covariance", "metric_core.build", None),
    ("metric_core", "build_from_points", "metric_core.build", None),
    ("metric_core", "greedy_permutation", "metric_core.greedy_permutation", None),
    ("metric_core", "greedy_packing", "metric_core.greedy_packing", None),
    ("metric_core", "covering_number", "metric_core.covering_number", None),
    ("metric_core", "entropy_integral", "metric_core.entropy_integral", None),
    ("metric_core", "modulus_entropy_diagnostic", "metric_core.modulus_entropy_diagnostic",
     None),
    ("measures", "SigmaEvaluator.__init__", "measures.evaluator_init", None),
    ("measures", "SigmaEvaluator.profile", "measures.profile", None),
    ("measures", "SigmaEvaluator.jacobian", "measures.jacobian", None),
    ("measures", "SigmaEvaluator.m_self", "measures.m_self", None),
    ("measures", "functional_M", "measures.functional_M", None),
    ("measures", "sigma_profile", "measures.sigma_profile", None),
    ("search", "maximize_M_self", "search.maximize_M_self", _search_result),
    ("search", "minimize_sup_M", "search.minimize_sup_M", _search_result),
    ("search", "maximize_inf_M", "search.maximize_inf_M", _search_result),
    ("search", "balanced_measure", "search.balanced_measure", _search_result),
    ("search", "duality_report", "search.duality_report", None),
    ("gaussian_lab", "build_model", "gaussian_lab.build_model",
     lambda a, k, r: r.jitter),
    ("gaussian_lab", "standard_normal_block", "gaussian_lab.sample", _rows),
    ("gaussian_lab", "sample_paths", "gaussian_lab.sample_paths", None),
    ("gaussian_lab", "estimate_sup", "gaussian_lab.estimate_sup", None),
    ("gaussian_lab", "argmax_distribution", "gaussian_lab.argmax_distribution", None),
    ("gaussian_lab", "estimate_modulus", "gaussian_lab.estimate_modulus", None),
    ("gaussian_lab", "sudakov_bound", "gaussian_lab.sudakov_bound", None),
    ("gaussian_lab", "supremum_report", "gaussian_lab.supremum_report", None),
    ("partition", "common_sample_oracle", "partition.common_sample_oracle", None),
    ("partition", "build_partition", "partition.build_partition", lambda a, k, r: r.depth),
    ("partition", "audit_cell", "partition.audit", None),
    ("partition", "chained_functional", "partition.chained_functional", None),
    ("partition", "lower_bound_report", "partition.lower_bound_report", None),
    ("ellipsoid", "make_spec", "ellipsoid.make_spec", None),
    ("ellipsoid", "esup_check", "ellipsoid.esup_check", None),
    ("ellipsoid", "gap_lower_bound_check", "ellipsoid.gap_checks", None),
    ("ellipsoid", "empirical_measure", "ellipsoid.empirical_measure",
     lambda a, k, r: r.space.n),
    ("ellipsoid", "ellipsoid_report", "ellipsoid.ellipsoid_report", None),
    ("io", "load_instance", "io.load_instance", None),
    ("io", "sha256_file", "io.sha256_file", None),
    ("io", "write_json", "io.write", _bytes_written),
    ("io", "write_csv", "io.write", _bytes_written),
    ("cli", "validate_envelope", "cli.validate_envelope", None),
]


class Tracer:
    """Collects spans; :meth:`install` patches chainscope, :meth:`uninstall`
    restores it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list = []

    def wrap(self, name, fn, info=None):
        spans, ids = self.spans, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = _current.get()
            token = _current.set(sid)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                _current.reset(token)
                extra = info(args, kwargs, result) if info and ok else None
                spans.append(Span(sid, name, start, end, parent, threading.get_ident(), extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (used around ``cli.main``)."""
        return self.wrap(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, modules, original, new):
        """Replace ``original`` by ``new`` in every namespace that holds it."""
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, new)

    def install(self, package="chainscope"):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, attr, name, info in TARGETS:
            module = sys.modules[f"{package}.{mod_name}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], info))
            else:
                original = getattr(module, attr)
                self._replace(modules, original, self.wrap(name, original, info))
        # the F oracle is a closure returned by common_sample_oracle
        factory = sys.modules[f"{package}.partition"].common_sample_oracle

        def traced_factory(*args, **kwargs):
            return self.wrap("partition.oracle", factory(*args, **kwargs))

        self._replace(modules, factory, traced_factory)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# reduction


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_end = s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, cur_end), min(b, s.end)
            if b > a:
                covered += b - a
                cur_end = b
        out[s.id] = (s.end - s.start) - covered
    return out


def _outermost(spans, by_id, names) -> list:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _under(spans, by_id, prefix) -> set:
    """Ids of spans that have an ancestor whose name starts with ``prefix``."""
    hit = set()
    for s in spans:
        p = s.parent
        while p is not None:
            if by_id[p].name.startswith(prefix):
                hit.add(s.id)
                break
            p = by_id[p].parent
    return hit


LAYERS = ("metric_core", "measures", "search", "gaussian_lab", "partition", "ellipsoid",
          "io", "cli")


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> value for one traced pass."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def secs(name):
        return float(sum(s.end - s.start for s in _outermost(by_name[name], by_id, {name})))

    def calls(name):
        return len(by_name[name])

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(sum(selfs[s.id] for s in spans
                                         if s.name.split(".")[0] == layer))

    m["metric_core.build.s"] = secs("metric_core.build")
    m["metric_core.greedy_permutation.calls"] = calls("metric_core.greedy_permutation")
    m["metric_core.greedy_packing.calls"] = calls("metric_core.greedy_packing")
    for fn in ("covering_number", "entropy_integral", "modulus_entropy_diagnostic"):
        m[f"metric_core.{fn}.s"] = secs(f"metric_core.{fn}")

    for fn in ("profile", "jacobian", "m_self", "evaluator_init"):
        m[f"measures.{fn}.calls"] = calls(f"measures.{fn}")
        m[f"measures.{fn}.s"] = secs(f"measures.{fn}")
    m["measures.functional_M.s"] = secs("measures.functional_M")

    problems = ("search.maximize_M_self", "search.minimize_sup_M", "search.maximize_inf_M")
    for name in problems + ("search.balanced_measure",):
        m[f"{name}.s"] = secs(name)
    results = [s.info for name in problems for s in by_name[name] if s.info]
    balanced = [s.info for s in by_name["search.balanced_measure"] if s.info]
    m["search.iterations"] = sum(it for it, _ in results)
    m["search.balanced_measure.iterations"] = sum(it for it, _ in balanced)
    m["search.unconverged"] = sum(1 for _, conv in results + balanced if not conv)
    under = _under(spans, by_id, "search.")
    evals = sum(1 for name in ("measures.profile", "measures.m_self")
                for s in by_name[name] if s.id in under)
    iters = m["search.iterations"] + m["search.balanced_measure.iterations"]
    m["search.evals_per_iter"] = evals / iters if iters else 0.0

    m["gaussian_lab.build_model.s"] = secs("gaussian_lab.build_model")
    m["gaussian_lab.jitter_models"] = sum(1 for s in by_name["gaussian_lab.build_model"]
                                          if s.info)
    m["gaussian_lab.sample.calls"] = calls("gaussian_lab.sample")
    m["gaussian_lab.sample.rows"] = sum(s.info or 0 for s in by_name["gaussian_lab.sample"])
    m["gaussian_lab.sample.s"] = secs("gaussian_lab.sample")
    m["gaussian_lab.sample.rows_per_s"] = (m["gaussian_lab.sample.rows"]
                                           / m["gaussian_lab.sample.s"]
                                           if m["gaussian_lab.sample.s"] else 0.0)
    for fn in ("estimate_modulus", "estimate_sup", "argmax_distribution", "sudakov_bound"):
        m[f"gaussian_lab.{fn}.s"] = secs(f"gaussian_lab.{fn}")
    m["gaussian_lab.supremum_report.self_s"] = float(
        sum(selfs[s.id] for s in by_name["gaussian_lab.supremum_report"]))

    m["partition.build_partition.s"] = secs("partition.build_partition")
    m["partition.oracle.calls"] = calls("partition.oracle")
    m["partition.oracle.s"] = secs("partition.oracle")
    m["partition.audit.s"] = secs("partition.audit")
    m["partition.depth"] = max((s.info for s in by_name["partition.build_partition"]),
                               default=0)

    m["ellipsoid.empirical_measure.s"] = secs("ellipsoid.empirical_measure")
    m["ellipsoid.support_size"] = max((s.info for s in by_name["ellipsoid.empirical_measure"]),
                                      default=0)
    m["ellipsoid.gap_checks.s"] = secs("ellipsoid.gap_checks")

    m["io.load_instance.s"] = secs("io.load_instance")
    m["io.write.s"] = secs("io.write")
    m["io.bytes_written"] = sum(s.info or 0 for s in by_name["io.write"])
    m["cli.validate_envelope.s"] = secs("cli.validate_envelope")
    return m
