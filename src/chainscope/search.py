"""Simplex searches for the three functional extrema and the balanced measure.

None of the three extremal problems is known to be convex, so everything
here is local search with restarts from principled initializers: the argmax
distribution mu_F for sup_mu M(mu, mu) and the balanced measure nu_F for
sup_mu inf_t.  Reported values therefore carry feasible-direction
semantics: lower bounds for the sup problems, an upper bound for the inf
problem.

All three run one mirror-ascent loop from one restart driver.  Iterates
stay strictly positive (floor 1e-12, then renormalize) so the objectives
remain finite; the gradients are the exact derivatives of the
piecewise-linear-in-eps sigma profiles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gaussian_lab import argmax_distribution, estimate_sup
from .measures import (YOUNG_INVERSE, ProbabilityMeasure, SigmaEvaluator, WEIGHT_FLOOR,
                       nu_average)
from .metric_core import FiniteMetricSpace

# balanced_measure: fixed-point iteration cap, first step exponent, and the
# relative spread of the integrals that counts as balanced
BALANCE_MAX_ITER = 2000
BALANCE_DAMPING = 0.5
BALANCE_TOL = 1e-8
# the three searches: relative gain a step or a new best iterate must make
SEARCH_TOL = 1e-9


@dataclass(frozen=True)
class OptimizationResult:
    measure: ProbabilityMeasure
    objective: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class BalancedMeasure:
    measure: ProbabilityMeasure
    phi_values: np.ndarray
    spread: float
    iterations: int
    converged: bool


def _project(w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, WEIGHT_FLOOR)
    return w / w.sum()


class _SelfM:
    """sup_mu M(mu, mu), followed exactly; a step must gain SEARCH_TOL * (1 + |M|)."""

    sign = 1.0
    slack = SEARCH_TOL

    def __init__(self, ev):
        self.ev = ev

    def start(self, prof):
        pass

    def cool(self, it, stalled):
        return not stalled  # a stall ends the search

    def value(self, prof, w):
        return nu_average(prof, w)

    exact = value

    def value_and_gradient(self, prof, w):
        return nu_average(prof, w), self.ev.m_self_grad(w, prof)


class _Soft:
    """max_t sigma (sign -1, descended) or min_t sigma (sign +1, ascended).

    Steps follow the softmax or softmin of the profile at a temperature tau
    that halves every 50 iterations and on a stall; any gain is a step.
    """

    slack = 0.0

    def __init__(self, ev, sign):
        self.ev, self.sign = ev, sign

    def start(self, prof):
        self.tau = max(0.1 * (prof.max() - prof.min()) + 1e-3, 1e-3)

    def cool(self, it, stalled):
        if stalled and self.tau <= 1e-6:
            return False
        if stalled or it % 50 == 0:
            self.tau = max(self.tau * 0.5, 1e-6)
        return True

    def exact(self, prof, w):
        return float(prof.min() if self.sign > 0 else prof.max())

    def _tilt(self, prof):
        # exp(-(prof - min) / tau) for softmin, exp((prof - max) / tau) for softmax
        m = self.exact(prof, None)
        return m, np.exp(-self.sign * (prof - m) / self.tau)

    def value(self, prof, w):
        m, e = self._tilt(prof)
        return m - self.sign * self.tau * math.log(e.sum())

    def value_and_gradient(self, prof, w):
        # one tilt gives the soft value and, normalized, the gradient weights
        m, e = self._tilt(prof)
        s = e.sum()
        return m - self.sign * self.tau * math.log(s), self.ev.jacobian(w).T @ (e / s)


def _mirror_ascent(problem, w, max_iter):
    """Multiplicative-weights local search with a backtracking step size.

    Steps follow ``problem.value`` along its gradient (``sign`` +1 ascends,
    -1 descends) when they move it by more than ``slack * (1 + |value|)``;
    the best iterate by ``problem.exact`` is kept up to a relative
    ``SEARCH_TOL``.  Each accepted point's profile is computed once, and its
    value and gradient come from one ``problem.value_and_gradient``.  Returns
    (best_w, best_exact, iterations, converged); converged means a stop
    before ``max_iter``.
    """
    ev, sign = problem.ev, problem.sign
    prof = ev.profile(w)
    problem.start(prof)
    best_w, best = w, problem.exact(prof, w)
    eta = 0.5
    it = 0
    while it < max_iter:
        it += 1
        problem.cool(it, stalled=False)
        val, g = problem.value_and_gradient(prof, w)
        g = g - np.dot(g, w)  # remove the direction normal to the simplex
        norm = np.abs(g).max()
        if norm <= 1e-14:
            return best_w, best, it, True
        g = g / norm
        while eta > 1e-12:
            cand = _project(w * np.exp(sign * eta * g))
            cprof = ev.profile(cand)
            if sign * (problem.value(cprof, cand) - val) > problem.slack * (1.0 + abs(val)):
                w, prof = cand, cprof
                cexact = problem.exact(prof, w)
                if sign * (cexact - best) > SEARCH_TOL * (1.0 + abs(best)):
                    best_w, best = w, cexact
                eta = min(eta * 1.5, 4.0)
                break
            eta *= 0.5
        else:  # no step gained
            if not problem.cool(it, stalled=True):
                return best_w, best, it, True
            eta = 0.5
    return best_w, best, it, False


def _best_of_restarts(problem, name, init_measures, restarts, max_iter, seed, trace):
    """Best ``_mirror_ascent`` result from uniform, ``init_measures`` and
    ``restarts`` Dirichlet draws.

    ``trace`` (if given) collects one row per initializer with the objective
    that restart reached; ``converged`` is the winning restart's.
    """
    space = problem.ev.space
    n = space.n
    if n == 0:
        raise ValueError("empty space")
    rng = np.random.default_rng(seed)
    inits = ([np.full(n, 1.0 / n)]
             + [_project(np.array(m.weights, dtype=float)) for m in init_measures or []]
             + [_project(rng.dirichlet(np.ones(n))) for _ in range(restarts)])
    best = None
    total_it = 0
    for idx, w0 in enumerate(inits):
        w, obj, it, conv = _mirror_ascent(problem, w0, max_iter)
        total_it += it
        if trace is not None:
            trace.append({"problem": name, "restart": idx,
                          "objective": float(obj), "iterations": it})
        if best is None or problem.sign * obj > problem.sign * best[1]:
            best = (w, obj, conv)
    return OptimizationResult(measure=ProbabilityMeasure(space, best[0]),
                              objective=float(best[1]), iterations=total_it,
                              converged=best[2])


def maximize_M_self(space: FiniteMetricSpace, delta: float | None = None,
                    init_measures=None, restarts: int = 8,
                    max_iter: int = 300, seed: int = 0,
                    trace: list | None = None) -> OptimizationResult:
    """Best-found measure for sup_mu M(mu, mu, delta).

    Initialized from uniform, any supplied measures (typically mu_F), and
    Dirichlet restarts; the returned objective is the exact functional at
    the returned measure.
    """
    return _best_of_restarts(_SelfM(SigmaEvaluator(space, delta)), "sup_self",
                             init_measures, restarts, max_iter, seed, trace)


def minimize_sup_M(space: FiniteMetricSpace, restarts: int = 8,
                   max_iter: int = 400, seed: int = 0,
                   trace: list | None = None) -> OptimizationResult:
    """Best-found measure for inf_mu sup_t M(mu, delta_t).

    The reported objective is an upper bound for the true infimum
    (feasible-point semantics).
    """
    return _best_of_restarts(_Soft(SigmaEvaluator(space), -1.0), "inf_sup", None,
                             restarts, max_iter, seed, trace)


def maximize_inf_M(space: FiniteMetricSpace, restarts: int = 8,
                   max_iter: int = 400, seed: int = 0,
                   trace: list | None = None) -> OptimizationResult:
    """Best-found measure for sup_mu inf_t M(mu, delta_t).

    The balanced measure is always tried as an initializer: equalized
    integrals keep the inner infimum non-degenerate over the support.
    Without one (coincident points) the search warns and goes on without it.
    """
    problem = _Soft(SigmaEvaluator(space), 1.0)
    inits = []
    try:
        inits.append(balanced_measure(space).measure)
    except ValueError as exc:
        warnings.warn(f"sup_inf search without the balanced initializer: {exc}")
    return _best_of_restarts(problem, "sup_inf", inits, restarts, max_iter, seed, trace)


def balanced_measure(space: FiniteMetricSpace,
                     init: ProbabilityMeasure | None = None) -> BalancedMeasure:
    """The measure equalizing the young-inverse integrals over all points.

    The integrals use the built-in Young function phi_2(x) = 2^(x^2) - 1.

    Damped multiplicative fixed-point iteration with a line search on the
    exponent, so the spread max Phi - min Phi decreases at every accepted
    step.  Requires all points distinct (coincident points force infinite
    integrals on one of them).
    """
    if space.n == 0:
        raise ValueError("empty space")
    if space.n == 1:
        w = np.ones(1)
        phi = SigmaEvaluator(space, None, YOUNG_INVERSE).profile(w)
        return BalancedMeasure(ProbabilityMeasure(space, w), phi, 0.0, 0, True)
    off = space.dist[np.triu_indices(space.n, k=1)]
    if np.any(off == 0):
        raise ValueError("balanced measure requires all points distinct")
    ev = SigmaEvaluator(space, None, YOUNG_INVERSE)
    w = init.weights.copy() if init is not None else np.full(space.n, 1.0 / space.n)
    w = _project(w)
    phi = ev.profile(w)
    spread = float(phi.max() - phi.min())
    it = 0
    converged = False
    while it < BALANCE_MAX_ITER:
        it += 1
        mean = float(phi.mean())
        if spread <= BALANCE_TOL * mean:
            converged = True
            break
        theta = BALANCE_DAMPING
        accepted = False
        while theta > 1e-7:
            cand = _project(w * (phi / mean) ** theta)
            cphi = ev.profile(cand)
            cspread = float(cphi.max() - cphi.min())
            if cspread < spread:
                w, phi, spread = cand, cphi, cspread
                accepted = True
                break
            theta *= 0.5
        if not accepted:
            break
    if spread > 1e-13 * float(phi.mean()):
        # the damped iteration stalls near the solution; polish by least
        # squares on the centered integrals over softmax weights
        w, phi, spread = _balance_polish(ev, w)
    if spread <= BALANCE_TOL * float(phi.mean()):
        converged = True
    return BalancedMeasure(measure=ProbabilityMeasure(space, w), phi_values=phi,
                           spread=spread, iterations=it, converged=converged)


def _balance_polish(ev, w):
    from scipy.optimize import least_squares

    def unpack(x):
        e = np.exp(x - x.max())
        return _project(e / e.sum())

    def residual(x):
        phi = ev.profile(unpack(x))
        bad = ~np.isfinite(phi)
        if bad.any():
            phi = np.where(bad, 1e6, phi)
        return phi - phi.mean()

    phi = ev.profile(w)
    spread = float(phi.max() - phi.min())
    for _ in range(4):  # restarting LM resets its trust region
        sol = least_squares(residual, np.log(np.maximum(w, WEIGHT_FLOOR)),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                            max_nfev=5000)
        cand = unpack(sol.x)
        cphi = ev.profile(cand)
        cspread = float(cphi.max() - cphi.min())
        if not (np.all(np.isfinite(cphi)) and cspread < spread):
            break
        w, phi, spread = cand, cphi, cspread
    return w, phi, spread


# ---------------------------------------------------------------------------
# assembled report


@dataclass(frozen=True)
class DualityReport:
    sup_self: float
    inf_sup: float
    sup_inf: float
    esup: float
    esup_stderr: float
    ratios: dict
    flags: list
    measures: dict  # problem name -> best-found weight vector


def duality_report(space: FiniteMetricSpace, model=None, n_samples: int = 20000,
                   seed: int = 0, restarts: int = 8,
                   threads: int = 1, trace: list | None = None) -> DualityReport:
    """All three extrema plus the Monte Carlo E sup and their pairwise ratios.

    sup_self is re-checked against the sup_inf candidate so the assertable
    pointwise-averaging ordering (sup_inf <= sup_self) holds for the
    reported numbers by construction.
    """
    flags = []
    if space.n < 2 or space.diam == 0:
        flags.append("degenerate")
        return DualityReport(0.0, 0.0, 0.0, 0.0, 0.0, {}, flags, {})
    inits = []
    esup, se = 0.0, 0.0
    if model is not None:
        est = estimate_sup(model, n_samples, seed, threads)
        esup, se = est.mean, est.stderr
        inits.append(argmax_distribution(model, n_samples, seed + 1, threads).measure)
    sup_inf = maximize_inf_M(space, restarts=restarts, max_iter=300, seed=seed, trace=trace)
    inf_sup = minimize_sup_M(space, restarts=restarts, max_iter=300, seed=seed, trace=trace)
    sup_self = maximize_M_self(space, init_measures=inits + [sup_inf.measure],
                               restarts=restarts, max_iter=300, seed=seed, trace=trace)
    w = sup_inf.measure.weights
    prof = SigmaEvaluator(space).profile(w)
    if not (prof.min() <= nu_average(prof, w) + 1e-9):
        flags.append("averaging sandwich violated")
    if sup_inf.objective > sup_self.objective + 1e-6:
        flags.append("ordering sup_inf <= sup_self violated")
    vals = {"sup_self": sup_self.objective, "inf_sup": inf_sup.objective,
            "sup_inf": sup_inf.objective, "esup": esup}
    ratios = {}
    for a in vals:
        for b in vals:
            if a < b and vals[b] != 0:
                ratios[f"{a}/{b}"] = vals[a] / vals[b]
    return DualityReport(sup_self=sup_self.objective, inf_sup=inf_sup.objective,
                         sup_inf=sup_inf.objective, esup=esup, esup_stderr=se,
                         ratios=ratios, flags=flags,
                         measures={"sup_self": sup_self.measure.weights,
                                   "inf_sup": inf_sup.measure.weights,
                                   "sup_inf": sup_inf.measure.weights})
