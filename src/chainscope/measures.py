"""Probability measures, Young functions and the truncated majorizing functionals.

The central quantity is

    sigma(mu, t, delta) = integral over (0, delta] of  f(mu(B(t, eps))) d eps

with integrand ``f(p) = sqrt(log2(1/p))`` in gaussian-log mode and
``f(p) = phi^{-1}(1/p)`` in young-inverse mode.  On a finite space the ball
mass is a step function of eps, so the integral is an exact finite sum.
``functional_M(mu, nu, delta)`` is the nu-average of sigma.

The two integrand modes coincide for the Gaussian Young function
``phi(x) = 2^(x^2) - 1`` only up to the additive 1 inside the log; they are
kept separate and never mixed inside one computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric_core import FiniteMetricSpace

GAUSSIAN_LOG = "gaussian-log"
YOUNG_INVERSE = "young-inverse"
MODES = (GAUSSIAN_LOG, YOUNG_INVERSE)

WEIGHT_SUM_TOL = 1e-9
WEIGHT_FLOOR = 1e-12


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Weight vector on the points of a finite metric space.

    Weights within ``WEIGHT_SUM_TOL`` of total mass 1 are renormalized
    (serialization round-off); anything worse is rejected.
    """

    space: FiniteMetricSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.space.n,):
            raise MeasureError(f"expected {self.space.n} weights, got shape {w.shape}")
        w[(w < 0) & (w >= -WEIGHT_FLOOR)] = 0.0
        if np.any(w < 0):
            raise MeasureError(f"negative weight at index {int(np.argmin(w))}")
        s = w.sum()
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise MeasureError(f"weights sum to {s}, beyond tolerance {WEIGHT_SUM_TOL}")
        w /= s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def mass(self, t: int, radius: float) -> float:
        return float(self.weights[self.space.dist[t] <= radius].sum())


def uniform_measure(space: FiniteMetricSpace) -> ProbabilityMeasure:
    return ProbabilityMeasure(space, np.full(space.n, 1.0 / space.n))


def point_mass(space: FiniteMetricSpace, t: int) -> ProbabilityMeasure:
    w = np.zeros(space.n)
    w[t] = 1.0
    return ProbabilityMeasure(space, w)


# ---------------------------------------------------------------------------
# Young functions


@dataclass(frozen=True)
class YoungFunction:
    """Convex increasing phi with phi(0) = 0, together with its inverse.

    ``doubling_constant`` is the C of phi(2x) >= 2*C*phi(x) on
    ``doubling_range``; the built-in power family records it explicitly.
    """

    name: str
    evaluate: callable
    inverse: callable
    doubling_constant: float | None = None
    doubling_range: tuple | None = None


def young_power(q: float = 2.0) -> YoungFunction:
    """The built-in family phi_q(x) = 2^(x^q) - 1, q >= 1.

    phi_q(1) = 1, so the point mass delta_t has sigma(delta_t, t) = diam in
    young-inverse mode.  For q > 1 the small-x doubling constant is 2^(q-1).
    """
    if q < 1:
        raise ValueError("q must be >= 1")

    def ev(x):
        # expm1 keeps precision near 0, where 2^(x^q) - 1 cancels
        return np.expm1(math.log(2.0) * np.power(x, q))

    def inv(y):
        return np.power(np.log1p(y) / math.log(2.0), 1.0 / q)

    return YoungFunction(
        name=f"phi_{q:g}",
        evaluate=ev,
        inverse=inv,
        doubling_constant=2.0 ** (q - 1.0) if q > 1 else None,
        doubling_range=(0.0, 1.0) if q > 1 else None,
    )


def _integrand(mode: str, young: YoungFunction | None):
    if mode == GAUSSIAN_LOG:
        def f(p):
            p = np.asarray(p, dtype=float)
            return np.sqrt(np.maximum(-np.log2(p), 0.0))
        return f
    if mode == YOUNG_INVERSE:
        yf = young if young is not None else young_power(2.0)
        def f(p):
            p = np.asarray(p, dtype=float)
            return yf.inverse(1.0 / p)
        return f
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# exact piecewise evaluation


class SigmaEvaluator:
    """Exact sigma profiles and their gradients for one (space, delta, mode).

    Dense row layout: row t of the n x n arrays ``order`` (stable argsort of
    ``dist[t]``), ``pos`` (its inverse) and ``gaps`` (the length of
    [r_j, r_{j+1}) clipped to delta, r_j the j-th sorted distance) describes
    the balls around t.  A gap is 0 inside a block of tied distances, so a
    cumulative weight counts as a ball mass only at the end of its block.
    Memory is O(n^2) per evaluator and per call.  ``delta`` is truncated at
    the diameter: the functionals treat delta >= diam and delta = infinity
    as identical.
    """

    def __init__(self, space: FiniteMetricSpace, delta: float | None = None,
                 mode: str = GAUSSIAN_LOG, young: YoungFunction | None = None):
        self.space = space
        self.mode = mode
        self.f = _integrand(mode, young)
        d = space.diam if delta is None else min(delta, space.diam)
        self.delta = max(float(d), 0.0)
        n = space.n
        self.order = np.argsort(space.dist, axis=1, kind="stable")
        self.pos = np.empty_like(self.order)
        np.put_along_axis(self.pos, self.order, np.arange(n)[None, :], axis=1)
        sd = np.take_along_axis(space.dist, self.order, axis=1)
        nxt = np.minimum(np.c_[sd[:, 1:], np.full(n, np.inf)], self.delta)
        self.gaps = np.clip(nxt - sd, 0.0, None)

    def profile(self, w: np.ndarray) -> np.ndarray:
        """sigma(mu, t) for every t; +inf where a live interval has no mass."""
        p = np.cumsum(w[self.order], axis=1)
        live = self.gaps > 0
        massive = live & (p > 0)
        vals = np.zeros_like(p)
        vals[massive] = self.f(p[massive])
        # matmul reduces each row with the BLAS dot of a 1-D np.dot; einsum
        # would add in another order and move the searched objectives' last bits
        out = np.matmul(self.gaps[:, None, :], vals[:, :, None])[:, 0, 0]
        out[np.any(live & ~massive, axis=1)] = np.inf
        return out

    def m_self(self, w: np.ndarray) -> float:
        return _nu_average(self.profile(w), w)

    # -- analytic gradients (weights assumed strictly positive) ------------

    def _fprime(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.mode == GAUSSIAN_LOG:
            fv = np.sqrt(np.maximum(-np.log2(p), 0.0))
            fv = np.maximum(fv, 1e-8)  # clamp the p -> 1 singularity
            return -1.0 / (2.0 * math.log(2.0) * p * fv)
        # young-inverse, built-in family handled generically via finite diff
        h = 1e-7
        return (self.f(np.minimum(p + h, 1.0)) - self.f(np.maximum(p - h, WEIGHT_FLOOR))) / (
            np.minimum(p + h, 1.0) - np.maximum(p - h, WEIGHT_FLOOR))

    def jacobian(self, w: np.ndarray) -> np.ndarray:
        """J[t, u] = d sigma(mu, t) / d w_u, ignoring the simplex constraint.

        The full-mass block (p = 1) is held constant: along simplex
        directions its mass cannot move.  A zero-mass block (sigma = +inf)
        contributes nothing.
        """
        p = np.cumsum(w[self.order], axis=1)
        moving = (self.gaps > 0) & (p > 0) & (p < 1.0 - 1e-15)
        term = np.zeros_like(p)
        term[moving] = self.gaps[moving] * self._fprime(p[moving])
        suffix = np.cumsum(term[:, ::-1], axis=1)[:, ::-1]
        return np.take_along_axis(suffix, self.pos, axis=1)

    def m_self_grad(self, w: np.ndarray) -> np.ndarray:
        return self.profile(w) + self.jacobian(w).T @ w


def _nu_average(prof: np.ndarray, nu_w: np.ndarray) -> float:
    """Sum of nu_w[t] * prof[t] over the charged t, added in index order.

    +inf propagates only through points that nu actually charges.
    """
    charged = nu_w > 0
    if not np.any(charged):
        return 0.0
    return float(np.cumsum(nu_w[charged] * prof[charged])[-1])


# ---------------------------------------------------------------------------
# public operations


def sigma(space: FiniteMetricSpace, mu: ProbabilityMeasure, t: int, delta: float,
          mode: str = GAUSSIAN_LOG, young: YoungFunction | None = None) -> float:
    """Exact truncated majorizing integral at one point; +inf is a value.

    +inf signals an interval of positive length whose ball carries no mass;
    optimizers treat it as an infeasible objective, not an error.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0 or space.n == 0:
        return 0.0
    ev = SigmaEvaluator(space, delta, mode, young)
    return float(ev.profile(mu.weights)[t])


def sigma_profile(space: FiniteMetricSpace, mu: ProbabilityMeasure, delta: float,
                  mode: str = GAUSSIAN_LOG, young: YoungFunction | None = None) -> np.ndarray:
    if delta <= 0:
        return np.zeros(space.n)
    ev = SigmaEvaluator(space, delta, mode, young)
    return ev.profile(mu.weights)


def functional_M(space: FiniteMetricSpace, mu: ProbabilityMeasure, nu: ProbabilityMeasure,
                 delta: float | None = None, mode: str = GAUSSIAN_LOG,
                 young: YoungFunction | None = None) -> float:
    """M(mu, nu, delta) = integral of sigma(mu, t, delta) d nu(t).

    +inf propagates only through points that nu actually charges.
    """
    if mu.space is not nu.space and not np.array_equal(mu.space.dist, nu.space.dist):
        raise MeasureError("mu and nu must live on the same space")
    d = delta if delta is not None else mu.space.diam
    if d <= 0:
        return 0.0
    ev = SigmaEvaluator(mu.space, d, mode, young)
    return _nu_average(ev.profile(mu.weights), nu.weights)


def subadditivity_check(x: float, y: float) -> bool:
    """sqrt(log2(x*y)) <= sqrt(log2 x) + sqrt(log2 y) for x, y >= 1."""
    if x < 1 or y < 1:
        raise ValueError("subadditivity_check requires x, y >= 1")
    lhs = math.sqrt(math.log2(x * y))
    rhs = math.sqrt(math.log2(x)) + math.sqrt(math.log2(y))
    return lhs <= rhs + 1e-12
