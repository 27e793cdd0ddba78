"""Probability measures and the truncated majorizing functionals.

The central quantity is

    sigma(mu, t, delta) = integral over (0, delta] of  f(mu(B(t, eps))) d eps

with integrand ``f(p) = sqrt(log2(1/p))`` in gaussian-log mode and
``f(p) = phi_q^{-1}(1/p)`` in young-inverse mode, for the Young function
``phi_q(x) = 2^(x^q) - 1``.  On a finite space the ball mass is a step
function of eps, so the integral is an exact finite sum.
``functional_M(mu, nu)`` is the nu-average of sigma at the full diameter.

The two integrand modes coincide for q = 2 only up to the additive 1 inside
the log; they are kept separate and never mixed inside one computation.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .metric_core import FiniteMetricSpace

GAUSSIAN_LOG = "gaussian-log"
YOUNG_INVERSE = "young-inverse"

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
        if not np.all(np.isfinite(w)):
            raise MeasureError(f"weight at index {int(np.argmin(np.isfinite(w)))} is not finite")
        w[(w < 0) & (w >= -WEIGHT_FLOOR)] = 0.0
        if np.any(w < 0):
            raise MeasureError(f"negative weight at index {int(np.argmin(w))}")
        s = w.sum()
        if abs(s - 1.0) > WEIGHT_SUM_TOL:
            raise MeasureError(f"weights sum to {s}, beyond tolerance {WEIGHT_SUM_TOL}")
        w /= s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def uniform_measure(space: FiniteMetricSpace) -> ProbabilityMeasure:
    return ProbabilityMeasure(space, np.full(space.n, 1.0 / space.n))


def _integrand(mode: str, q: float):
    """The integrand f(p): sqrt(log2(1/p)) in gaussian-log mode, and in
    young-inverse mode phi_q^{-1}(1/p) = log2(1 + 1/p)^(1/q) for the Young
    function phi_q(x) = 2^(x^q) - 1, q >= 1.  As phi_q(1) = 1, a point mass
    at t has sigma = diam at t in young-inverse mode.  Each ufunc after the
    first writes into the array the first one made, so a call allocates one
    array of the shape of p."""
    if mode == GAUSSIAN_LOG:
        def f(p):
            v = np.log2(p)
            np.negative(v, out=v)
            np.maximum(v, 0.0, out=v)
            return np.sqrt(v, out=v)
        return f
    if mode == YOUNG_INVERSE:
        if q < 1:
            raise ValueError("q must be >= 1")

        def f(p):
            v = np.divide(1.0, p)
            np.log1p(v, out=v)
            np.divide(v, math.log(2.0), out=v)
            return np.power(v, 1.0 / q, out=v)
        return f
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# exact piecewise evaluation


# the smallest normal float
_TINY = np.finfo(float).tiny


class SigmaEvaluator:
    """Exact sigma profiles for one space, mode and q at one or several
    truncations delta, and their gradients in gaussian-log mode.

    Dense row layout: row t of ``order`` (the stable argsort of ``dist[t]``,
    :meth:`FiniteMetricSpace.row_order`) and of a delta's n x n ``gaps``
    table (the length of [r_j, r_{j+1}) clipped to delta, r_j the j-th
    sorted distance) describe the balls around t, and its ``dead`` table
    marks the intervals of zero length.  ``gaps`` are read off ``np.sort``
    of the rows, which does not depend on how ties are ordered; the space
    computes ``order`` once, from the first evaluator's sorted rows, for
    all its evaluators.  A gap is 0 inside a block of tied distances, so a
    cumulative weight counts as a ball mass only at the end of its block.
    ``delta`` is one truncation or a sequence of them, ``deltas`` the
    truncations kept, one table per entry; ``delta``, ``gaps`` and
    ``dead`` are the first entry's, and ``at(d)`` gives lanes at indices
    ``d`` into ``deltas`` their own.  The first ``jacobian`` or ``at``
    call keeps ``_gather``, the flat index that reads each row's suffix
    sums back in point order.

    ``masses``, ``profile``, ``jacobian`` and ``m_self_grad`` take a
    (lanes x n) weight matrix, one measure per row, and give one result per
    lane; a 1-D weight vector is one lane and gets results without the lane
    axis.  Every lane's result is bit for bit that of a call on its row
    alone: the (lanes, n, n) arrays are C-contiguous (the ball masses come
    from ``w.take(order, axis=-1)``), so ``matmul`` dots contiguous rows
    with the BLAS dot of a one-lane call (BLAS may add strided rows in
    another order), and ``w J`` is the same gemv as a lane's ``J.T @ w``.
    ``profile``, ``jacobian`` and ``m_self_grad`` take the ``masses`` of
    the same weights when the caller has them, so an iterate's ball masses
    and integrand values are computed once.  Memory is O(k * n^2) per
    evaluator of k deltas and O(lanes * n^2) per call.  Each delta is
    truncated at the diameter: the functionals treat delta >= diam and
    delta = infinity as identical.
    """

    def __init__(self, space: FiniteMetricSpace, delta: float | Sequence[float] | None = None,
                 mode: str = GAUSSIAN_LOG, q: float = 2.0):
        self.space = space
        self.mode = mode
        self.f = _integrand(mode, q)
        deltas = [delta] if delta is None or np.ndim(delta) == 0 else delta
        self.deltas = [max(float(space.diam if d is None else min(d, space.diam)), 0.0)
                       for d in deltas]
        self.delta = self.deltas[0]
        sd = np.sort(space.dist, axis=1)
        self.order = space.row_order(sd)
        # one (n, n) table per delta, stacked
        self._gaps = np.empty((len(self.deltas),) + sd.shape)
        for g, d in zip(self._gaps, self.deltas):
            np.minimum(sd[:, 1:], d, out=g[:, :-1])
            g[:, -1] = d
        self._gaps -= sd
        np.maximum(self._gaps, 0.0, out=self._gaps)
        self._dead = ~(self._gaps > 0)
        self.gaps, self.dead = self._gaps[0], self._dead[0]
        self._gather = None

    def at(self, d: np.ndarray) -> SigmaEvaluator:
        """A copy with the tables of lanes at delta indices ``d``: views when
        they share one delta, else gathered per lane.  It runs no
        ``__init__`` and shares ``order`` and ``_gather``, built here."""
        self._suffix_index()
        ev = object.__new__(SigmaEvaluator)
        ev.__dict__.update(self.__dict__)
        if len(set(d.tolist())) == 1:
            ev.gaps, ev.dead = self._gaps[d[0]], self._dead[d[0]]
        else:
            ev.gaps, ev.dead = self._gaps.take(d, axis=0), self._dead.take(d, axis=0)
        return ev

    def masses(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(p, vals), each (lanes, n, n), or (n, n) for a 1-D ``w``:
        p[l, t, j] is the weight of lane l on the first j + 1 points of row
        t's order, and vals = f(p) on the live intervals of positive mass, 0
        elsewhere."""
        p = w.take(self.order, axis=-1).cumsum(axis=-1)
        # with every weight normal, every p is too, so f(p) is finite
        # everywhere (1/p cannot overflow): evaluate it on every entry, the
        # same bits entry by entry, and zero the dead intervals.
        # np.minimum.reduce is w.min() without its Python wrapper
        if np.minimum.reduce(w, axis=None) >= _TINY:
            vals = self.f(p)
            np.copyto(vals, 0.0, where=self.dead)
            return p, vals
        massive = ~self.dead & (p > 0)
        vals = np.zeros(p.shape)
        vals[massive] = self.f(p[massive])
        return p, vals

    def profile(self, w: np.ndarray, masses=None) -> np.ndarray:
        """sigma(mu, t) for every t and lane; +inf where a live interval has
        no mass."""
        p, vals = self.masses(w) if masses is None else masses
        # matmul reduces each row with the BLAS dot of a 1-D np.dot; einsum
        # would add in another order and move the searched objectives' last bits
        out = np.matmul(self.gaps[..., None, :], vals[..., None])[..., 0, 0]
        # only a zero (or NaN) weight can leave a live interval massless
        if not np.minimum.reduce(w, axis=None) > 0:
            out[(~self.dead & ~(p > 0)).any(axis=-1)] = np.inf
        return out

    def m_self(self, w: np.ndarray) -> float:
        return nu_average(self.profile(w), w)

    # -- analytic gradients (weights assumed strictly positive) ------------

    def jacobian(self, w: np.ndarray, masses=None) -> np.ndarray:
        """J[t, u] = d sigma(mu, t) / d w_u for every lane, ignoring the
        simplex constraint.

        The full-mass block (p = 1) is held constant: along simplex
        directions its mass cannot move.  A zero-mass block (sigma = +inf)
        contributes nothing.
        """
        if self.mode != GAUSSIAN_LOG:
            raise ValueError("the jacobian is analytic in gaussian-log mode only")
        n = self.space.n
        p, vals = self.masses(w) if masses is None else masses
        # the moving entries are the live ones with 0 < p < 1 - 1e-15, which
        # are those where f(p) > 0 and p < 1 - 1e-15; there term is
        # gaps * f'(p), f'(p) = -1 / (2 ln 2 p f(p)), and +0.0 elsewhere.
        # p < 1 - 1e-15 keeps f(p) above 3.8e-8, clear of the p -> 1
        # singularity, so f needs no clamp there
        moving = p < 1.0 - 1e-15
        moving &= vals > 0
        x = 2.0 * math.log(2.0) * p
        x *= vals
        term = np.divide(-1.0, x, out=np.zeros(p.shape), where=moving)
        term *= self.gaps
        rev = term[..., ::-1].cumsum(axis=-1)
        return rev.reshape(p.shape[:-2] + (n * n,)).take(self._suffix_index(), axis=-1)

    def _suffix_index(self):
        """``_gather``, built at the first call."""
        if self._gather is None:
            # J[t, order[t, j]] is the suffix sum from j, which the reversed
            # row's running sum holds at n - 1 - j
            n = self.space.n
            rows = np.arange(n)[:, None]
            self._gather = np.empty((n, n), dtype=np.intp)
            self._gather[rows, self.order] = rows * n + np.arange(n - 1, -1, -1)
        return self._gather

    def m_self_grad(self, w: np.ndarray, prof: np.ndarray, masses=None) -> np.ndarray:
        """Gradient of M(mu, mu) at each lane of w, given ``prof = profile(w)``."""
        # w J is J.T @ w, lane by lane the same gemv
        return prof + np.matmul(w[..., None, :], self.jacobian(w, masses))[..., 0, :]


def nu_average(prof: np.ndarray, nu_w: np.ndarray):
    """Sum of nu_w[t] * prof[t] over the charged t, added in index order: a
    float, or one per lane (row) of (lanes x n) arguments.

    +inf propagates only through points that nu actually charges: an
    uncharged point adds +0.0, which leaves the non-negative running sum as
    it is, and its product is never formed, so 0 * inf makes no NaN.
    """
    terms = np.multiply(nu_w, prof, out=np.zeros(prof.shape), where=nu_w > 0)
    if terms.ndim == 2:
        return terms.cumsum(axis=1)[:, -1]
    return float(terms.cumsum()[-1]) if terms.size else 0.0


# ---------------------------------------------------------------------------
# public operations


def sigma_profile(mu: ProbabilityMeasure, delta: float, mode: str = GAUSSIAN_LOG,
                  q: float = 2.0) -> np.ndarray:
    """Exact sigma(mu, t, delta) at every point t; +inf, a value, marks an
    interval of positive length whose ball carries no mass.  A delta <= 0
    gives an all-zero profile."""
    return SigmaEvaluator(mu.space, delta, mode, q).profile(mu.weights)


def functional_M(mu: ProbabilityMeasure, nu: ProbabilityMeasure) -> float:
    """M(mu, nu) = integral of sigma(mu, t) d nu(t) at the full diameter, in
    gaussian-log mode.

    +inf propagates only through points that nu actually charges.
    """
    if mu.space is not nu.space and not np.array_equal(mu.space.dist, nu.space.dist):
        raise MeasureError("mu and nu must live on the same space")
    return nu_average(SigmaEvaluator(mu.space).profile(mu.weights), nu.weights)
