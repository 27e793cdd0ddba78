"""Greedy partition trees driven by the set functional F(A) = E sup over A.

The construction follows the carving scheme: at level k each parent cell B
is split by repeatedly choosing the point whose small probe ball has the
largest F value and removing the larger carving ball around it.  Radii are
geometric scales r^-k scaled by the space diameter, so the
machinery works at native scale.

The chained functional translates M(mu, nu) into tree language and the
audits record both sides of the per-cell induction inequality, with the
unknown universal constant reported empirically instead of asserted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .gaussian_lab import sample_estimate, sample_paths
from .measures import ProbabilityMeasure
from .metric_core import FiniteMetricSpace


@dataclass
class Cell:
    members: tuple
    center: int
    level: int
    children: list = field(default_factory=list)
    F_estimate: float = 0.0
    F_stderr: float = 0.0


@dataclass
class PartitionTree:
    space: FiniteMetricSpace
    r: float
    levels: list  # levels[k] = list of cells forming partition A_k

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def common_sample_oracle(model, n_samples: int, seed: int):
    """F oracle backed by one shared sample matrix (common random numbers).

    Using the same draws for every subset makes F monotone under inclusion
    sample-by-sample, which keeps carving-order comparisons noise-free.
    """
    X = sample_paths(model, 0, n_samples, seed)

    def oracle(subset):
        idx = np.fromiter(subset, dtype=int)
        est = sample_estimate(X[idx].max(axis=0))
        return est.mean, est.stderr

    return oracle


def _one_center(space: FiniteMetricSpace, members) -> int:
    idx = np.fromiter(members, dtype=int)
    sub = space.dist[np.ix_(idx, idx)]
    return int(idx[int(np.argmin(sub.max(axis=1)))])


def build_partition(space: FiniteMetricSpace, F_oracle, r: float = 4.0) -> PartitionTree:
    """Carve the leveled partition tree down to singleton cells.

    The maximization of F over candidate centers is exact over the finite
    set, so the +eps slack of the abstract construction is not needed to
    pick centers.  ``F_oracle`` must be a deterministic function of its
    subset: carving scores each candidate's probe ball once, again only
    after a carve takes one of its members, takes the first maximum in
    member order as center, and calls F once per carved cell, unless the
    cell is exactly the center's probe ball, whose (F, se) pair it already
    holds.  Carving stops after ceil(log_r(diam / smallest distance)) + 4
    levels (3 if all points coincide), by which only coincident points can
    still share a cell, with a warning that names the largest leaf left.
    Where the ratio overflows, log_r(diam) - log_r(smallest distance) takes
    its place.
    """
    if r <= 1.0:
        raise ValueError("r must be > 1")

    all_points = tuple(range(space.n))
    mean, se = F_oracle(all_points)
    root = Cell(members=all_points, center=_one_center(space, all_points) if space.n else 0,
                level=0, F_estimate=mean, F_stderr=se)
    levels = [[root]]
    if space.n <= 1:
        return PartitionTree(space=space, r=float(r), levels=levels)

    if space.breaks.size > 1:  # breaks[1] is the smallest positive distance
        ratio = space.diam / float(space.breaks[1])
        if ratio == math.inf:  # a subnormal smallest distance
            depth = math.log(space.diam, r) - math.log(float(space.breaks[1]), r)
        else:
            depth = math.log(ratio, r)
        last_level = int(math.ceil(depth)) + 4
    else:
        last_level = 3

    D = space.dist
    k = 1
    while any(len(c.members) > 1 for c in levels[-1]):
        if k > last_level:
            largest = max(len(c.members) for c in levels[-1])
            warnings.warn(f"partition depth cut-off at level {k - 1}: "
                          f"largest leaf has {largest} points")
            break
        carve_r = space.diam * r ** (-k) / 2.0
        probe_r = space.diam * r ** (-k - 1) / 2.0
        new_level = []
        for parent in levels[-1]:
            rem = np.array(parent.members)
            near = D[np.ix_(rem, rem)] <= probe_r  # row i: probe ball of rem[i]
            probes = np.array([F_oracle(rem[row]) for row in near], dtype=float)  # (F, se)
            while rem.size:
                i = int(np.argmax(probes[:, 0]))
                carved = D[rem[i], rem] <= carve_r
                cell_members = tuple(rem[carved].tolist())
                if np.array_equal(carved, near[i]):  # the cell is the center's probe ball
                    mean, se = probes[i].tolist()
                else:
                    mean, se = F_oracle(cell_members)
                cell = Cell(members=cell_members, center=int(rem[i]), level=k,
                            F_estimate=mean, F_stderr=se)
                parent.children.append(cell)
                new_level.append(cell)
                keep = ~carved
                touched = near[np.ix_(keep, carved)].any(axis=1)
                rem, near, probes = rem[keep], near[np.ix_(keep, keep)], probes[keep]
                for j in np.flatnonzero(touched):
                    probes[j] = F_oracle(rem[near[j]])
        levels.append(new_level)
        k += 1

    return PartitionTree(space=space, r=float(r), levels=levels)


# ---------------------------------------------------------------------------
# chained functionals


def _log_ratio_term(mass_parent: float, mass_child: float) -> float:
    """sqrt(log2(mu(B)/mu(A))); +inf when the child mass vanishes under a
    positive parent mass."""
    if mass_child <= 0.0:
        return math.inf if mass_parent > 0.0 else 0.0
    ratio = max(mass_parent / mass_child, 1.0)
    return math.sqrt(math.log2(ratio))


def _cell_mass(mu: ProbabilityMeasure, cell: Cell) -> float:
    return float(sum(mu.weights[list(cell.members)]))


def _parent_child_masses(tree: PartitionTree, mu: ProbabilityMeasure):
    """(k, mu(B), mu(A), A) for every child A of every cell B of level k - 1."""
    for k in range(1, len(tree.levels)):
        for parent in tree.levels[k - 1]:
            mp = _cell_mass(mu, parent)
            for child in parent.children:
                yield k, mp, _cell_mass(mu, child), child


def chained_functional(tree: PartitionTree, mu: ProbabilityMeasure,
                       nu: ProbabilityMeasure) -> float:
    """r * sum_k diam r^-k sum_{B} sum_{A in A_k(B)} nu(A) sqrt(log2(mu(B)/mu(A))).

    Terms with nu(A) = 0 contribute 0 even when mu(A) = 0; a charged cell of
    zero mu-mass makes the whole value +inf.  Levels past the first
    all-singleton one would contribute 0, so the finite sum is exact.
    """
    D = tree.space.diam
    total = 0.0
    for k, mp, m_a, child in _parent_child_masses(tree, mu):
        nu_a = _cell_mass(nu, child)
        if nu_a <= 0.0:
            continue
        term = _log_ratio_term(mp, m_a)
        if math.isinf(term):
            return math.inf
        total += tree.r * D * tree.r ** (-k) * nu_a * term
    return total


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class CellAudit:
    level: int
    center: int
    lhs: float
    rhs_core: float
    children_term: float
    empirical_L: float
    l0: int
    low_confidence: bool


def _grouping_level(m_cells: int) -> int:
    """l0: the first l whose block 2^(2^l) reaches the cell count (0 for m <= 2)."""
    l0 = 0
    while 2 ** (2 ** l0) < m_cells:
        l0 += 1
    return l0


def audit_cell(tree: PartitionTree, mu: ProbabilityMeasure, cell: Cell) -> CellAudit:
    """Both sides of the per-cell induction inequality at parent cell B.

    lhs = mu(B) (F(B) + 4 diam r^-k); rhs combines the entropy-like child
    sum and the grandchild functional mass.  empirical_L is the smallest L
    making lhs >= child_sum / (2L) + grandchild_term.
    """
    k = cell.level + 1
    D = tree.space.diam
    scale = D * tree.r ** (-k)
    m_b = _cell_mass(mu, cell)
    lhs = m_b * (cell.F_estimate + 4.0 * scale)
    child_sum = 0.0
    for child in cell.children:
        m_a = _cell_mass(mu, child)
        if m_a > 0:
            child_sum += m_a * _log_ratio_term(m_b, m_a)
    core = scale * child_sum
    grand = 0.0
    worst_se = cell.F_stderr
    for child in cell.children:
        for gc in child.children:
            grand += _cell_mass(mu, gc) * gc.F_estimate
            worst_se = max(worst_se, gc.F_stderr)
    if core <= 0.0:
        emp_l = 0.0
    elif lhs > grand:
        emp_l = core / (2.0 * (lhs - grand))
    else:
        emp_l = math.inf
    return CellAudit(level=cell.level, center=cell.center, lhs=float(lhs),
                     rhs_core=float(core), children_term=float(grand),
                     empirical_L=float(emp_l), l0=_grouping_level(len(cell.children)),
                     low_confidence=bool(worst_se > 0.1 * scale))


def lower_bound_report(tree: PartitionTree, mu: ProbabilityMeasure, esup_estimate: float):
    """Assembled induction sum and the implied empirical constant.

    induction_sum carries the r^-k weights of the even/odd level
    recombination; empirical_constant divides it by
    2 (E sup + 4 diam sum_k r^-k) over the levels the tree actually has.
    """
    D = tree.space.diam
    ind = 0.0
    for k, mp, m_a, _ in _parent_child_masses(tree, mu):
        if m_a > 0:
            ind += D * tree.r ** (-k) * m_a * _log_ratio_term(mp, m_a)
    tail = D * sum(tree.r ** (-k) for k in range(1, len(tree.levels)))
    denom = 2.0 * (esup_estimate + 4.0 * tail)
    return {"induction_sum": float(ind),
            "empirical_constant": float(ind / denom) if denom > 0 else 0.0}
